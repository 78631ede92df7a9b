"""The three benchmark workloads: seeded inputs, one op, and output checks.

Each workload turns a seed into an endless, deterministic stream of
inputs (drawn from a numpy Generator in fixed-size blocks, so the n-th
input depends on the seed alone), runs one op per input through the
public library or CLI, and checks the op's output. The program receives
only the generated inputs.

Ops call through module attributes (``kinematics.verify_duality``,
``tessellation.stack_complex``, ``cli.run``) so that the traced run's
patches, installed on those modules, see every call.

A check returns None when the output is right, or a ``Failure``. Kind
``"error"`` means the program itself reported that the op did not succeed:
it raised, exited non-zero, or returned a duality report whose own verdict
fails criterion 1 (zero traced branches, which the roadmap counts as a
failure rather than a vacuous pass, a mismatch of 1e-6 or more, or a
wrong sign pattern). Kind ``"wrong"`` means the program reported success
but the output breaks the paper's acceptance bounds. Both count against
the error rate; only ``"wrong"`` makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from rigidori import cli, kinematics, tessellation
from rigidori.numerics import Tolerances
from rigidori.vertex import Vertex4

BLOCK = 256  # inputs drawn per Generator call; fixed so streams repeat exactly
PI = math.pi

# acceptance criterion 1: driver 1, 9 samples, 0.05 trace step
DUALITY_TOL = Tolerances(trace_step_max=0.05)
SQUARE_TWIST = (PI / 4, PI / 2, 3 * PI / 4, PI / 2)
SHEET_SIZE = 12
LAYERS = 3


@dataclass(frozen=True)
class Failure:
    kind: str  # "error" or "wrong"
    reason: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    draw: Callable[[np.random.Generator], list]  # one block of inputs
    setup: Callable[[str], Any]  # scratch dir -> context shared by every op
    op: Callable[[Any, Any], Any]  # (context, input) -> raw output
    check: Callable[[Any, Any], Failure | None]  # (input, output) -> verdict

    def inputs(self, seed: int) -> Iterator:
        rng = np.random.default_rng(seed)
        while True:
            yield from self.draw(rng)


def _random_vertices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Criterion 1's distribution: sectors uniform in (0.2, pi - 0.2), so
    elliptic and hyperbolic vertices mix."""
    return rng.uniform(0.2, PI - 0.2, size=(n, 4))


# ---------------------------------------------------------------------------
# duality: verify_duality over random vertices


def _duality_draw(rng):
    return [tuple(map(float, a)) for a in _random_vertices(rng, BLOCK)]


def _duality_op(_ctx, alphas):
    return kinematics.verify_duality(
        Vertex4(alphas), driver_index=1, n_samples=9, tol=DUALITY_TOL
    )


def _duality_check(_alphas, rep) -> Failure | None:
    if rep.n_branches < 1:
        return Failure("error", "zero traced branches")
    if not rep.max_abs_rho_mismatch < 1e-6:
        return Failure("error", f"max |rho| mismatch {rep.max_abs_rho_mismatch:.3e} >= 1e-6")
    if not rep.sign_pattern_ok:
        return Failure("error", "dual sign pattern is not one-pair-flipped")
    return None


# ---------------------------------------------------------------------------
# stack: three-layer CW complexes of one prebuilt 12x12 sheet


def _stack_draw(rng):
    sign = rng.choice((-1.0, 1.0), size=BLOCK)
    mag = rng.uniform(0.05 * PI, 0.95 * PI, size=BLOCK)
    return [float(s * m) for s, m in zip(sign, mag)]


def _stack_setup(_scratch):
    return tessellation.build_square_twist_sheet(Vertex4(SQUARE_TWIST), SHEET_SIZE, SHEET_SIZE)


def _stack_op(sheet, rho):
    return tessellation.stack_complex(sheet, LAYERS, rho)


def _stack_check(_rho, cx) -> Failure | None:
    if not cx.glue_residual < 1e-8:
        return Failure("wrong", f"glue residual {cx.glue_residual:.3e} >= 1e-8")
    if len(cx.meshes) != LAYERS:
        return Failure("wrong", f"{len(cx.meshes)} meshes for {LAYERS} layers")
    if not all(math.isfinite(b) and b > 0.0 for b in cx.bbox):
        return Failure("wrong", f"bounding box {cx.bbox} is not finite and positive")
    return None


# ---------------------------------------------------------------------------
# combine: the `combine` CLI command writing an OBJ


def theta_interval(alphas) -> tuple[float, float]:
    """Closed-form bounds on the angle between creases 2 and 4: each of the
    two sector paths joining them (a2, a3 and a4, a1) bounds it by the
    spherical triangle inequalities."""
    a1, a2, a3, a4 = alphas
    lo = max(abs(a1 - a4), abs(a2 - a3))
    hi = min(a1 + a4, a2 + a3, 2 * PI - a1 - a4, 2 * PI - a2 - a3)
    return lo, hi


def _combine_draw(rng):
    """Vertices as in `duality`; a vertex whose closed-form interval is
    empty admits no theta request and is drawn again. theta is uniform on
    the interval's inner 90 %."""
    out = []
    while len(out) < BLOCK:
        for a in _random_vertices(rng, BLOCK):
            lo, hi = theta_interval(a)
            if lo < hi:
                out.append((tuple(map(float, a)), lo, hi))
    out = out[:BLOCK]
    u = rng.uniform(0.05, 0.95, size=BLOCK)
    variant = rng.choice(("parallel", "rotated"), size=BLOCK)
    return [
        (a, float(lo + f * (hi - lo)), str(var))
        for (a, lo, hi), f, var in zip(out, u, variant)
    ]


def _combine_setup(scratch):
    return os.path.join(scratch, "combine.obj")


def _combine_op(path, inp):
    alphas, theta, variant = inp
    argv = [
        "combine",
        "--alphas", ",".join(repr(a) for a in alphas),
        "--theta", repr(theta),
        "--variant", variant,
        "--output", path,
    ]
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, path, err.getvalue().strip()


def read_obj(path: str) -> tuple[np.ndarray, list[list[int]]]:
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:]])
            elif line.startswith("f "):
                faces.append([int(x) - 1 for x in line.split()[1:]])
    return np.array(verts, dtype=float), faces


def _combine_check(inp, out) -> Failure | None:
    _alphas, theta, _variant = inp
    code, path, err = out
    if code != 0:
        return Failure("error", f"exit {code}: {err.splitlines()[-1] if err else ''}")
    try:
        verts, faces = read_obj(path)
        # base plates are faces 1..4, each (apex, crease ray tip, arc...)
        r2, r4 = verts[faces[1][1]], verts[faces[3][1]]
    except (OSError, ValueError, IndexError) as exc:
        return Failure("wrong", f"OBJ not readable: {exc}")
    got = math.atan2(float(np.linalg.norm(np.cross(r2, r4))), float(np.dot(r2, r4)))
    if not abs(got - theta) <= 1e-8:
        return Failure("wrong", f"crease-(2,4) angle {got!r} differs from theta {theta!r}")
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "duality",
            "verify_duality on criterion 1's random vertices: kinematics range "
            "finding and candidate certification plus closure residuals; no "
            "tessellation, embedding or cli",
            _duality_draw, lambda _scratch: None, _duality_op, _duality_check,
        ),
        Workload(
            "stack",
            "3-layer stack_complex of one prebuilt 12x12 square-twist sheet: "
            "tessellation propagation and placement, FoldedMesh validation, "
            "closure certificates; no kinematics",
            _stack_draw, _stack_setup, _stack_op, _stack_check,
        ),
        Workload(
            "combine",
            "the combine CLI command at a realizable theta: kinematics theta "
            "bisection and coarse traces, embedding synchronize and weld, cli "
            "parse and OBJ write",
            _combine_draw, _combine_setup, _combine_op, _combine_check,
        ),
    )
}
