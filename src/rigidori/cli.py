"""Command-line interface and file formats.

Data goes to stdout or to --output files, errors to stderr. Exit codes:
0 success, 1 domain error, 2 usage error. Angles are radians in every
file; the --degrees flag converts inputs (and angle outputs of `dual`)
at the boundary only. Every emitted JSON/CSV carries the tool version
and the fully resolved configuration for reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .closure import closure_residual, oracle_solve
from .embedding import FoldedMesh, combined_mesh, split_combined, synchronize
from .errors import InputError, RigidOriError
from .flatfold import MODE_1, MODE_2, fold_mode, mode_constants
from .kinematics import (
    BRANCH_MM,
    BRANCH_MP,
    BRANCH_PM,
    BRANCH_PP,
    folding_range,
    solve_state,
    trace_curve,
    verify_duality,
)
from .numerics import DEFAULT_TOL, Tolerances
from .tessellation import (
    auxetic_sweep,
    build_square_twist_sheet,
    fold_sheet,
    stack_complex,
)
from .vertex import FoldState, Vertex4, classify, dual, vertex_from_dict, vertex_to_dict

_BRANCHES = {"pp": BRANCH_PP, "pm": BRANCH_PM, "mp": BRANCH_MP, "mm": BRANCH_MM}
_BRANCH_NAMES = {branch: name for name, branch in _BRANCHES.items()}
_MERGE_PAIRS = {"24": (2, 4), "13": (1, 3)}


def _meta(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {"tool": "rigidori", "version": __version__, "config": config}


def _emit_json(payload: dict, args) -> None:
    _emit_text([json.dumps({"meta": _meta(args), **payload}, indent=2, sort_keys=False)], args)


def _emit_text(lines: list[str], args) -> None:
    body = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _csv_header(args) -> str:
    return f"# rigidori {__version__} config={json.dumps(_meta(args)['config'], sort_keys=True)}"


def _g(x: float) -> str:
    return f"{x:.17g}"


def write_obj(meshes: tuple[FoldedMesh, ...], path: str, args=None) -> None:
    """Wavefront OBJ of the meshes in order, indices offset by the vertices
    before each: `v x y z` to 17 significant digits, then 1-based `f i j ...`
    lines. Deterministic; non-manifold edge sharing is in the indexing."""
    head = _csv_header(args) + "\n" if args is not None else ""
    coords, faces, start = [], [], 1
    for m in meshes:
        coords.append(("v %.17g %.17g %.17g\n" * len(m.vertices)) % tuple(m.vertices.ravel().tolist()))
        faces += ["f " + " ".join([str(i + start) for i in f]) + "\n" for f in m.faces]
        start += len(m.vertices)
    with open(path, "w") as fh:
        fh.write(head + "".join(coords) + "".join(faces))


def _parse_vertex(args) -> Vertex4:
    if args.alphas is None:
        with open(args.vertex_json) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise InputError(f"--vertex-json {args.vertex_json} is not valid JSON: {exc}") from None
        return vertex_from_dict(data)
    parts = _floats(args.alphas)
    if args.degrees:
        parts = [math.radians(x) for x in parts]
    return Vertex4(parts)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _angle(args, value: float) -> float:
    return math.radians(value) if args.degrees else value


def _angle_or(args, value, default_radians: float) -> float:
    """User-supplied angles honor --degrees; unset options fall back to a
    radian default untouched by the flag."""
    if value is None:
        return default_radians
    return _angle(args, value)


def _state_dict(s: FoldState) -> dict:
    return {"rhos": list(s.rhos)}


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_classify(args):
    c = classify(_parse_vertex(args))
    _emit_json({"curvature": c.curvature.value, "flat_foldable": c.flat_foldable}, args)


def _cmd_dual(args):
    d = dual(_parse_vertex(args))
    alphas = [math.degrees(a) for a in d.alphas] if args.degrees else list(d.alphas)
    units = "degrees" if args.degrees else "radians"
    _emit_json({"alphas": alphas, "units": units}, args)


def _cmd_modes(args):
    v = _parse_vertex(args)
    n = args.samples
    k = mode_constants(v.alphas[0], v.alphas[1])
    curves = {}
    for mode in (MODE_1, MODE_2):
        rows = []
        for i in range(n):
            drv = -math.pi + 2.0 * math.pi * i / (n - 1)
            s = fold_mode(v, mode, drv)
            rows.append(list(s.rhos))
        curves[f"mode{mode}"] = rows
    _emit_json({"k1": k.k1, "k2": k.k2, "curves": curves}, args)


def _cmd_solve(args):
    v = _parse_vertex(args)
    s = solve_state(v, args.driver_index, _angle(args, args.driver), _BRANCHES[args.branch])
    _emit_json(
        {**_state_dict(s), "residual": closure_residual(v, s)},
        args,
    )


def _cmd_oracle(args):
    v = _parse_vertex(args)
    guess = FoldState([_angle(args, x) for x in _floats(args.guess)])
    rep = oracle_solve(v, args.driver_index, _angle(args, args.driver), guess)
    _emit_json(
        {
            **_state_dict(rep.state),
            "residual": rep.residual,
            "converged": rep.converged,
            "iterations": rep.iterations,
        },
        args,
    )


def _cmd_range(args):
    rng = folding_range(_parse_vertex(args), args.driver_index, _BRANCHES[args.branch])
    _emit_json(
        {
            "intervals": [list(iv) for iv in rng.intervals],
            "endpoint_causes": [list(c) for c in rng.endpoint_causes],
            "diagnostic": rng.diagnostic,
        },
        args,
    )


def _cmd_trace(args):
    curve = trace_curve(_parse_vertex(args), args.driver_index, _BRANCHES[args.branch], args.samples,
                        Tolerances(trace_step_max=args.step_max))
    lines = [_csv_header(args), "driver_index,branch,rho1,rho2,rho3,rho4,residual"]
    for rhos, r in zip(curve.rhos, curve.residuals):
        lines.append(f"{curve.driver_index},{args.branch}," + ",".join(map(_g, rhos)) + f",{_g(r)}")
    _emit_text(lines, args)


def _finite_or_none(x: float) -> float | None:
    """Strict JSON has no Infinity or NaN; a non-finite value is null."""
    return x if math.isfinite(x) else None


def _cmd_verify_duality(args):
    rep = verify_duality(_parse_vertex(args), args.driver_index, args.samples,
                         Tolerances(trace_step_max=args.step_max))
    _emit_json(
        {
            "branches": [
                {
                    "branch": _BRANCH_NAMES[b.branch],
                    "n_samples": b.n_samples,
                    "max_abs_rho_mismatch": _finite_or_none(b.max_abs_rho_mismatch),
                    "sign_pattern_ok": b.sign_pattern_ok,
                }
                for b in rep.branches
            ],
            "max_abs_rho_mismatch": _finite_or_none(rep.max_abs_rho_mismatch),
            "sign_pattern_ok": rep.sign_pattern_ok,
        },
        args,
    )
    if not rep.branches:
        raise RigidOriError("duality not verified: no branch of the vertex could be traced")
    if not math.isfinite(rep.max_abs_rho_mismatch):
        raise RigidOriError("duality not verified: a dual state failed closure certification")
    if not rep.sign_pattern_ok:
        raise RigidOriError("duality not verified: a dual state is not one-pair-flipped")


def _cmd_combine(args):
    cv = synchronize(_parse_vertex(args), args.variant, _angle(args, args.theta), _MERGE_PAIRS[args.merge_pair])
    write_obj((combined_mesh(cv, args.radius, args.arc_segments),), args.output, args)


def _cmd_split(args):
    cv = synchronize(_parse_vertex(args), "rotated", _angle(args, args.theta), _MERGE_PAIRS[args.merge_pair])
    v1, v2 = split_combined(cv)
    _emit_json({"v1": vertex_to_dict(v1), "v2": vertex_to_dict(v2)}, args)


def _frames(args) -> list[tuple[str, float]]:
    """(output path, driver angle) of each OBJ a sheet or stack command
    writes: one file at --rho, or a numbered sweep with --frames."""
    if args.frames is None:
        return [(args.output, _angle_or(args, args.rho, math.pi / 3))]
    lo = _angle_or(args, args.rho_min, 0.05 * math.pi)
    hi = _angle_or(args, args.rho_max, 0.95 * math.pi)
    stem, ext = os.path.splitext(args.output)
    return [
        (f"{stem}_{k:03d}{ext or '.obj'}", lo + (hi - lo) * k / max(args.frames - 1, 1))
        for k in range(args.frames)
    ]


def _sheet(args):
    """The square-twist sheet of --rows, --cols and --pleat-length."""
    return build_square_twist_sheet(_parse_vertex(args), args.rows, args.cols, args.pleat_length)


def _cmd_sheet(args):
    sheet = _sheet(args)
    for path, rho in _frames(args):
        write_obj((fold_sheet(sheet, rho),), path, args)


def _cmd_stack(args):
    sheet = _sheet(args)
    for path, rho in _frames(args):
        write_obj(stack_complex(sheet, args.layers, rho, args.variant).meshes, path, args)


def _cmd_auxetic(args):
    rep = auxetic_sweep(
        _sheet(args),
        args.layers,
        _angle_or(args, args.rho_min, 0.05 * math.pi),
        _angle_or(args, args.rho_max, 0.95 * math.pi),
        args.samples,
        args.variant,
    )
    lines = [_csv_header(args), "rho,bbox_x,bbox_y,bbox_z,regime"]
    for k, (rho, bx, by, bz) in enumerate(rep.samples):
        regime = rep.regimes[k] if k < len(rep.regimes) else ""
        lines.append(f"{_g(rho)},{_g(bx)},{_g(by)},{_g(bz)},{regime}")
    _emit_text(lines, args)


# ---------------------------------------------------------------------------
# parser: every usage rule is declared on its option, so a usage error
# exits 2 at parse time, before any file is read or any solve runs


def _numbers(text: str) -> str:
    """Comma-separated numbers, kept as text so the config records them as given."""
    try:
        _floats(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"takes comma-separated numbers, got {text!r}") from None
    return text


def _count(low: int, high: float = math.inf):
    def value(text: str) -> int:
        n = int(text)
        if not low <= n <= high:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {n}" if n < low else f"must be at most {high}, got {n}")
        return n

    value.__name__ = "int"  # argparse names it in "invalid int value"
    return value


def _positive(text: str) -> float:
    x = float(text)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return x


_positive.__name__ = "float"  # as in _count

# size ceilings from one memory budget: sheet, stack and auxetic peak at about 4.5 KiB per cell and
# layer, so 16 layers of 120 x 120 cells fit; frames are written one at a time, and stop at 3 digits
_MEMORY_BUDGET, _MAX_LAYERS, _MAX_FRAMES = 2**30, 16, 1000
_MAX_SIDE = math.isqrt(_MEMORY_BUDGET // (4608 * _MAX_LAYERS))  # 120


# options shared by subcommands, as (flag, add_argument keywords)
_DRIVER_INDEX = (("--driver-index", dict(type=int, default=1, choices=(1, 2, 3, 4))),)
_BRANCH = (("--branch", dict(choices=sorted(_BRANCHES), default="pm")),)
_STEP = (("--step-max", dict(type=float, default=DEFAULT_TOL.trace_step_max,
                             help="largest driver step of a trace (rad, at most 0.05)")),)
_THETA = (("--theta", dict(type=float, required=True)),
          ("--merge-pair", dict(choices=tuple(_MERGE_PAIRS), default="24")))
_VARIANT = (("--variant", dict(choices=("parallel", "rotated"), default="parallel")),)
_SHEET = (("--rows", dict(type=_count(1, _MAX_SIDE), default=2)),
          ("--cols", dict(type=_count(1, _MAX_SIDE), default=2)),
          ("--pleat-length", dict(type=_positive, default=1.0)),
          ("--rho-min", dict(type=float, help="sweep start (default 0.05*pi rad)")),
          ("--rho-max", dict(type=float, help="sweep end (default 0.95*pi rad)")))
_FRAMES = (("--rho", dict(type=float, help="driver angle (default pi/3 rad)")),
           ("--frames", dict(type=_count(1, _MAX_FRAMES), help="emit a numbered OBJ sweep")))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidori",
        description="Degree-4 rigid origami vertex kinematics, duality, and constructions",
    )
    parser.add_argument("--version", action="version", version=f"rigidori {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, func, helptext, *groups, writes_obj=False):
        p = sub.add_parser(name, help=helptext)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--alphas", type=_numbers, help="four sector angles, comma separated")
        source.add_argument("--vertex-json", help="path to a vertex JSON file")
        p.add_argument("--degrees", action="store_true", help="inputs are degrees")
        p.add_argument("--output", required=writes_obj, help="output path (default: stdout for text)")
        for group in groups:
            for flag, spec in group:
                p.add_argument(flag, **spec)
        p.set_defaults(func=func)
        return p

    new("classify", _cmd_classify, "curvature class and flat-foldability")
    new("dual", _cmd_dual, "the dual vertex (pi - alpha_i)")

    p = new("modes", _cmd_modes, "mode constants k1/k2 and closed-form mode curves")
    p.add_argument("--samples", type=_count(2), default=41)

    p = new("solve", _cmd_solve, "single fold state on a branch", _DRIVER_INDEX, _BRANCH)
    p.add_argument("--driver", type=float, required=True)

    p = new("oracle", _cmd_oracle, "closure-oracle Newton solve", _DRIVER_INDEX)
    p.add_argument("--driver", type=float, required=True)
    p.add_argument("--guess", type=_numbers, required=True, help="initial rho1..rho4, comma separated")

    new("range", _cmd_range, "feasible driver interval(s) of a branch", _DRIVER_INDEX, _BRANCH)

    p = new("trace", _cmd_trace, "configuration-curve CSV", _DRIVER_INDEX, _BRANCH, _STEP)
    p.add_argument("--samples", type=_count(2), default=101)

    p = new("verify-duality", _cmd_verify_duality, "trace branches of C and match C*",
            _DRIVER_INDEX, _STEP)
    p.add_argument("--samples", type=_count(2), default=25)

    p = new("combine", _cmd_combine, "combined non-manifold vertex OBJ", _VARIANT, _THETA,
            writes_obj=True)
    p.add_argument("--radius", type=_positive, default=1.0)
    p.add_argument("--arc-segments", type=_count(1), default=8)

    new("split", _cmd_split, "flat-foldable split of the rotated combination", _THETA)

    new("sheet", _cmd_sheet, "folded square-twist sheet OBJ", _SHEET, _FRAMES, writes_obj=True)
    p = new("stack", _cmd_stack, "folded square-twist stack OBJ", _SHEET, _FRAMES, _VARIANT,
            writes_obj=True)
    p.add_argument("--layers", type=_count(1, _MAX_LAYERS), default=2)

    p = new("auxetic", _cmd_auxetic, "bounding-box sweep CSV", _SHEET, _VARIANT)
    p.add_argument("--layers", type=_count(1, _MAX_LAYERS), default=3)
    p.add_argument("--samples", type=_count(3), default=21)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except RigidOriError as exc:
        print(f"rigidori: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rigidori: i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
