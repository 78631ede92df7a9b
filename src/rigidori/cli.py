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

import numpy as np

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
    text = json.dumps({"meta": _meta(args), **payload}, indent=2, sort_keys=False)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_text(lines: list[str], args) -> None:
    body = "\n".join(lines) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _csv_header(args) -> str:
    return f"# rigidori {__version__} config={json.dumps(_meta(args)['config'], sort_keys=True)}"


def _g(x: float) -> str:
    return f"{x:.17g}"


def write_obj(mesh: FoldedMesh, path: str, args=None) -> None:
    """Wavefront OBJ: `v x y z` then 1-based `f i j ...` lines, vertices
    printed to 17 significant digits, deterministic construction order.
    Non-manifold edge sharing is inherent in the indexing."""
    head = _csv_header(args) + "\n" if args is not None else ""
    coords = ("v %.17g %.17g %.17g\n" * len(mesh.vertices)) % tuple(mesh.vertices.ravel().tolist())
    faces = "".join("f " + " ".join([str(i + 1) for i in f]) + "\n" for f in mesh.faces)
    with open(path, "w") as fh:
        fh.write(head + coords + faces)


def _parse_vertex(args, parser) -> Vertex4:
    if getattr(args, "alphas", None) and getattr(args, "vertex_json", None):
        parser.error("give exactly one of --alphas or --vertex-json")
    if getattr(args, "vertex_json", None):
        with open(args.vertex_json) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise InputError(f"--vertex-json {args.vertex_json} is not valid JSON: {exc}") from None
        return vertex_from_dict(data)
    if not getattr(args, "alphas", None):
        parser.error("a vertex is required: --alphas a1,a2,a3,a4 or --vertex-json path")
    parts = _floats(args.alphas, "--alphas", parser)
    if args.degrees:
        parts = [math.radians(x) for x in parts]
    return Vertex4(parts)


def _floats(text: str, option: str, parser) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        parser.error(f"{option} takes comma-separated numbers, got {text!r}")


def _angle(args, value: float) -> float:
    return math.radians(value) if args.degrees else value


def _angle_or(args, value, default_radians: float) -> float:
    """User-supplied angles honor --degrees; unset options fall back to a
    radian default untouched by the flag."""
    if value is None:
        return default_radians
    return _angle(args, value)


def _tol(args) -> Tolerances:
    return Tolerances(
        angle_eps=args.angle_eps,
        residual_tol=args.residual_tol,
        solver_tol=args.solver_tol,
        trace_step_max=args.step_max,
    )


def _state_dict(s: FoldState) -> dict:
    return {"rhos": list(s.rhos)}


# ---------------------------------------------------------------------------
# subcommand implementations


def _samples_at_least_2(args, parser) -> None:
    if args.samples < 2:
        parser.error("--samples must be at least 2")


def _cmd_classify(args, parser):
    v = _parse_vertex(args, parser)
    c = classify(v, _tol(args))
    _emit_json({"curvature": c.curvature.value, "flat_foldable": c.flat_foldable}, args)


def _cmd_dual(args, parser):
    v = _parse_vertex(args, parser)
    d = dual(v)
    alphas = [math.degrees(a) for a in d.alphas] if args.degrees else list(d.alphas)
    units = "degrees" if args.degrees else "radians"
    _emit_json({"alphas": alphas, "units": units}, args)


def _cmd_modes(args, parser):
    _samples_at_least_2(args, parser)
    v = _parse_vertex(args, parser)
    n = args.samples
    tol = _tol(args)
    k = mode_constants(v.alphas[0], v.alphas[1], tol)
    curves = {}
    for mode in (MODE_1, MODE_2):
        rows = []
        for i in range(n):
            drv = -math.pi + 2.0 * math.pi * i / (n - 1)
            s = fold_mode(v, mode, drv, tol)
            rows.append(list(s.rhos))
        curves[f"mode{mode}"] = rows
    _emit_json({"k1": k.k1, "k2": k.k2, "curves": curves}, args)


def _cmd_solve(args, parser):
    v = _parse_vertex(args, parser)
    s = solve_state(v, args.driver_index, _angle(args, args.driver), _BRANCHES[args.branch], _tol(args))
    _emit_json(
        {**_state_dict(s), "residual": closure_residual(v, s)},
        args,
    )


def _cmd_oracle(args, parser):
    v = _parse_vertex(args, parser)
    guess = FoldState([_angle(args, x) for x in _floats(args.guess, "--guess", parser)])
    rep = oracle_solve(v, args.driver_index, _angle(args, args.driver), guess, _tol(args))
    _emit_json(
        {
            **_state_dict(rep.state),
            "residual": rep.residual,
            "converged": rep.converged,
            "iterations": rep.iterations,
        },
        args,
    )


def _cmd_range(args, parser):
    v = _parse_vertex(args, parser)
    rng = folding_range(v, args.driver_index, _BRANCHES[args.branch], _tol(args))
    _emit_json(
        {
            "intervals": [list(iv) for iv in rng.intervals],
            "endpoint_causes": [list(c) for c in rng.endpoint_causes],
            "diagnostic": rng.diagnostic,
        },
        args,
    )


def _cmd_trace(args, parser):
    _samples_at_least_2(args, parser)
    v = _parse_vertex(args, parser)
    curve = trace_curve(v, args.driver_index, _BRANCHES[args.branch], args.samples, _tol(args))
    lines = [_csv_header(args), "driver_index,branch,rho1,rho2,rho3,rho4,residual"]
    for rhos, r in zip(curve.rhos, curve.residuals):
        lines.append(f"{curve.driver_index},{args.branch}," + ",".join(map(_g, rhos)) + f",{_g(r)}")
    _emit_text(lines, args)


def _finite_or_none(x: float) -> float | None:
    """Strict JSON has no Infinity or NaN; a non-finite value is null."""
    return x if math.isfinite(x) else None


def _cmd_verify_duality(args, parser):
    _samples_at_least_2(args, parser)
    v = _parse_vertex(args, parser)
    rep = verify_duality(v, args.driver_index, args.samples, _tol(args))
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


def _cmd_combine(args, parser):
    if not args.output:
        parser.error("combine writes an OBJ file: --output is required")
    if not 0 < args.radius < math.inf:
        parser.error("--radius must be positive and finite")
    if args.arc_segments < 1:
        parser.error("--arc-segments must be at least 1")
    v = _parse_vertex(args, parser)
    cv = synchronize(v, args.variant, _angle(args, args.theta), _MERGE_PAIRS[args.merge_pair], tol=_tol(args))
    write_obj(combined_mesh(cv, args.radius, args.arc_segments), args.output, args)


def _cmd_split(args, parser):
    v = _parse_vertex(args, parser)
    cv = synchronize(v, "rotated", _angle(args, args.theta), _MERGE_PAIRS[args.merge_pair], tol=_tol(args))
    v1, v2 = split_combined(cv)
    _emit_json({"v1": vertex_to_dict(v1), "v2": vertex_to_dict(v2)}, args)


def _frames(args, parser) -> list[tuple[str, float]]:
    """(output path, driver angle) of each OBJ a sheet or stack command
    writes: one file at --rho, or a numbered sweep with --frames."""
    if not args.output:
        parser.error(f"{args.command} writes OBJ files: --output is required")
    if args.frames is None:
        return [(args.output, _angle_or(args, args.rho, math.pi / 3))]
    if args.frames < 1:
        parser.error("--frames must be at least 1")
    lo = _angle_or(args, args.rho_min, 0.05 * math.pi)
    hi = _angle_or(args, args.rho_max, 0.95 * math.pi)
    stem, ext = os.path.splitext(args.output)
    return [
        (f"{stem}_{k:03d}{ext or '.obj'}", lo + (hi - lo) * k / max(args.frames - 1, 1))
        for k in range(args.frames)
    ]


def _sheet(args, parser, tol: Tolerances):
    """The square-twist sheet of --rows, --cols and --pleat-length."""
    v = _parse_vertex(args, parser)
    if args.rows < 1 or args.cols < 1:
        parser.error("--rows and --cols must be at least 1")
    if not 0 < args.pleat_length < math.inf:
        parser.error("--pleat-length must be positive and finite")
    return build_square_twist_sheet(v, args.rows, args.cols, args.pleat_length, tol)


def _cmd_sheet(args, parser):
    frames = _frames(args, parser)
    tol = _tol(args)
    sheet = _sheet(args, parser, tol)
    for path, rho in frames:
        write_obj(fold_sheet(sheet, rho, tol), path, args)


def _cmd_stack(args, parser):
    frames = _frames(args, parser)
    if args.layers < 1:
        parser.error("--layers must be at least 1")
    tol = _tol(args)
    sheet = _sheet(args, parser, tol)
    for path, rho in frames:
        cx = stack_complex(sheet, args.layers, rho, args.variant, tol)
        offsets = np.cumsum([0] + [len(m.vertices) for m in cx.meshes]).tolist()
        faces = tuple(tuple(i + o for i in f) for m, o in zip(cx.meshes, offsets) for f in m.faces)
        write_obj(FoldedMesh(np.concatenate([m.vertices for m in cx.meshes]), faces), path, args)


def _cmd_auxetic(args, parser):
    if args.layers < 1:
        parser.error("--layers must be at least 1")
    if args.samples < 3:
        parser.error("--samples must be at least 3")
    tol = _tol(args)
    rep = auxetic_sweep(
        _sheet(args, parser, tol),
        args.layers,
        _angle_or(args, args.rho_min, 0.05 * math.pi),
        _angle_or(args, args.rho_max, 0.95 * math.pi),
        args.samples,
        tol,
        args.variant,
    )
    lines = [_csv_header(args), "rho,bbox_x,bbox_y,bbox_z,regime"]
    for k, (rho, bx, by, bz) in enumerate(rep.samples):
        regime = rep.regimes[k] if k < len(rep.regimes) else ""
        lines.append(f"{_g(rho)},{_g(bx)},{_g(by)},{_g(bz)},{regime}")
    _emit_text(lines, args)


# ---------------------------------------------------------------------------
# parser


def _add_vertex_opts(p):
    p.add_argument("--alphas", help="four sector angles, comma separated")
    p.add_argument("--vertex-json", help="path to a vertex JSON file")
    p.add_argument("--degrees", action="store_true", help="inputs are degrees")


def _add_tol_opts(p):
    p.add_argument("--angle-eps", type=float, default=DEFAULT_TOL.angle_eps)
    p.add_argument("--residual-tol", type=float, default=DEFAULT_TOL.residual_tol)
    p.add_argument("--solver-tol", type=float, default=DEFAULT_TOL.solver_tol)
    p.add_argument("--step-max", type=float, default=DEFAULT_TOL.trace_step_max)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidori",
        description="Degree-4 rigid origami vertex kinematics, duality, and constructions",
    )
    parser.add_argument("--version", action="version", version=f"rigidori {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        _add_vertex_opts(p)
        _add_tol_opts(p)
        p.add_argument("--output", help="output path (default: stdout for text)")
        p.set_defaults(func=func)
        return p

    new("classify", _cmd_classify, "curvature class and flat-foldability")
    new("dual", _cmd_dual, "the dual vertex (pi - alpha_i)")

    p = new("modes", _cmd_modes, "mode constants k1/k2 and closed-form mode curves")
    p.add_argument("--samples", type=int, default=41)

    p = new("solve", _cmd_solve, "single fold state on a branch")
    p.add_argument("--driver-index", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument("--driver", type=float, required=True)
    p.add_argument("--branch", choices=sorted(_BRANCHES), default="pm")

    p = new("oracle", _cmd_oracle, "closure-oracle Newton solve")
    p.add_argument("--driver-index", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument("--driver", type=float, required=True)
    p.add_argument("--guess", required=True, help="initial rho1..rho4, comma separated")

    p = new("range", _cmd_range, "feasible driver interval(s) of a branch")
    p.add_argument("--driver-index", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument("--branch", choices=sorted(_BRANCHES), default="pm")

    p = new("trace", _cmd_trace, "configuration-curve CSV")
    p.add_argument("--driver-index", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument("--branch", choices=sorted(_BRANCHES), default="pm")
    p.add_argument("--samples", type=int, default=101)

    p = new("verify-duality", _cmd_verify_duality, "trace branches of C and match C*")
    p.add_argument("--driver-index", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument("--samples", type=int, default=25)

    p = new("combine", _cmd_combine, "combined non-manifold vertex OBJ")
    p.add_argument("--variant", choices=("parallel", "rotated"), default="parallel")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--merge-pair", choices=tuple(_MERGE_PAIRS), default="24")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--arc-segments", type=int, default=8)

    p = new("split", _cmd_split, "flat-foldable split of the rotated combination")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--merge-pair", choices=tuple(_MERGE_PAIRS), default="24")

    for name, func in (("sheet", _cmd_sheet), ("stack", _cmd_stack)):
        p = new(name, func, f"folded square-twist {name} OBJ")
        p.add_argument("--rows", type=int, default=2)
        p.add_argument("--cols", type=int, default=2)
        p.add_argument("--pleat-length", type=float, default=1.0)
        p.add_argument("--rho", type=float, help="driver angle (default pi/3 rad)")
        p.add_argument("--frames", type=int, help="emit a numbered OBJ sweep")
        p.add_argument("--rho-min", type=float, help="sweep start (default 0.05*pi rad)")
        p.add_argument("--rho-max", type=float, help="sweep end (default 0.95*pi rad)")
        if name == "stack":
            p.add_argument("--layers", type=int, default=2)
            p.add_argument("--variant", choices=("parallel", "rotated"), default="parallel")

    p = new("auxetic", _cmd_auxetic, "bounding-box sweep CSV")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--pleat-length", type=float, default=1.0)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--variant", choices=("parallel", "rotated"), default="parallel")
    p.add_argument("--rho-min", type=float, help="sweep start (default 0.05*pi rad)")
    p.add_argument("--rho-max", type=float, help="sweep end (default 0.95*pi rad)")
    p.add_argument("--samples", type=int, default=21)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, parser)
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
