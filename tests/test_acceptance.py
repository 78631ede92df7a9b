"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. Random sampling is seeded, so runs are reproducible.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from rigidori.closure import closure_residual, oracle_solve
from rigidori.embedding import (
    achievable_theta_interval,
    combined_mesh,
    junction_dihedrals,
    split_combined,
    synchronize,
)
from rigidori.errors import InfeasibleDriverError, NoRealFoldError, TraceAbortError
from rigidori.flatfold import MODE_1, MODE_2, fold_mode, mode_constants
from rigidori.kinematics import (
    BRANCH_PP,
    MODE1_BRANCH,
    MODE2_BRANCH,
    VertexKinematics,
    adjacent_origin_slopes,
    dual_state,
    solve_state,
    trace_curve,
    verify_duality,
)
from rigidori.numerics import Tolerances
from rigidori.tessellation import (
    REGIME_2C1E,
    REGIME_3C,
    auxetic_sweep,
    build_square_twist_sheet,
    stack_complex,
)
from rigidori.tessellation import _fold
from rigidori.vertex import Curvature, FoldState, Vertex4, classify, cyclically_equal, dual

PI = math.pi
SQ_TWIST = Vertex4((PI / 4, PI / 2, 3 * PI / 4, PI / 2))
FIG6 = Vertex4((PI / 4, PI / 2, PI / 4, PI / 2))
FAST = Tolerances(trace_step_max=0.05)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_vertices(n: int, seed: int = 20240817):
    rng = np.random.default_rng(seed)
    return [Vertex4(rng.uniform(0.2, PI - 0.2, size=4)) for _ in range(n)]


def random_ff_vertices(n: int, seed: int = 31415):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b = rng.uniform(0.2, PI - 0.2, size=2)
        out.append(Vertex4((a, b, PI - a, PI - b)))
    return out


def test_criterion_1_duality_of_configuration_spaces():
    t0 = time.time()
    vertices = random_vertices(100)
    classes = {classify(v).curvature for v in vertices}
    assert Curvature.ELLIPTIC in classes and Curvature.HYPERBOLIC in classes
    worst = 0.0
    signs_ok = True
    traced = 0
    for v in vertices:
        rep = verify_duality(v, driver_index=1, n_samples=9, tol=FAST)
        traced += rep.n_branches
        if rep.n_branches:
            worst = max(worst, rep.max_abs_rho_mismatch)
            signs_ok = signs_ok and rep.sign_pattern_ok
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-6 and signs_ok and traced > 0 and elapsed < 120.0,
        f"{traced} branch curves over 100 vertices, max |rho| mismatch "
        f"{worst:.2e} (< 1e-6), sign pattern one-pair-flipped, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_oracle_certification():
    bad = 0
    total = 0
    worst = 0.0

    def check(v, s):
        nonlocal bad, total, worst
        r = closure_residual(v, s)
        total += 1
        worst = max(worst, r)
        if not r < 1e-9:
            bad += 1

    rng = np.random.default_rng(5)
    # closed-form mode states
    for v in random_ff_vertices(40, seed=7):
        for mode in (MODE_1, MODE_2):
            for drv in rng.uniform(-3.1, 3.1, size=5):
                check(v, fold_mode(v, mode, drv))
    # general-solver states and traces across curvature classes
    for v in [SQ_TWIST, FIG6, dual(FIG6)] + random_vertices(10, seed=8):
        kin = VertexKinematics(v, FAST)
        for branch in (BRANCH_PP, MODE1_BRANCH):
            try:
                curve = kin.trace_curve(1, branch, 9)
            except (InfeasibleDriverError, TraceAbortError):
                continue
            for s in curve.samples:
                check(v, s)
    # synchronized combined-vertex states
    lo, hi = achievable_theta_interval(FIG6, (2, 4))
    for k in range(5):
        cv = synchronize(FIG6, "parallel", lo + (hi - lo) * (k + 0.5) / 6)
        check(cv.base, cv.base_state)
        check(cv.dual_vertex, cv.dual_state)
    # tessellation vertex states
    sheet = build_square_twist_sheet(SQ_TWIST, 2, 2)
    for rho in (0.4, 1.2, 2.2):
        fs = _fold(sheet, rho)
        angles = dict(zip(sheet.creases, fs.rho.tolist()))
        for rec in sheet.vertices.values():
            rhos = tuple(angles[key] for key in rec.creases)
            check(sheet.generator, FoldState(rhos))
    report(
        2,
        bad == 0 and total > 500,
        f"{total} analytic states certified, worst residual {worst:.2e} (< 1e-9), "
        f"{bad} exceptions",
    )


def test_criterion_3_reduction_to_closed_form_modes():
    worst = 0.0
    for v in random_ff_vertices(100):
        k = mode_constants(v.alphas[0], v.alphas[1])
        c1 = trace_curve(v, 1, MODE1_BRANCH, 25, FAST)
        for s in c1.samples:
            t = s.half_tangents()
            if math.isinf(t[0]) or math.isinf(t[1]):
                continue
            worst = max(worst, abs(t[1] + k.k1 * t[0]))
        c2 = trace_curve(v, 2, MODE2_BRANCH, 25, FAST)
        for s in c2.samples:
            t = s.half_tangents()
            if math.isinf(t[0]) or math.isinf(t[1]):
                continue
            worst = max(worst, abs(t[0] - k.k2 * t[1]))
    report(
        3,
        worst < 1e-9,
        f"100 random flat-foldable vertices, general-solver traces obey "
        f"t2 = -k1 t1 / t1 = k2 t2 to {worst:.2e} (< 1e-9)",
    )


def test_criterion_4_adjacent_equation_correction():
    v = Vertex4((PI / 3, PI / 2, 2 * PI / 3, PI / 2))
    expected = sorted((-(2 - math.sqrt(3)), -1.0 / (2 - math.sqrt(3))))
    got = adjacent_origin_slopes(v, 1, corrected=True)
    err_corr = max(abs(a - b) for a, b in zip(got, expected))
    bad = adjacent_origin_slopes(v, 1, corrected=False)
    err_printed = min(abs(b - e) for b in bad for e in expected)
    print(
        f"    corrected-form slopes {got[0]:.12f}, {got[1]:.12f} "
        f"(expected {expected[0]:.12f}, {expected[1]:.12f}); "
        f"as-printed slopes {bad[0]:.6f}, {bad[1]:.6f} deviate by >= {err_printed:.3f}"
    )
    report(
        4,
        err_corr < 1e-9 and err_printed > 0.1,
        f"corrected slopes match modes to {err_corr:.2e} (< 1e-9); "
        f"as-printed variant off by {err_printed:.3f} (> 0.1)",
    )


def test_criterion_5_elliptic_worked_example():
    s = solve_state(FIG6, 3, PI / 2, BRANCH_PP)
    err1 = abs(abs(s.rhos[0]) - PI / 2)
    cands = VertexKinematics(FIG6).certified_candidates(3, 0.0)
    assert cands
    err2 = max(
        max(abs(abs(c.rhos[1]) - PI), abs(abs(c.rhos[3]) - PI)) for c in cands
    )
    resid = max(closure_residual(FIG6, c) for c in cands)
    report(
        5,
        err1 < 1e-9 and err2 < 1e-6 and resid < 1e-9,
        f"driver rho3=pi/2 gives |rho1| = pi/2 (err {err1:.2e} < 1e-9); at rho3=0 "
        f"|rho2| = |rho4| = pi (err {err2:.2e} < 1e-6, residual {resid:.2e})",
    )


def test_criterion_6_self_duality():
    ok = all(cyclically_equal(v, dual(v), 1e-12) for v in random_ff_vertices(100, seed=99))
    report(6, ok, "100 random Euclidean flat-foldable vertices: dual(C) "
                  "cyclically equal to C within 1e-12")


def test_criterion_7_half_plane_property():
    lo, hi = achievable_theta_interval(FIG6, (2, 4))
    worst = 0.0
    for k in range(50):
        theta = lo + (hi - lo) * (k + 0.5) / 51
        cv = synchronize(FIG6, "parallel", theta)
        worst = max(worst, max(abs(d - PI) for d in junction_dihedrals(cv)))
    report(
        7,
        worst < 1e-8,
        f"parallel combination of the elliptic example: 50-sample theta sweep, "
        f"worst |dihedral - pi| = {worst:.2e} (< 1e-8)",
    )


def test_criterion_8_v1_v2_split():
    lo, hi = achievable_theta_interval(FIG6, (2, 4))
    cv = synchronize(FIG6, "rotated", 0.5 * (lo + hi))
    v1, v2 = split_combined(cv)
    expect = (PI / 4, PI / 2, 3 * PI / 4, PI / 2)
    match = max(
        max(abs(a - b) for a, b in zip(v1.alphas, expect)),
        max(abs(a - b) for a, b in zip(v2.alphas, expect)),
    )
    kaw = max(abs(v1.kawasaki_defect()), abs(v2.kawasaki_defect()))
    report(
        8,
        match < 1e-12 and kaw == 0.0,
        f"split gives (pi/4, pi/2, 3pi/4, pi/2) twice (err {match:.2e}); "
        f"alternating sums exactly zero",
    )


def test_criterion_9_auxetic_regimes():
    t0 = time.time()
    sheet = build_square_twist_sheet(SQ_TWIST, 2, 2)
    rep1 = auxetic_sweep(sheet, 3, 0.05 * PI, 0.45 * PI, 21)
    rep2 = auxetic_sweep(sheet, 3, 0.55 * PI, 0.95 * PI, 21)
    elapsed = time.time() - t0
    ok1 = all(r == REGIME_2C1E for r in rep1.regimes)
    ok2 = all(r == REGIME_3C for r in rep2.regimes)
    report(
        9,
        ok1 and ok2 and elapsed < 60.0,
        f"3-layer complex, 21 samples per window: (0.05pi, 0.45pi) all "
        f"two-contract/one-expand: {ok1}; (0.55pi, 0.95pi) all three-contract: "
        f"{ok2}; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_10_sheet_rigidity_and_gluing():
    sheet = build_square_twist_sheet(SQ_TWIST, 2, 2)
    worst_res = 0.0
    for rho in np.linspace(-0.95 * PI, 0.95 * PI, 11):
        fs = _fold(sheet, float(rho))
        worst_res = max(worst_res, float(fs.residuals.max()))
    cx = stack_complex(sheet, 2, 1.0)
    report(
        10,
        worst_res < 1e-9 and cx.glue_residual < 1e-8,
        f"2x2 sheet: worst interior-vertex closure residual {worst_res:.2e} "
        f"(< 1e-9) over 11 drivers; 2-layer gluing residual "
        f"{cx.glue_residual:.2e} (< 1e-8)",
    )
