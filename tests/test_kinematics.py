import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rigidori.closure import LoopEvaluator, closure_residual, oracle_solve
from rigidori.errors import InfeasibleDriverError, NoRealFoldError
from rigidori.flatfold import MODE_1, MODE_2, fold_mode, mode_constants
from rigidori.kinematics import (
    ALL_BRANCHES,
    BRANCH_MM,
    BRANCH_PP,
    MODE1_BRANCH,
    MODE2_BRANCH,
    VertexKinematics,
    adjacent_origin_slopes,
    adjacent_residual,
    dual_state,
    folding_range,
    opposite_t_squared,
    solve_state,
    trace_curve,
    verify_duality,
)
from rigidori.kinematics import _adjacent_coefs, _adjacent_roots, _sign_pattern_is_dual
from rigidori.numerics import Tolerances
from rigidori.vertex import FoldState, Vertex4, dual

PI = math.pi
SQ_TWIST = Vertex4((PI / 4, PI / 2, 3 * PI / 4, PI / 2))
ELLIPTIC = Vertex4((PI / 4, PI / 2, PI / 4, PI / 2))
CRIT4 = Vertex4((PI / 3, PI / 2, 2 * PI / 3, PI / 2))

FAST = Tolerances(trace_step_max=0.05)


# ---------------------------------------------------------------------------
# opposite relation


def test_opposite_euclidean_cancellation_at_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = rng.uniform(0.3, 1.4, size=3)
        d = 2 * PI - a - b - c
        if not 0.1 < d < PI - 0.1:
            continue
        v = Vertex4((a, b, c, d))
        for i in (1, 2, 3, 4):
            assert opposite_t_squared(v, i, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_opposite_elliptic_unit_value():
    assert opposite_t_squared(ELLIPTIC, 1, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_opposite_elliptic_zero_driver_state_flat_folds_other_pair():
    assert opposite_t_squared(ELLIPTIC, 1, 0.0) == pytest.approx(0.0, abs=1e-14)
    cands = VertexKinematics(ELLIPTIC).certified_candidates(3, 0.0)
    assert cands
    for s in cands:
        assert abs(abs(s.rhos[1]) - PI) < 1e-9 and abs(abs(s.rhos[3]) - PI) < 1e-9


def test_opposite_matches_oracle_states():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 12:
        v = Vertex4(rng.uniform(0.4, PI - 0.4, size=4))
        kin = VertexKinematics(v)
        try:
            cands = kin.certified_candidates(1, 0.9)
        except Exception:
            continue
        for s in cands:
            t = s.half_tangents()
            if any(math.isinf(x) for x in t):
                continue
            for i in (1, 2, 3, 4):
                got = opposite_t_squared(v, i, t[(i + 1) % 4])
                assert got == pytest.approx(t[i - 1] ** 2, abs=1e-9, rel=1e-9)
                # closure alone gates candidates; closing states also
                # satisfy every scaled adjacent relation
                ti, tj = t[i - 1], t[i % 4]
                scale = (1.0 + ti * ti) * (1.0 + tj * tj)
                assert abs(adjacent_residual(v, i, ti, tj)) <= 1e-6 * scale
            checked += 1


def test_opposite_no_real_solution_raises():
    # strongly elliptic vertex driven far: ratio goes negative somewhere
    v = Vertex4((0.4, 0.4, 0.4, 0.5))
    with pytest.raises(NoRealFoldError):
        for drv in np.linspace(0.05, 3.1, 60):
            opposite_t_squared(v, 1, math.tan(0.5 * drv))


def test_opposite_duality_invariance():
    # cos(x +- y) = cos((pi-x) +- (pi-y)) makes the relation identical for
    # the dual vertex
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = Vertex4(rng.uniform(0.3, PI - 0.3, size=4))
        vd = dual(v)
        for s in rng.uniform(-4.0, 4.0, size=6):
            for i in (1, 2, 3, 4):
                try:
                    lhs = opposite_t_squared(v, i, s)
                except NoRealFoldError:
                    with pytest.raises(NoRealFoldError):
                        opposite_t_squared(vd, i, s)
                    continue
                rhs = opposite_t_squared(vd, i, s)
                if math.isinf(lhs):
                    assert math.isinf(rhs)
                else:
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# adjacent relation


def test_adjacent_euclidean_origin_is_consistent():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b, c = rng.uniform(0.4, 1.2, size=3)
        d = 2 * PI - a - b - c
        if not 0.1 < d < PI - 0.1:
            continue
        v = Vertex4((a, b, c, d))
        for i in (1, 2, 3, 4):
            assert adjacent_residual(v, i, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_adjacent_zero_on_mode_curves():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.uniform(0.3, PI - 0.3, size=2)
        v = Vertex4((a, b, PI - a, PI - b))
        for mode in (MODE_1, MODE_2):
            s = fold_mode(v, mode, rng.uniform(-2.5, 2.5))
            t = s.half_tangents()
            for i in (1, 2, 3, 4):
                res = adjacent_residual(v, i, t[i - 1], t[i % 4])
                scale = (1 + t[i - 1] ** 2) * (1 + t[i % 4] ** 2)
                assert abs(res) < 1e-11 * scale


def test_adjacent_roots_recover_either_tangent_of_the_pair():
    # one root solver serves (i -> i+1) and, with c1 <-> c2, (i+1 -> i)
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.uniform(0.3, PI - 0.3, size=2)
        v = Vertex4((a, b, PI - a, PI - b))
        for mode in (MODE_1, MODE_2):
            t = fold_mode(v, mode, rng.uniform(-2.5, 2.5)).half_tangents()
            for i in (1, 2, 3, 4):
                ti, tj = t[i - 1], t[i % 4]
                coefs = _adjacent_coefs(v, i)
                nxt = _adjacent_roots(coefs, ti)
                prev = _adjacent_roots(coefs, tj, known_is_next=True)
                assert min(abs(x - tj) for x in nxt) < 1e-9 * max(1.0, abs(tj))
                assert min(abs(x - ti) for x in prev) < 1e-9 * max(1.0, abs(ti))


def test_origin_slopes_match_closed_form_modes():
    k = mode_constants(CRIT4.alphas[0], CRIT4.alphas[1])
    slopes = adjacent_origin_slopes(CRIT4, 1)
    expected = sorted((-k.k1, 1.0 / k.k2))
    assert slopes[0] == pytest.approx(expected[0], abs=1e-12)
    assert slopes[1] == pytest.approx(expected[1], abs=1e-12)
    # the values promised for this vertex
    assert slopes == pytest.approx(
        sorted((-(2 - math.sqrt(3)), -1 / (2 - math.sqrt(3)))), abs=1e-12
    )


def test_uncorrected_variant_fails_mode_slopes():
    good = adjacent_origin_slopes(CRIT4, 1, corrected=True)
    bad = adjacent_origin_slopes(CRIT4, 1, corrected=False)
    assert min(abs(b - g) for b in bad for g in good) > 0.1


def test_origin_slopes_reduce_to_modes_for_random_ff_vertices():
    rng = np.random.default_rng(17)
    for _ in range(30):
        a, b = rng.uniform(0.25, PI - 0.25, size=2)
        v = Vertex4((a, b, PI - a, PI - b))
        k = mode_constants(a, b)
        if abs(k.k1) < 1e-3 or abs(k.k2) < 1e-3:
            continue  # a mode line degenerates onto an axis
        slopes = adjacent_origin_slopes(v, 1)
        expected = sorted((-k.k1, 1.0 / k.k2))
        assert max(abs(x - y) for x, y in zip(slopes, expected)) < 1e-9 * max(
            1.0, abs(expected[0])
        )


def test_adjacent_duality_sign_flip():
    # the zero set of the dual's relation is the original's with one
    # tangent of the pair negated
    rng = np.random.default_rng(3)
    vd = dual(SQ_TWIST)
    for _ in range(15):
        s = fold_mode(SQ_TWIST, MODE_1, rng.uniform(-2.5, 2.5))
        t = s.half_tangents()
        for i in (1, 2, 3, 4):
            res = adjacent_residual(vd, i, t[i - 1], -t[i % 4])
            scale = (1 + t[i - 1] ** 2) * (1 + t[i % 4] ** 2)
            assert abs(res) < 1e-11 * scale


# ---------------------------------------------------------------------------
# solve_state


def test_solve_state_euclidean_zero():
    s = solve_state(SQ_TWIST, 1, 0.0, MODE1_BRANCH)
    assert s.rhos == (0.0, 0.0, 0.0, 0.0)


def test_solve_state_elliptic_example():
    s = solve_state(ELLIPTIC, 3, PI / 2, BRANCH_PP)
    assert abs(abs(s.rhos[0]) - PI / 2) < 1e-9
    assert closure_residual(ELLIPTIC, s) < 1e-9


def test_solve_state_reproduces_fold_mode():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = rng.uniform(0.3, PI - 0.3, size=2)
        v = Vertex4((a, b, PI - a, PI - b))
        drv = rng.uniform(-2.9, 2.9)
        expected = fold_mode(v, MODE_1, drv)
        got = solve_state(v, 1, drv, MODE1_BRANCH)
        assert max(abs(x - y) for x, y in zip(got.rhos, expected.rhos)) < 1e-10
        expected2 = fold_mode(v, MODE_2, drv)
        got2 = solve_state(v, 2, drv, MODE2_BRANCH)
        assert max(abs(x - y) for x, y in zip(got2.rhos, expected2.rhos)) < 1e-10


def test_solve_state_infeasible_driver():
    v = Vertex4((0.4, 0.4, 0.4, 0.5))
    with pytest.raises(InfeasibleDriverError):
        for drv in np.linspace(0.2, 3.0, 40):
            solve_state(v, 1, drv, BRANCH_PP)


# ---------------------------------------------------------------------------
# folding range


def test_ff_mode_ranges_span_everything():
    for drv_idx, branch in ((1, MODE1_BRANCH), (2, MODE2_BRANCH)):
        rng_ = folding_range(SQ_TWIST, drv_idx, branch, FAST)
        assert len(rng_.intervals) == 1
        lo, hi = rng_.intervals[0]
        assert lo == pytest.approx(-PI, abs=1e-9) and hi == pytest.approx(PI, abs=1e-9)
        assert rng_.endpoint_causes[0] == ("flat_folded_crease", "flat_folded_crease")


def test_elliptic_range_endpoints_strictly_inside():
    rng_ = folding_range(ELLIPTIC, 3, BRANCH_PP, FAST)
    assert rng_.intervals
    interior = [
        x for iv in rng_.intervals for x in iv if abs(abs(x) - PI) > 1e-6
    ]
    assert interior, "elliptic arcs must bind at an interior flat-folded state"
    for x in interior:
        assert abs(x) < 1e-6  # the arcs meet the box corner at driver 0


def test_hyperbolic_dual_has_identical_range_magnitudes():
    rng_e = folding_range(ELLIPTIC, 3, BRANCH_PP, FAST)
    rng_h = folding_range(dual(ELLIPTIC), 3, BRANCH_PP, FAST)
    mag_e = sorted(round(abs(x), 6) for iv in rng_e.intervals for x in iv)
    mag_h = sorted(round(abs(x), 6) for iv in rng_h.intervals for x in iv)
    assert mag_e == mag_h


def test_empty_range_reports_diagnostic():
    v = Vertex4((0.3, 0.3, 0.3, 2.8))  # no closed states exist
    rng_ = folding_range(v, 1, BRANCH_PP, FAST)
    assert not rng_.intervals and rng_.diagnostic


def _branch_states(kin, driver, branch):
    try:
        return [s for s in kin.certified_candidates(1, driver) if branch.matches(s)]
    except NoRealFoldError:
        return []


def _criterion1_vertices(n):
    rng = np.random.default_rng(2024)
    return [Vertex4(tuple(map(float, a))) for a in rng.uniform(0.2, PI - 0.2, size=(n, 4))]


# The last vertex has range endpoints 1e-12 to 1e-10 inside their breakpoints.
RANGE_VERTICES = _criterion1_vertices(30) + [
    Vertex4((1.761883337054723, 0.49547221833633137, 0.36631061004674687, 1.8907342540699135))
]


@pytest.mark.parametrize("v", RANGE_VERTICES, ids=lambda v: "%.4f,%.4f,%.4f,%.4f" % v.alphas)
def test_range_endpoints_and_interior_carry_branch_states(v):
    kin = VertexKinematics(v, FAST)
    for branch in ALL_BRANCHES:
        rng_ = kin.folding_range(1, branch)
        for lo, hi in rng_.intervals:
            assert -PI <= lo < hi <= PI
            drivers = [lo + (hi - lo) * k / 42 for k in range(43)]
            for drv in drivers:
                assert _branch_states(kin, drv, branch), (branch, drv)
            # maximal: no branch state 1e-6 outside an interior endpoint
            # continues one 1e-6 inside it
            for end, out in ((lo, -1e-6), (hi, 1e-6)):
                if abs(end) < PI - 1e-6:
                    inside = _branch_states(kin, end - out, branch)
                    beyond = _branch_states(kin, end + out, branch)
                    assert not any(
                        max(abs(x - y) for x, y in zip(s.rhos, t.rhos)) <= kin._JUMP_CAP
                        for s in inside
                        for t in beyond
                    ), (branch, end)
        if rng_.intervals:
            curve = kin.trace_curve(1, branch, 9)
            assert len(curve.samples) >= 9
        else:
            assert rng_.diagnostic and "seed" not in rng_.diagnostic


def _polygon_inequalities_hold(alphas, margin=0.0):
    """Spherical polygon inequalities of the four sectors (Kapovich and
    Millson): for every odd-sized subset I, sum_I a - sum_rest a is at
    most (|I| - 1) pi; ``margin`` is the least slack required."""
    return all(
        sum(alphas[i] for i in sub) - sum(alphas[i] for i in range(4) if i not in sub)
        <= (len(sub) - 1) * PI - margin
        for r in (1, 3)
        for sub in itertools.combinations(range(4), r)
    )


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.floats(0.2, PI - 0.2)] * 4))
def test_some_branch_folds_iff_polygon_inequalities_hold(alphas):
    # on the boundary the configuration space shrinks to a point
    assume(
        _polygon_inequalities_hold(alphas, 1e-6)
        or not _polygon_inequalities_hold(alphas, -1e-6)
    )
    kin = VertexKinematics(Vertex4(alphas), FAST)
    folds = any(kin.folding_range(1, branch).intervals for branch in ALL_BRANCHES)
    assert folds == _polygon_inequalities_hold(alphas)


def test_bench_vertex_without_a_traceable_range_verifies():
    v = Vertex4((0.6346933163676514, 2.810076449142171, 0.623174785046862, 1.599043640586577))
    rep = verify_duality(v, 1, 9, FAST)
    assert rep.n_branches >= 1
    assert rep.max_abs_rho_mismatch < 1e-6 and rep.sign_pattern_ok


def test_arc_narrower_than_a_coarse_driver_grid_is_found():
    v = Vertex4((0.9513290489514907, 0.2194429051989586, 1.9703036635776987, 2.1736982770777895))
    rng_ = folding_range(v, 1, BRANCH_PP, FAST)
    assert rng_.intervals
    assert max(hi - lo for lo, hi in rng_.intervals) < 0.196  # the old grid spacing


def test_trace_reaches_the_flat_fold_of_the_far_crease():
    v = Vertex4((1.6665109671073064, 1.3959453121937417, 1.8395504545030148, 1.5676245656970504))
    curve = trace_curve(v, 1, BRANCH_MM, 9, FAST)
    for end in (curve.samples[0], curve.samples[-1]):
        assert min(PI - abs(r) for r in end.rhos) < 1e-12


# ---------------------------------------------------------------------------
# tracing


def test_trace_matches_closed_form_curve_pointwise():
    curve = trace_curve(SQ_TWIST, 1, MODE1_BRANCH, 101, FAST)
    assert len(curve.samples) >= 101
    k = mode_constants(SQ_TWIST.alphas[0], SQ_TWIST.alphas[1])
    for drv, s in zip(curve.drivers, curve.samples):
        expected = fold_mode(SQ_TWIST, MODE_1, drv)
        assert max(abs(x - y) for x, y in zip(s.rhos, expected.rhos)) < 1e-9


def test_trace_sample_matches_solve_state_at_zero():
    curve = trace_curve(SQ_TWIST, 1, MODE1_BRANCH, 25, FAST)
    mid = min(range(len(curve.drivers)), key=lambda i: abs(curve.drivers[i]))
    direct = solve_state(SQ_TWIST, 1, curve.drivers[mid], MODE1_BRANCH, FAST)
    assert curve.samples[mid].rhos == direct.rhos


def test_trace_certification_and_stepping():
    curve = trace_curve(ELLIPTIC, 3, BRANCH_PP, 15, FAST)
    assert all(r < 1e-9 for r in curve.residuals)
    diffs = [b - a for a, b in zip(curve.drivers, curve.drivers[1:])]
    assert all(d > 0 for d in diffs)
    assert max(diffs) <= FAST.trace_step_max + 1e-12


def test_elliptic_and_dual_traces_match_in_magnitude():
    ce = trace_curve(ELLIPTIC, 3, BRANCH_PP, 15, FAST)
    vd = dual(ELLIPTIC)
    kin_d = VertexKinematics(vd, FAST)
    for drv, s in zip(ce.drivers, ce.samples):
        sd_seed = dual_state(s)
        rep = oracle_solve(vd, 3, sd_seed.rhos[2], sd_seed, FAST)
        assert rep.converged
        assert max(
            abs(abs(a) - abs(b)) for a, b in zip(s.rhos, rep.state.rhos)
        ) < 1e-6


# ---------------------------------------------------------------------------
# duality verification machinery


def test_dual_state_map():
    s = FoldState((0.3, -0.5, 0.7, 0.9))
    assert dual_state(s).rhos == (0.3, 0.5, 0.7, -0.9)


def test_sign_pattern_needs_one_flipped_and_one_kept_pair():
    s = FoldState((0.3, -0.5, 0.7, 0.9))
    assert _sign_pattern_is_dual(s, s) is False  # no pair flipped
    assert _sign_pattern_is_dual(s, FoldState(tuple(-r for r in s.rhos))) is False
    assert _sign_pattern_is_dual(s, dual_state(s)) is True
    assert _sign_pattern_is_dual(s, FoldState((-0.3, -0.5, -0.7, 0.9))) is True  # global flip
    assert _sign_pattern_is_dual(s, FoldState((0.3, 0.5, 0.7, 0.9))) is False  # pair split
    # a pair with no crease above eps is a wildcard
    flat_pair = FoldState((0.0, -0.5, 0.0, 0.9))
    assert _sign_pattern_is_dual(flat_pair, flat_pair) is True


def test_verify_duality_elliptic_example():
    rep = verify_duality(ELLIPTIC, driver_index=3, n_samples=11, tol=FAST)
    assert rep.n_branches >= 1
    assert rep.max_abs_rho_mismatch < 1e-6
    assert rep.sign_pattern_ok


def test_zero_branch_duality_report_fails():
    rep = verify_duality(ELLIPTIC, driver_index=3, n_samples=11, tol=FAST, branches=())
    assert rep.n_branches == 0
    assert rep.max_abs_rho_mismatch == math.inf
    assert rep.sign_pattern_ok is False


def test_verify_duality_ff_self_dual():
    rep = verify_duality(SQ_TWIST, driver_index=1, n_samples=11, tol=FAST)
    assert rep.n_branches >= 2
    assert rep.max_abs_rho_mismatch < 1e-6
    assert rep.sign_pattern_ok


def test_wrong_dual_map_fails_the_closure_certificate(monkeypatch, capsys):
    # the identity is not the duality map, so its states do not close on
    # C* of a non-Euclidean vertex; a (1,3) flip would not do here, being
    # the global mirror of the right map, which closes as well
    from rigidori import kinematics
    from rigidori.cli import run

    v = Vertex4((1.0, 1.3, 1.1, 1.7))
    assert verify_duality(v, 1, 9, FAST).max_abs_rho_mismatch == 0.0
    monkeypatch.setattr(kinematics, "dual_state", lambda s: s)
    rep = verify_duality(v, 1, 9, FAST)
    assert rep.n_branches >= 1
    assert all(b.max_abs_rho_mismatch == math.inf for b in rep.branches)
    code = run(["verify-duality", "--alphas", "1.0,1.3,1.1,1.7", "--samples", "9",
                "--step-max", "0.05"])
    assert code == 1 and "closure" in capsys.readouterr().err


def test_traced_elliptic_sign_vector_differs_in_exactly_one_pair():
    curve = trace_curve(ELLIPTIC, 3, BRANCH_PP, 15, FAST)
    vd = dual(ELLIPTIC)
    checked = 0
    for s in curve.samples:
        sd = dual_state(s)
        if closure_residual(vd, sd) >= 1e-9:
            continue
        # away from degeneracies: each opposite pair must carry signal
        if max(abs(s.rhos[1]), abs(s.rhos[3])) < 1e-6:
            continue
        if max(abs(s.rhos[0]), abs(s.rhos[2])) < 1e-6:
            continue
        flipped_pairs = set()
        for i in range(4):
            if abs(s.rhos[i]) > 1e-6 and (s.rhos[i] > 0) != (sd.rhos[i] > 0):
                flipped_pairs.add(i % 2)
        assert len(flipped_pairs) == 1
        checked += 1
    assert checked > 5
