import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rigidori.closure import LoopEvaluator, closure_residual, oracle_solve
from rigidori.errors import (
    DegenerateConfigurationError,
    InfeasibleDriverError,
    NoRealFoldError,
    TraceAbortError,
)
from rigidori.flatfold import MODE_1, MODE_2, fold_mode, mode_constants
from rigidori.kinematics import (
    ALL_BRANCHES,
    BRANCH_MM,
    BRANCH_MP,
    BRANCH_PM,
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
from rigidori.kinematics import (
    _COEF_EPS,
    _DUAL_SIGNS,
    FoldingRange,
    _adjacent_coefs,
    _adjacent_quadratic,
    _double,
    _form_roots,
    _sign_pattern_is_dual,
    _swapped,
)
from rigidori.numerics import Tolerances, half_tangent
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
    # strongly elliptic vertex driven far: t_1^2 goes negative somewhere
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
    # one quadratic form serves (i -> i+1) and, with c1 <-> c2, (i+1 -> i)
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.uniform(0.3, PI - 0.3, size=2)
        v = Vertex4((a, b, PI - a, PI - b))
        for mode in (MODE_1, MODE_2):
            rho = fold_mode(v, mode, rng.uniform(-2.5, 2.5)).rhos
            for i in (1, 2, 3, 4):
                ri, rj = rho[i - 1], rho[i % 4]
                coefs = _adjacent_coefs(v, i)
                nxt = _form_roots(*_adjacent_quadratic(coefs, math.sin(ri / 2), math.cos(ri / 2)))
                prev = _form_roots(*_adjacent_quadratic(_swapped(coefs), math.sin(rj / 2), math.cos(rj / 2)))
                assert np.nanmin(np.abs(np.array(nxt) - rj)) < 1e-9
                assert np.nanmin(np.abs(np.array(prev) - ri)) < 1e-9


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
# candidate tables


@settings(max_examples=40, deadline=None)
@given(
    alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4),
    driver_index=st.integers(1, 4),
    extra=st.lists(st.floats(-PI, PI), max_size=8),
)
@example(alphas=SQ_TWIST.alphas, driver_index=1, extra=[0.4])
@example(alphas=(1.0, 1.0, 1.0, 1.0), driver_index=2, extra=[0.4])
def test_candidate_table_rows_match_single_driver_calls(alphas, driver_index, extra):
    # the square twist has double roots at driver 0; on (1, 1, 1, 1) every
    # adjacent pair at driver +-pi holds identically, so both creases beside
    # the driver take 0 and +-pi
    kin = VertexKinematics(Vertex4(alphas))
    bps = [b for b, _ in kin._breakpoints((driver_index - 1) % 4)]  # those in [0, pi]
    drivers = bps + [-b for b in bps] + [0.0, PI, -PI] + extra
    table = kin._candidate_table(driver_index, drivers)
    rows = {b: table.rows(b) for b in (None,) + ALL_BRANCHES}
    for j, drv in enumerate(drivers):
        try:
            single = kin.certified_candidates(driver_index, drv)
        except (NoRealFoldError, DegenerateConfigurationError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                table.check(j)
            assert all(rows[b][j] == [] for b in rows)
            continue
        table.check(j)
        for b in rows:
            expected = [s.rhos for s in single if b is None or b.matches(s)]
            assert len(rows[b][j]) == len(expected), (drv, b)
            for got, want in zip(rows[b][j], expected):
                assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12, (drv, b)


def test_opposite_flat_fold_at_a_driver_limit_has_its_rows():
    # at this disc breakpoint the opposite relation's denominator, two terms
    # of 3.6e-4 that cancel, rounds to -9.8e-17: the opposite crease
    # flat-folds, so the table has rows there and the range ends on the
    # breakpoint itself
    kin = VertexKinematics(Vertex4((1.6665109671073064, 1.3959453121937417, 1.8395504545030148, 1.5676245656970504)))
    bp = 3.114322971313684
    table = kin._candidate_table(2, [bp])
    assert table.error[0] == 0 and len(table.rhos) > 0
    assert np.abs(np.abs(table.rhos[:, 3]) - PI).max() < 1e-12
    assert bp in kin._cell_table(2).breakpoints
    for branch in (BRANCH_MP, BRANCH_MM):
        assert kin.folding_range(2, branch).intervals[-1][1] == bp


def test_opposite_flat_fold_of_rounded_zero_coefficients_has_its_rows():
    # on (4, 8, 2, 10) pi/12 at driver pi the opposite relation's
    # denominator is 2.2e-16 of rounded-zero cosine differences, whose terms
    # also sum to 2.2e-16; a zero test relative to those terms would keep it
    # and drop the flat fold rows
    kin = VertexKinematics(Vertex4(tuple(k * PI / 12 for k in (4, 8, 2, 10))))
    table = kin._candidate_table(1, [PI])
    assert table.error[0] == 0
    assert sorted(table.rhos[:, 2].tolist()) == [-PI, PI]


def test_opposite_denominator_small_by_its_weight_is_kept():
    # on this flat-foldable vertex the opposite relation's denominator is
    # d0 c^2 alone, below 1e-13 within 1e-6 of driver pi; zeroed there, the
    # opposite crease would flat-fold early and the range end at pi / 2
    kin = VertexKinematics(Vertex4((1.002305253660057, 1.0030732886313962, 2.139287399929736, 2.138519364958397)))
    for branch in (BRANCH_PM, BRANCH_MP):
        assert kin.folding_range(3, branch).intervals == ((-PI, PI),)


def test_opposite_numerator_near_the_unfolded_state_is_exact():
    # on this Euclidean vertex the numerator's constant term is a rounded
    # zero; summed from the cosines, its rounding misplaces the opposite
    # crease by 1e-3 of itself at driver 1e-6, so no state closes there and
    # both branches through the unfolded state split at +-2.2e-6
    kin = VertexKinematics(Vertex4((0.9289598601799096, 2.2125134578013115, 2.2872886450110617, 0.8544233441873033)))
    assert kin.folding_range(1, BRANCH_PM).intervals == ((-3.13391568846254, 3.13391568846254),)
    assert kin.folding_range(1, BRANCH_MP).intervals == ((-2.6025430644629663, 2.6025430644629663),)


def test_pi_snap_keeps_a_full_turn_range():
    # without the +-pi snap in _candidate_table this flat-foldable vertex's
    # range ends 1e-6 short of +-pi
    kin = VertexKinematics(Vertex4((1.002305253660057, 1.0030732886313962, 2.139287399929736, 2.138519364958397)))
    assert kin.folding_range(4, BRANCH_PM).intervals == ((-PI, PI),)


def test_a_branch_arc_narrower_than_1e6_is_a_range():
    # on this near-flat-foldable vertex branch pp folds only for drivers of
    # 1.1355e-5 to 1.1881e-5 in size; every cell of that arc has certified
    # states, so the range lists it and its trace closes
    kin = VertexKinematics(Vertex4((1.6259022109908956, 0.29821952178492944, 1.5156904428373241, 2.843373131546952)))
    rng = kin.folding_range(1, BRANCH_PP)
    lo, hi = 1.1354747255593302e-05, 1.1880784125777353e-05
    assert rng.intervals == ((-hi, -lo), (lo, hi))
    assert BRANCH_PP.matches(kin.solve_state(1, 0.5 * (lo + hi), BRANCH_PP))
    curve = kin.trace_curve(1, BRANCH_PP, 9)
    assert curve.drivers[0] == -hi and curve.drivers[-1] == -lo
    assert max(curve.residuals) < kin.tol.residual_tol


def test_candidates_within_1e9_of_an_earlier_one_are_dropped():
    # at driver 1e-12 on the equal-sector vertex the relation with the
    # driver has roots +-pi and 3.14159265358794, within 1e-9 of each other,
    # which are one root; the table holds only the 4 distinct states
    kin = VertexKinematics(Vertex4((1.0,) * 4))
    assert len(kin._candidate_table(1, [1e-12]).rhos) == 4
    states = [np.array(s.rhos) for s in kin.certified_candidates(1, 1e-12)]
    assert len(states) == 4
    for a, b in itertools.combinations(states, 2):
        assert np.abs(a - b).max() > 1e-9


def _quadratic_roots(qa: np.ndarray, qb: np.ndarray, qc: np.ndarray):
    """Roots of qa x^2 + qb x + qc = 0 as fold-tangent candidates,
    elementwise: (roots, valid) of shape (..., 3), and the mask of
    equations that hold identically (an unconstrained pair on a
    degenerate vertex). A vanishing qa means the projective root escaped
    to infinity (the coupled crease flat-folds): the slots hold the
    linear root, if any, then +-inf. Otherwise they hold both roots, the
    second dropped within 1e-12 (relative) of the first; a discriminant
    within 1e-12 scale^2 of 0, or above -1e-10 scale^2, is a double root.
    """
    aqa, aqb, aqc = np.abs(qa), np.abs(qb), np.abs(qc)
    scale = np.maximum(np.maximum(aqa, aqb), np.maximum(aqc, 1e-3))
    tiny = _COEF_EPS * scale
    linear = aqa < tiny
    constant = linear & (aqb < tiny)
    free = constant & (aqc < tiny)
    disc = qb * qb - 4.0 * qa * qc
    disc = np.where(_double(disc, scale), 0.0, disc)
    real = ~linear & (disc >= 0.0)
    r = np.sqrt(np.where(real, disc, 0.0))
    q = np.where(qb >= 0, -0.5 * (qb + r), -0.5 * (qb - r))
    # a denominator is replaced by 1 where its quotient is not used; a
    # tiny one gives an infinite root, as in scalar arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        first = np.where(linear, -qc / np.where(linear & ~constant, qb, 1.0), q / np.where(linear, 1.0, qa))
        second = np.where(q != 0, qc / np.where(q != 0, q, 1.0), first)
        distinct = ~(np.abs(second - first) <= 1e-12 * np.maximum(1.0, np.abs(second)))
    roots = np.stack(np.broadcast_arrays(first, np.where(linear, np.inf, second), -np.inf), -1)
    flat = linear & ~free  # +-inf are candidates
    valid = np.stack([real | linear & ~constant, real & distinct | flat, flat], -1)
    return roots, valid, free


def _reference_rows(kin, driver_index, driver):
    """The closing rows of the enumeration that the closed form replaced:
    both signs of the opposite crease (opposite_t_squared) times the root
    slots of each adjacent relation with the driver (with the opposite
    crease where that one holds identically), from the tangent-form
    _quadratic_roots above and certified by kin.loop."""
    d = (driver_index - 1) % 4
    adj = kin._adj
    t_d = float(half_tangent(driver))
    try:
        m_sq = opposite_t_squared(kin.vertex, (d + 2) % 4 + 1, t_d)
    except (NoRealFoldError, DegenerateConfigurationError):
        return []

    def slots(coefs, t):  # the roots of the relation given the known tangent t
        cA, c1, c2, c3, c4, c5 = coefs
        if math.isinf(t):
            return _quadratic_roots(np.array(cA - c3), np.array(0.0), np.array(cA - c2))
        return _quadratic_roots(np.array((cA - c1) + (cA - c3) * t * t), np.array(-c5 * t),
                                np.array((cA - c4) + (cA - c2) * t * t))

    m = math.sqrt(m_sq)
    rows = []
    for t_o in {m, -m}:
        sides = []
        for coefs, fallback in ((adj[d], _swapped(adj[(d + 1) % 4])), (_swapped(adj[(d + 3) % 4]), adj[(d + 2) % 4])):
            roots, valid, free = slots(coefs, t_d)
            if free:
                roots, valid, _ = slots(fallback, t_o)
            sides.append(roots[valid].tolist())
        for t_n, t_f in itertools.product(*sides):
            t = np.empty(4)
            t[d], t[(d + 1) % 4], t[(d + 2) % 4], t[(d + 3) % 4] = t_d, t_n, t_o, t_f
            rows.append(2.0 * np.arctan(np.where(np.abs(t) < 1e-12, 0.0, t)))
    if not rows:
        return []
    residuals = kin.loop.residuals(np.array(rows))
    return [(r, e) for r, e in zip(rows, residuals) if e < kin.tol.residual_tol]


@settings(max_examples=30, deadline=None)
@given(alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4), driver_index=st.integers(1, 4))
@example(alphas=tuple(math.radians(a) for a in (40, 100, 120, 100)), driver_index=1)
@example(alphas=tuple(math.radians(a) for a in (60, 100, 120, 80)), driver_index=1)
@example(alphas=(0.8804093835885269, 2.2611425099158247, 2.2611839285787396, 0.8804501436739685), driver_index=1)
@example(alphas=(1.1196738999807143, 1.112941921958414, 2.0219179266880194, 2.028651323492423), driver_index=1)
@example(alphas=(1.0, 1.0, 1.0, 1.0), driver_index=2)
@example(alphas=(PI / 2,) * 4, driver_index=1)
@example(alphas=(1.0, 1.0, PI - 1.0, PI - 1.0), driver_index=1)
@example(alphas=(0.25,) * 4, driver_index=1)
@example(alphas=(2.0, 2.0, 2.1411, 2.1411), driver_index=1)
def test_table_holds_every_row_of_the_root_slot_enumeration(alphas, driver_index):
    # the two assemblies and the common roots lose no state of the 2 x 3 x 3
    # root-slot enumeration, at cell midpoints and at every breakpoint and its
    # mirror; at a disc breakpoint that enumeration's double root is off by up
    # to 1e-6, and the table's row there must close at least as well
    kin = VertexKinematics(Vertex4(alphas), FAST)
    cells = kin._cell_table(driver_index)
    bps = cells.breakpoints
    drivers = [0.5 * (a + b) for a, b in zip(bps, bps[1:])] + list(bps) + [-b for b in bps]
    table = kin._candidate_table(driver_index, drivers)
    disc = {b for b, cause in zip(bps, cells.causes) if cause == "driver_limit"}
    for j, drv in enumerate(drivers):
        rows = table.rhos[table.starts[j] : table.starts[j + 1]]
        residuals = table.residuals[table.starts[j] : table.starts[j + 1]]
        for ref, ref_residual in _reference_rows(kin, driver_index, drv):
            assert len(rows), (drv, ref)
            gap = np.abs(rows - ref).max(axis=1)
            if abs(drv) in disc:
                assert (gap <= 1e-10).any() or (residuals[gap <= 1e-5] <= ref_residual).any(), (drv, ref)
            else:
                assert gap.min() <= 1e-10, (drv, ref, rows)


@settings(max_examples=20, deadline=None)
@given(alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4), driver_index=st.integers(1, 4))
@example(alphas=(2.408212012940803, 0.932530485169673, 0.9763396884001088, 2.4603941888745924), driver_index=3)
@example(alphas=(1.0, 1.0, 0.25, 1.0), driver_index=1)
def test_trace_ends_at_a_driver_limit_close_to_rounding(alphas, driver_index):
    # at a driver limit the relation with the driver has a double root; the
    # common root of the crease's two relations stays exact there
    kin = VertexKinematics(Vertex4(alphas), FAST)
    for branch in ALL_BRANCHES:
        rng_ = kin.folding_range(driver_index, branch)
        if not rng_:
            continue
        curve = kin.trace_curve(driver_index, branch, 9)
        k = rng_.intervals.index(max(rng_.intervals, key=lambda iv: iv[1] - iv[0]))
        for residual, cause in zip((curve.residuals[0], curve.residuals[-1]), rng_.endpoint_causes[k]):
            if cause == "driver_limit":
                assert residual < 1e-12, (branch, residual)


def test_apex_driver_next_to_a_theta_bound_has_its_states():
    # the apex crease of pair (2, 4) at theta 1e-12 (hi - lo) above lo is at a
    # driver limit, where the state closes to 1e-15 by the closed form
    from rigidori.embedding import _apex_sectors, _triangle_angles, achievable_theta_interval

    v = Vertex4((1.0, 1.0, 0.25, 1.0))
    lo, hi = achievable_theta_interval(v, (2, 4))
    x, y, _, _ = _apex_sectors(v, (2, 4))
    driver = PI - _triangle_angles(x, y, lo + 1e-12 * (hi - lo))[0]
    states = VertexKinematics(v).certified_candidates(1, driver)
    assert states and all(closure_residual(v, s) < 1e-14 for s in states)


@pytest.mark.parametrize("alphas, driver_index, driver, crease", [
    ((0.4, 0.4, 0.4, 0.5), 3, 3.0, 1),
    ((0.5, 0.4, 0.4, 0.4), 3, -3.1, 1),
    ((0.5, 0.4, 0.4, 0.4), 4, -3.1, 2),
])
def test_no_real_fold_names_the_crease_opposite_the_driver(alphas, driver_index, driver, crease):
    kin = VertexKinematics(Vertex4(alphas))
    with pytest.raises(NoRealFoldError, match=re.escape(f"no real solution for t_{crease}^2")):
        kin.certified_candidates(driver_index, driver)


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
            # lies within 1.5 rad of one 1e-6 inside it
            for end, out in ((lo, -1e-6), (hi, 1e-6)):
                if abs(end) < PI - 1e-6:
                    inside = _branch_states(kin, end - out, branch)
                    beyond = _branch_states(kin, end + out, branch)
                    assert not any(
                        max(abs(x - y) for x, y in zip(s.rhos, t.rhos)) <= 1.5
                        for s in inside
                        for t in beyond
                    ), (branch, end)
        if rng_.intervals:
            curve = kin.trace_curve(1, branch, 9)
            assert len(curve.samples) >= 9
        else:
            assert rng_.diagnostic and "seed" not in rng_.diagnostic


@pytest.mark.parametrize("v", [SQ_TWIST, ELLIPTIC] + RANGE_VERTICES[:8], ids=str)
def test_cell_table_is_shared_read_only_and_order_independent(v):
    fresh = {b: VertexKinematics(v, FAST).folding_range(1, b) for b in ALL_BRANCHES}
    for order in (ALL_BRANCHES, ALL_BRANCHES[::-1], ALL_BRANCHES[1::2] + ALL_BRANCHES[::2]):
        kin = VertexKinematics(v, FAST)
        assert {b: kin.folding_range(1, b) for b in order} == fresh
    cells = kin._cell_table(1)
    assert kin._cell_table(5) is cells  # one table per driver crease, kept
    table = cells.table
    assert not any(a.flags.writeable for a in table if isinstance(a, np.ndarray))
    with pytest.raises(ValueError):
        table.rhos[0, 0] = 0.0


def _trace_outcome(kin, branch):
    try:
        return kin.trace_curve(1, branch, 9)
    except (InfeasibleDriverError, TraceAbortError) as exc:
        return type(exc), str(exc)


def _relative_discriminant(coefs, s):
    """|c5^2 s - 4 qa qc| of an adjacent relation at s = t_d^2, relative to
    the magnitude of its terms (qa, qc written out as their cosines)."""
    cA, c1, c2, c3, c4, c5 = coefs
    qa, qc = cA - c1 + (cA - c3) * s, cA - c4 + (cA - c2) * s
    size_a = abs(cA) + abs(c1) + (abs(cA) + abs(c3)) * s
    size_c = abs(cA) + abs(c4) + (abs(cA) + abs(c2)) * s
    scale = c5 * c5 * s + 4.0 * size_a * size_c
    return abs(c5 * c5 * s - 4.0 * qa * qc) / scale if scale else 0.0


@settings(max_examples=30, deadline=None)
@given(alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4))
@example(alphas=SQ_TWIST.alphas)
@example(alphas=(1.0, 1.0, 1.0, 1.0))
def test_endpoint_causes_name_what_the_branch_state_does_there(alphas):
    v = Vertex4(alphas)
    kin = VertexKinematics(v, FAST)
    for driver_index, branch in itertools.product((1, 2, 3, 4), ALL_BRANCHES):
        rng_ = kin.folding_range(driver_index, branch)
        bps = [b for b, _ in kin._breakpoints(driver_index - 1)]
        for ends, causes in zip(rng_.intervals, rng_.endpoint_causes):
            for drv, cause in zip(ends, causes):
                # an end that is no breakpoint, nor the mirror image of one, has no cause to check
                assume(min(abs(abs(drv) - b) for b in bps) <= 1e-6)
                states = [s.rhos for s in kin.certified_candidates(driver_index, drv) if branch.matches(s)]
                assert states, (driver_index, branch, drv)
                if cause == "flat_folded_crease":
                    assert any(abs(abs(r) - PI) <= 1e-6 for s in states for r in s), (drv, states)
                elif cause == "crease_through_zero":
                    assert any(abs(r) <= 1e-6 for s in states for r in s), (drv, states)
                else:
                    assert cause == "driver_limit", cause
                    sides = (_adjacent_coefs(v, driver_index), _swapped(_adjacent_coefs(v, driver_index + 3)))
                    t_sq = math.tan(0.5 * drv) ** 2
                    assert min(_relative_discriminant(c, t_sq) for c in sides) <= 1e-6, drv


EUCLIDEAN_40 = Vertex4(tuple(math.radians(a) for a in (40, 100, 120, 100)))
SPECIAL_VERTICES = (SQ_TWIST.alphas, (1.0,) * 4, (PI / 2,) * 4, EUCLIDEAN_40.alphas)


def _same_rows(a, b):
    return len(a) == len(b) and all(any(max(abs(x - y) for x, y in zip(r, s)) <= 1e-12 for s in b) for r in a)


@settings(max_examples=30, deadline=None)
@given(
    alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4),
    driver_index=st.sampled_from((1, 2, 3, 4)),
    x=st.floats(1e-6, PI - 1e-6),
)
@example(alphas=SPECIAL_VERTICES[0], driver_index=1, x=0.4)
@example(alphas=SPECIAL_VERTICES[1], driver_index=2, x=0.4)
@example(alphas=SPECIAL_VERTICES[2], driver_index=1, x=0.4)
@example(alphas=SPECIAL_VERTICES[3], driver_index=1, x=0.4)
def test_branch_rows_at_minus_x_mirror_those_at_x(alphas, driver_index, x):
    # negating every fold angle maps the relations and closure to themselves
    kin = VertexKinematics(Vertex4(alphas), FAST)
    bps = kin._cell_table(driver_index).breakpoints
    xs = [x] + [b for b in bps if 0 < b < PI] + [0.5 * (a + b) for a, b in zip(bps, bps[1:]) if a >= 0]
    table = kin._candidate_table(driver_index, [-y for y in xs] + xs)
    for branch in ALL_BRANCHES:
        rows = table.rows(branch)
        for below, above in zip(rows, rows[len(xs):]):
            assert _same_rows(below, [[-r for r in s] for s in above]), (branch, below, above)


@settings(max_examples=30, deadline=None)
@given(alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4), driver_index=st.sampled_from((1, 2, 3, 4)))
@example(alphas=SPECIAL_VERTICES[0], driver_index=1)
@example(alphas=SPECIAL_VERTICES[1], driver_index=2)
@example(alphas=SPECIAL_VERTICES[2], driver_index=1)
@example(alphas=SPECIAL_VERTICES[3], driver_index=1)
def test_branch_rows_at_a_cell_midpoint_agree_in_magnitude(alphas, driver_index):
    # one state per branch and driver: further rows only flip a crease at +-pi
    cells = VertexKinematics(Vertex4(alphas), FAST)._cell_table(driver_index)
    nc = len(cells.breakpoints) - 1
    for branch in ALL_BRANCHES:
        for rows in cells.table.rows(branch)[:nc]:
            assert all(abs(abs(x) - abs(y)) <= 1e-9 for s in rows for x, y in zip(s, rows[0])), rows


def _mirror(rng_):
    """The folding range's image under x -> -x: intervals negated and
    reversed, and the two causes of each swapped."""
    return FoldingRange(
        tuple((0.0 - hi, 0.0 - lo) for lo, hi in reversed(rng_.intervals)),
        tuple((hi, lo) for lo, hi in reversed(rng_.endpoint_causes)),
        rng_.diagnostic,
    )


# (1, 1, 1, 1), (0.25, ...) and (2, 2, 2.1411, 2.1411) have ranges that
# cross 0 through states with two creases flat-folded, such as (0, +-pi, 0, +-pi)
FLAT_FOLD_JOIN_VERTICES = ((1.0,) * 4, (0.25,) * 4, (2.0, 2.0, 2.1411, 2.1411))


@settings(max_examples=40, deadline=None)
@given(alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4))
@example(alphas=SPECIAL_VERTICES[0])
@example(alphas=SPECIAL_VERTICES[1])
@example(alphas=SPECIAL_VERTICES[2])
@example(alphas=SPECIAL_VERTICES[3])
@example(alphas=FLAT_FOLD_JOIN_VERTICES[1])
@example(alphas=FLAT_FOLD_JOIN_VERTICES[2])
def test_every_folding_range_is_its_own_mirror_image(alphas):
    # negating every fold angle fixes each sector rotation of the loop
    kin = VertexKinematics(Vertex4(alphas), FAST)
    for driver_index, branch in itertools.product((1, 2, 3, 4), ALL_BRANCHES):
        rng_ = kin.folding_range(driver_index, branch)
        assert rng_ == _mirror(rng_), (driver_index, branch)


def test_equal_sector_ranges_cross_zero_only_through_a_mirror_image_state():
    # mp and mm cross driver 0 through (0, -pi, 0, -+pi), which is its own
    # mirror image; pp reaches (0, +-pi, 0, +-pi) at 0 too, but its states
    # at -x and x differ in every crease's sign, so it splits there. Joining
    # iff the unfolded state closes splits mp and mm; joining iff every
    # crease at 0 is 0 or +-pi joins pp.
    kin = VertexKinematics(Vertex4(FLAT_FOLD_JOIN_VERTICES[0]), FAST)
    at_zero = kin.certified_candidates(1, 0.0)
    for branch, flat in ((BRANCH_MP, (0.0, -PI, 0.0, -PI)), (BRANCH_MM, (0.0, -PI, 0.0, PI))):
        ((lo, hi),) = kin.folding_range(1, branch).intervals
        assert lo == -hi and hi == pytest.approx(PI, abs=1e-9)
        assert flat in [s.rhos for s in at_zero if branch.matches(s)]
    (lo, below), (above, hi) = kin.folding_range(1, BRANCH_PP).intervals
    assert below == above == 0.0 and lo == -hi and hi == pytest.approx(PI, abs=1e-9)
    assert {s.rhos[1] for s in at_zero if BRANCH_PP.matches(s)} == {-PI, PI}


@pytest.mark.parametrize("v", [ELLIPTIC, EUCLIDEAN_40, Vertex4(FLAT_FOLD_JOIN_VERTICES[2])]
                         + RANGE_VERTICES[2:8], ids=str)
def test_negated_trace_closes_on_c_and_maps_to_c_star(v):
    # a trace covers the range's longest interval; its negated rows are the
    # branch's states on the mirror interval, on C and, mapped, on C*
    kin = VertexKinematics(v, FAST)
    loop, dual_loop = LoopEvaluator(v), LoopEvaluator(dual(v))
    traced = 0
    for branch in ALL_BRANCHES:
        curve = _trace_outcome(kin, branch)
        if isinstance(curve, tuple):
            continue
        negated = -np.array(curve.rhos)
        assert (loop.residuals(negated) < FAST.residual_tol).all(), branch
        assert (dual_loop.residuals(negated * _DUAL_SIGNS) < FAST.residual_tol).all(), branch
        assert all(branch.matches(FoldState(r)) for r in negated)
        lo, hi = -curve.drivers[-1], -curve.drivers[0]
        assert any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in kin.folding_range(1, branch).intervals)
        traced += 1
    assert traced == sum(bool(kin.folding_range(1, b)) for b in ALL_BRANCHES) > 0


def test_non_euclidean_range_splits_where_its_states_jump_at_zero():
    # the states at -x and x mirror each other, and the unfolded state does
    # not close, so the branch cannot cross driver 0 continuously
    v = Vertex4((1.054914817990185, 1.3605886825734677, 2.4692233505753394, 1.3218573461249803))
    rng_ = folding_range(v, 1, BRANCH_MP, FAST)
    (lo, below), (above, hi) = rng_.intervals
    assert below == above == 0.0 and hi == -lo == pytest.approx(1.5632681376608633)
    assert rng_.endpoint_causes[0][1] == rng_.endpoint_causes[1][0] == "crease_through_zero"


def test_euclidean_range_joins_through_the_unfolded_state():
    rng_ = folding_range(EUCLIDEAN_40, 1, BRANCH_PM, FAST)
    assert rng_.intervals == ((-PI, PI),)
    assert rng_.endpoint_causes == (("flat_folded_crease", "flat_folded_crease"),)
    curve = trace_curve(EUCLIDEAN_40, 1, BRANCH_PM, 9, FAST)
    assert curve.rhos[curve.drivers.index(0.0)] == (0.0, 0.0, 0.0, 0.0)
    assert max(max(abs(x - y) for x, y in zip(r, s)) for r, s in zip(curve.rhos, curve.rhos[1:])) < 0.2


def test_near_degenerate_vertex_traces_to_its_flat_fold():
    v = Vertex4((0.8804093835885269, 2.2611425099158247, 2.2611839285787396, 0.8804501436739685))
    curve = trace_curve(v, 1, BRANCH_PM, 9, FAST)
    assert curve.drivers[0] < -PI + 1e-5 and curve.rhos[0][1] > 2.9


@pytest.mark.parametrize("alphas", [(PI / 2,) * 4, (1.0, 1.0, PI - 1.0, PI - 1.0)])
def test_unfolded_state_is_a_candidate_where_it_closes(alphas):
    kin = VertexKinematics(Vertex4(alphas))
    assert kin.loop.residual(np.zeros(4)) < kin.tol.residual_tol
    assert (0.0, 0.0, 0.0, 0.0) in [s.rhos for s in kin.certified_candidates(1, 0.0)]


def test_equal_sector_range_reaches_its_flat_fold():
    # PP states (-x, -y, -x, -y) exist for every driver x in (-pi, 0); the
    # adjacent relations must stay accurate up to the flat fold at -pi,
    # where the unfactored form cancelled and closure rejected the states
    lo, hi = folding_range(Vertex4((0.25,) * 4), 1, BRANCH_PP, FAST).intervals[0]
    assert hi == 0.0
    assert lo <= -PI + 1e-6


@settings(max_examples=30, deadline=None)
@given(alphas=st.tuples(*[st.floats(0.2, PI - 0.2)] * 4))
@example(alphas=SQ_TWIST.alphas)
@example(alphas=(1.0, 1.0, 1.0, 1.0))
def test_sample_table_is_shared_and_changes_no_trace(alphas):
    v = Vertex4(alphas)
    fresh = {b: _trace_outcome(VertexKinematics(v, FAST), b) for b in ALL_BRANCHES}
    for order in (ALL_BRANCHES, ALL_BRANCHES[::-1], ALL_BRANCHES[1::2] + ALL_BRANCHES[::2]):
        kin = VertexKinematics(v, FAST)
        assert {b: _trace_outcome(kin, b) for b in order} == fresh
    table, parts = kin._sample_table(5, 9)
    assert kin._sample_table(1, 9) is kin._samples[(0, 9)]  # one table per crease and n_samples
    if table is not None:
        assert not any(a.flags.writeable for a in table if isinstance(a, np.ndarray))
    for branch, (rng_, drivers, offset) in parts.items():
        assert rng_ == kin.folding_range(1, branch)
        if not drivers:
            continue
        got = table.rows(branch, offset, offset + len(drivers))
        want = kin._candidate_table(1, drivers).rows(branch)
        assert [len(r) for r in got] == [len(r) for r in want]
        for g, w in zip(itertools.chain(*got), itertools.chain(*want)):
            assert max(abs(x - y) for x, y in zip(g, w)) <= 1e-12


@pytest.mark.parametrize(
    "alphas, branches",
    [((1.0, 1.3, 1.1, 1.7), 4), ((2.0, 1.2, 2.3, 1.5), 3), ((0.3, 0.3, 0.3, 2.9), 0)],
)
def test_verify_duality_builds_one_cell_and_one_sample_table(monkeypatch, alphas, branches):
    # generic vertices, where no endpoint fallback runs
    built = []
    original = VertexKinematics._candidate_table

    def counted(self, driver_index, drivers):
        built.append(len(drivers))
        return original(self, driver_index, drivers)

    monkeypatch.setattr(VertexKinematics, "_candidate_table", counted)
    rep = verify_duality(Vertex4(alphas), 1, 9, FAST)
    assert len(built) == (2 if branches else 1)  # no sample table when no branch folds
    assert all(built)  # and none over an empty driver list
    assert rep.n_branches == branches


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
    s = (0.3, -0.5, 0.7, 0.9)
    flat_pair = (0.0, -0.5, 0.0, 0.9)  # a pair with no crease above eps is a wildcard
    cases = [
        (s, s, False),  # no pair flipped
        (s, tuple(-r for r in s), False),
        (s, dual_state(FoldState(s)).rhos, True),
        (s, (-0.3, -0.5, -0.7, 0.9), True),  # global flip
        (s, (0.3, 0.5, 0.7, 0.9), False),  # pair split
        (flat_pair, flat_pair, True),
    ]
    rows, dual_rows, expected = map(np.array, zip(*cases))
    assert _sign_pattern_is_dual(rows, dual_rows).tolist() == expected.tolist()


def _set_based_sign_rule(a, b, eps=1e-7):
    """Reference rule, one row at a time: collect each pair's flip flags."""
    pairs = (set(), set())
    for i in range(4):
        if abs(a[i]) < eps or abs(b[i]) < eps:
            continue
        pairs[i % 2].add((a[i] > 0) != (b[i] > 0))
    p, q = pairs
    return len(p) < 2 and len(q) < 2 and not (p and p == q)


def test_sign_pattern_kernel_matches_the_set_based_rule():
    rng = np.random.default_rng(18)
    degenerate = np.array([0.0, -0.0, 1e-8, -1e-8, 1e-7, -1e-7, PI, -PI, 0.4, -0.4, math.nan])
    rows = np.concatenate([
        rng.uniform(-PI, PI, size=(4000, 4)),
        rng.choice(degenerate, size=(4000, 4)),
    ])
    signs = rng.choice([-1.0, 1.0], size=rows.shape)
    dual_rows = np.concatenate([
        rows * signs,  # same magnitudes, any signs
        rng.choice(degenerate, size=rows.shape),  # independent degenerate rows
    ])
    rows = np.concatenate([rows, rows])
    got = _sign_pattern_is_dual(rows, dual_rows)
    want = [_set_based_sign_rule(a, b) for a, b in zip(rows.tolist(), dual_rows.tolist())]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


def test_trace_aborts_at_a_sample_without_a_branch_state():
    kin = VertexKinematics(ELLIPTIC, FAST)
    table, parts = kin._sample_table(3, 15)
    _, drivers, offset = parts[BRANCH_PP]
    for k in (0, len(drivers) // 3, len(drivers) - 1):  # an end, an inner sample, the other end
        admits = table.admits.copy()
        admits[table.starts[offset + k] : table.starts[offset + k + 1]] = False  # no row of sample k is on a branch
        kin._samples[(2, 15)] = (table._replace(admits=admits), parts)
        with pytest.raises(TraceAbortError, match=re.escape(f"at driver {drivers[k]:.6g}") + "$"):
            kin.trace_curve(3, BRANCH_PP, 15)


def test_curve_samples_are_fold_states_of_its_rows():
    curve = trace_curve(ELLIPTIC, 3, BRANCH_PP, 15, FAST)
    assert curve.samples == tuple(map(FoldState, curve.rhos))
    assert all(len(r) == 4 and type(r) is tuple for r in curve.rhos)


def test_verify_duality_elliptic_example():
    rep = verify_duality(ELLIPTIC, driver_index=3, n_samples=11, tol=FAST)
    assert rep.n_branches >= 1
    assert rep.max_abs_rho_mismatch < 1e-6
    assert rep.sign_pattern_ok


def test_zero_branch_duality_report_fails():
    # one sector exceeds the sum of the other three, so no branch folds
    rep = verify_duality(Vertex4((0.3, 0.3, 0.3, 2.9)), driver_index=3, n_samples=11, tol=FAST)
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
    monkeypatch.setattr(kinematics, "_DUAL_SIGNS", np.ones(4))
    rep = verify_duality(v, 1, 9, FAST)
    assert rep.n_branches >= 1
    assert all(b.max_abs_rho_mismatch == math.inf for b in rep.branches)
    assert not rep.sign_pattern_ok  # no crease pair flipped
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
