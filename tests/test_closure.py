import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidori.closure import LoopEvaluator, closure_residual, oracle_solve
from rigidori.flatfold import MODE_1, MODE_2, fold_mode
from rigidori.vertex import FoldState, Vertex4, ZERO_STATE

PI = math.pi
SQ_TWIST = Vertex4((PI / 4, PI / 2, 3 * PI / 4, PI / 2))
ELLIPTIC = Vertex4((PI / 4, PI / 2, PI / 4, PI / 2))


def test_euclidean_zero_state_closes():
    assert closure_residual(SQ_TWIST, ZERO_STATE) < 1e-13


def test_elliptic_zero_state_residual_is_two():
    # planar rotation by the angle deficit pi/2: |R - I|_F = 2*sqrt(2)*sin(pi/4) = 2
    assert abs(closure_residual(ELLIPTIC, ZERO_STATE) - 2.0) < 1e-12


def test_zero_state_is_planar_rotation_by_deficit():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = Vertex4(rng.uniform(0.3, PI - 0.3, size=4))
        deficit = 2 * PI - v.angle_sum()
        expect = 2 * math.sqrt(2.0) * abs(math.sin(0.5 * deficit))
        assert abs(closure_residual(v, ZERO_STATE) - expect) < 1e-12


def test_mode_states_close():
    for mode, drv in [(MODE_1, 0.3), (MODE_1, 2.9), (MODE_2, -1.2), (MODE_2, PI)]:
        s = fold_mode(SQ_TWIST, mode, drv)
        assert closure_residual(SQ_TWIST, s) < 1e-10


def test_perturbation_raises_residual():
    s = fold_mode(SQ_TWIST, MODE_1, 1.0)
    bumped = list(s.rhos)
    bumped[1] += 1e-3
    assert closure_residual(SQ_TWIST, FoldState(bumped)) > 1e-5


def test_residual_lipschitz_bound():
    rng = np.random.default_rng(3)
    for _ in range(30):
        v = Vertex4(rng.uniform(0.3, PI - 0.3, size=4))
        s = rng.uniform(-1.0, 1.0, size=4)
        d = rng.uniform(-1e-4, 1e-4, size=4)
        r0 = closure_residual(v, FoldState(s))
        r1 = closure_residual(v, FoldState(s + d))
        assert abs(r1 - r0) <= 4.0 * np.sum(np.abs(d)) + 1e-12


def test_loop_matrix_determinism():
    s = FoldState((0.2, -0.4, 0.9, 0.1))
    a = LoopEvaluator(ELLIPTIC).matrix(s.rhos)
    b = LoopEvaluator(ELLIPTIC).matrix(s.rhos)
    assert np.array_equal(a, b)


def test_oracle_warm_start_converges_immediately():
    s = fold_mode(SQ_TWIST, MODE_1, 1.1)
    rep = oracle_solve(SQ_TWIST, 1, 1.1, s)
    assert rep.converged and rep.residual < 1e-12 and rep.iterations <= 2


def test_oracle_basin_convergence():
    target = PI / 2
    seed = fold_mode(SQ_TWIST, MODE_1, target - 0.05)
    rep = oracle_solve(SQ_TWIST, 1, target, seed)
    assert rep.converged
    expected = fold_mode(SQ_TWIST, MODE_1, target)
    assert max(abs(a - b) for a, b in zip(rep.state.rhos, expected.rhos)) < 1e-9


def test_oracle_infeasible_driver_reports_nonconvergence():
    # (0.3, 0.3, 0.3, 2.8)-style vertices have no closed states at all
    v = Vertex4((0.3, 0.3, 0.3, 2.8))
    rep = oracle_solve(v, 1, 0.5, FoldState((0.5, 0.4, 0.4, 0.4)))
    assert not rep.converged


def test_converged_flag_matches_residual_tol():
    s = fold_mode(SQ_TWIST, MODE_2, 0.8)
    rep = oracle_solve(SQ_TWIST, 2, 0.8, s)
    assert rep.converged == (rep.residual < 1e-9)


def test_oracle_resolve_agreement_along_traces():
    # re-solving each trace sample from a nearby perturbed seed reproduces
    # it componentwise below 1e-6; fully flat-folded corner states are
    # excluded (the loop map is quadratically degenerate there, so a
    # residual at solver tolerance only pins the state to ~sqrt(tol))
    from rigidori.kinematics import MODE1_BRANCH, trace_curve
    from rigidori.numerics import Tolerances

    tol = Tolerances(trace_step_max=0.05)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(5):
        a, b = rng.uniform(0.3, PI - 0.3, size=2)
        v = Vertex4((a, b, PI - a, PI - b))
        curve = trace_curve(v, 1, MODE1_BRANCH, 15, tol)
        for drv, s in list(zip(curve.drivers, curve.samples))[::4]:
            if any(abs(abs(r) - PI) < 1e-3 for r in s.rhos):
                continue
            seed = FoldState(
                np.clip(np.array(s.rhos) + rng.uniform(-0.01, 0.01, 4), -PI, PI)
            )
            rep = oracle_solve(v, 1, drv, seed)
            assert rep.converged
            worst = max(worst, max(abs(x - y) for x, y in zip(rep.state.rhos, s.rhos)))
    assert worst < 1e-6


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_oracle_agreement_with_analytic_modes(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.3, PI - 0.3, size=2)
    v = Vertex4((a, b, PI - a, PI - b))
    drv = rng.uniform(-2.8, 2.8)
    s = fold_mode(v, MODE_1, drv)
    nudged = FoldState(np.clip(np.array(s.rhos) + rng.uniform(-0.02, 0.02, 4), -PI, PI))
    rep = oracle_solve(v, 1, drv, nudged)
    assert rep.converged
    assert max(abs(x - y) for x, y in zip(rep.state.rhos, s.rhos)) < 1e-6


def test_batched_residuals_match_single_state_residual():
    rng = np.random.default_rng(11)
    for v in (SQ_TWIST, ELLIPTIC, Vertex4(rng.uniform(0.3, PI - 0.3, size=4))):
        loop = LoopEvaluator(v)
        rhos = rng.uniform(-PI, PI, size=(64, 4))
        rhos[:4] = [fold_mode(SQ_TWIST, MODE_1, d).rhos for d in (0.0, 0.4, -2.0, PI)]
        batch = loop.residuals(rhos)
        assert batch.shape == (64,)
        for row, res in zip(rhos, batch):
            assert abs(res - loop.residual(row)) < 1e-15


# The duality sign maps give the dual state in closed form; the oracle,
# seeded with that state and driven at one of its creases, must return it
# unchanged. This keeps the oracle as the reference for the closed form
# that verify_duality and synchronize certify without re-solving.
DUALITY_VERTICES = [
    Vertex4(tuple(map(float, a)))
    for a in np.random.default_rng(2024).uniform(0.2, PI - 0.2, size=(20, 4))
] + [SQ_TWIST, ELLIPTIC]


@pytest.mark.parametrize("v", DUALITY_VERTICES, ids=lambda v: "%.4f,%.4f,%.4f,%.4f" % v.alphas)
def test_oracle_returns_the_closed_form_dual_state(v):
    from rigidori.embedding import _matched_dual_state, achievable_theta_interval, synchronize
    from rigidori.errors import InfeasibleDriverError, TraceAbortError
    from rigidori.kinematics import ALL_BRANCHES, dual_state, trace_curve
    from rigidori.numerics import Tolerances
    from rigidori.vertex import dual

    tol = Tolerances(trace_step_max=0.05)
    vd = dual(v)
    mapped = []  # (driver index, closed-form dual state)
    for branch in ALL_BRANCHES:
        try:
            curve = trace_curve(v, 1, branch, 9, tol)
        except (InfeasibleDriverError, TraceAbortError):
            continue
        mapped += [(1, dual_state(s)) for s in curve.samples]
    for pair in ((2, 4), (1, 3)):
        lo, hi = achievable_theta_interval(v, pair)
        if lo > hi:
            continue
        for theta in (lo, 0.5 * (lo + hi), hi):
            cv = synchronize(v, "parallel", theta, pair)
            assert cv.dual_state == _matched_dual_state(cv.base_state, pair)
            mapped.append((pair[0] + 1, cv.dual_state))
    for drv, sd in mapped:
        rep = oracle_solve(vd, drv, sd.rhos[drv - 1], sd)
        assert rep.converged
        assert rep.state == sd


@pytest.mark.parametrize("driver_index", [1, 2, 3, 4])
def test_oracle_keeps_angles_at_pi_and_converges_from_a_closing_state(driver_index):
    # at theta = 2e-12 the matched dual state of (1, 1, 1, 1) has creases
    # a hair from +-pi, where a Newton step may leave [-pi, pi]; reducing
    # such an angle by 2 pi keeps the state closed, clamping it did not
    from rigidori.embedding import synchronize
    from rigidori.vertex import dual

    v = Vertex4((1.0, 1.0, 1.0, 1.0))
    sd = synchronize(v, "parallel", 2e-12).dual_state
    rep = oracle_solve(dual(v), driver_index, sd.rhos[driver_index - 1], sd)
    assert rep.converged and rep.residual < 1e-12
    assert all(abs(r) <= PI for r in rep.state.rhos)
