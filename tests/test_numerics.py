import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidori.errors import InputError
from rigidori.numerics import (
    Tolerances,
    axis_angle_vector,
    rotation_about_axis,
    wrap_angle,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


unit_axes = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).map(np.array).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
    lambda v: v / np.linalg.norm(v)
)
angles = st.floats(-3.0, 3.0)


def residual(r) -> float:
    """Frobenius distance of a rotation matrix from the identity."""
    return float(np.linalg.norm(r - np.eye(3)))


def test_zero_rotation_is_identity():
    r = rotation_about_axis(Z, 0.0)
    assert residual(r) == 0.0


def test_quarter_turn_about_z_maps_x_to_y():
    r = rotation_about_axis(Z, math.pi / 2)
    assert np.allclose(r @ X, [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_inverse_cancels():
    r = rotation_about_axis(X, 0.7) @ rotation_about_axis(X, -0.7)
    assert residual(r) < 1e-15


def test_non_unit_axis_rejected():
    with pytest.raises(InputError):
        rotation_about_axis([1.0, 1.0, 0.0], 0.3)


def test_residual_of_half_turn_is_sqrt8():
    r = rotation_about_axis(Z, math.pi)
    assert abs(residual(r) - math.sqrt(8.0)) < 1e-12


def test_residual_small_angle_monotone_near_zero():
    vals = [residual(rotation_about_axis(Z, e)) for e in (1e-6, 1e-5, 1e-4)]
    assert vals[0] < vals[1] < vals[2]
    # O(eps): residual ~ sqrt(2)*eps
    assert abs(vals[2] - math.sqrt(2) * 1e-4) < 1e-9


@pytest.mark.parametrize(
    "raw,expected",
    [(3 * math.pi / 2, -math.pi / 2), (-math.pi, math.pi), (0.0, 0.0)],
)
def test_wrap_angle_examples(raw, expected):
    assert abs(wrap_angle(raw) - expected) < 1e-15


def test_wrap_angle_rejects_nonfinite():
    with pytest.raises(InputError):
        wrap_angle(float("inf"))


@given(unit_axes, unit_axes, unit_axes, angles, angles, angles)
@settings(max_examples=60, deadline=None)
def test_composition_associative(u, v, w, a, b, c):
    A = rotation_about_axis(u, a)
    B = rotation_about_axis(v, b)
    C = rotation_about_axis(w, c)
    left = (A @ B) @ C
    right = A @ (B @ C)
    assert np.linalg.norm(left - right) < 1e-12


@given(unit_axes, angles, angles)
@settings(max_examples=60, deadline=None)
def test_same_axis_angles_add(v, a, b):
    combined = rotation_about_axis(v, a) @ rotation_about_axis(v, b)
    direct = rotation_about_axis(v, a + b)
    assert np.linalg.norm(combined - direct) < 1e-10


@given(unit_axes, st.floats(-3.1, 3.1))
@settings(max_examples=60, deadline=None)
def test_axis_angle_vector_round_trip(v, a):
    m = rotation_about_axis(v, a)
    vec = axis_angle_vector(m)
    back = rotation_about_axis(vec / np.linalg.norm(vec), np.linalg.norm(vec)) if np.linalg.norm(vec) > 1e-12 else np.eye(3)
    assert np.linalg.norm(back - m) < 1e-8


def test_axis_angle_vector_of_exact_half_turns():
    # the skew part vanishes at pi, so the axis comes from the diagonal
    rng = np.random.default_rng(7)
    for axis in rng.normal(size=(200, 3)):
        axis /= np.linalg.norm(axis)
        m = rotation_about_axis(axis, math.pi)
        vec = axis_angle_vector(m)
        assert abs(np.linalg.norm(vec) - math.pi) < 1e-12
        back = rotation_about_axis(vec / np.linalg.norm(vec), np.linalg.norm(vec))
        assert np.max(np.abs(back - m)) < 1e-12


def test_tolerances_validation():
    with pytest.raises(InputError):
        Tolerances(angle_eps=0.0)
    with pytest.raises(InputError):
        Tolerances(angle_eps=1e-5)
    with pytest.raises(InputError):
        Tolerances(trace_step_max=0.06)
    for name in ("angle_eps", "residual_tol", "solver_tol", "trace_step_max"):
        for bad in (math.inf, math.nan):
            with pytest.raises(InputError, match=name):
                Tolerances(**{name: bad})
    # every rotation's residual is at most 2 sqrt 2, so 3 would certify any state
    for bad in (1e-6, 3.0):
        with pytest.raises(InputError, match="residual_tol"):
            Tolerances(residual_tol=bad)
    t = Tolerances()
    assert t.angle_eps == 1e-10 and t.residual_tol == 1e-9
    assert t.solver_tol == 1e-12 and t.trace_step_max == 0.01
