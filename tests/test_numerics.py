import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidori.errors import InputError
from rigidori.numerics import (
    ANGLE_EPS,
    RESIDUAL_TOL,
    SOLVER_TOL,
    Tolerances,
    axis_angle_vector,
    wrap_angle,
)
from rodrigues import rotation_about_axis

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


def test_axis_angle_vector_just_below_half_turns():
    # the skew part is only 1e-8 to 1e-10 here, so an axis read from it
    # carries its rounding divided by its norm
    rng = np.random.default_rng(11)
    angles = [*(math.pi - np.logspace(-10, -8, 21)), math.pi]
    for axis in rng.normal(size=(300, 3)):
        axis /= np.linalg.norm(axis)
        for a in angles:
            m = rotation_about_axis(axis, a)
            vec = axis_angle_vector(m)
            back = rotation_about_axis(vec / np.linalg.norm(vec), np.linalg.norm(vec))
            assert np.max(np.abs(back - m)) < 1e-14


def test_tolerances_validation():
    # the closure gate, the classification threshold and the oracle
    # tolerance are fixed; only the trace step is a setting
    assert (ANGLE_EPS, RESIDUAL_TOL, SOLVER_TOL) == (1e-10, 1e-9, 1e-12)
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["trace_step_max"]
    assert Tolerances().trace_step_max == 0.01
    assert Tolerances(trace_step_max=0.05).trace_step_max == 0.05
    for bad in (0.06, 0.0, -0.01, math.inf, math.nan):
        with pytest.raises(InputError, match="trace_step_max"):
            Tolerances(trace_step_max=bad)
