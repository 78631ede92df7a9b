import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidori.closure import closure_residual
from rigidori.errors import DegenerateVertexError, InputError
from rigidori.flatfold import MODE_1, MODE_2, fold_mode, mode_constants
from rigidori.vertex import Vertex4

PI = math.pi
SQ_TWIST = Vertex4((PI / 4, PI / 2, 3 * PI / 4, PI / 2))

ab = st.tuples(st.floats(0.2, PI - 0.2), st.floats(0.2, PI - 0.2))


def test_constants_for_square_twist_pair():
    k = mode_constants(PI / 4, PI / 2)
    assert abs(k.k1 - math.tan(PI / 8)) < 1e-12
    assert abs(k.k2 + math.tan(PI / 8)) < 1e-12


def test_equal_sectors_make_k2_vanish():
    for a in (0.4, 1.0, 2.2):
        assert mode_constants(a, a).k2 == pytest.approx(0.0, abs=1e-16)


def test_pi_third_pair_value():
    assert abs(mode_constants(PI / 3, PI / 2).k1 - (2.0 - math.sqrt(3.0))) < 1e-12


@given(ab)
@settings(max_examples=100, deadline=None)
def test_k1_closed_form_identity(pair):
    a, b = pair
    k = mode_constants(a, b)
    assert abs(k.k1 * math.cos(0.5 * (a - b)) - math.cos(0.5 * (a + b))) < 1e-12


@given(ab)
@settings(max_examples=100, deadline=None)
def test_constant_symmetry_relations(pair):
    a, b = pair
    k = mode_constants(a, b)
    assert abs(k.k1 - mode_constants(PI - a, b).k2) < 1e-12
    assert abs(k.k1 + mode_constants(a, PI - b).k2) < 1e-12
    assert abs(k.k2 - mode_constants(PI - a, b).k1) < 1e-12
    assert abs(k.k2 + mode_constants(a, PI - b).k1) < 1e-12


def test_degenerate_constant_raises():
    with pytest.raises(DegenerateVertexError):
        mode_constants(1e-14, 1e-14)  # sin((a+b)/2) ~ 0


def test_unfolded_state():
    s = fold_mode(SQ_TWIST, MODE_1, 0.0)
    assert s.rhos == (0.0, 0.0, 0.0, 0.0)


def test_reference_mode1_state():
    # the crease-indexing anchor: mode 1 at driver pi/2 on the square-twist
    # vertex folds the coupled crease to exactly -pi/4
    s = fold_mode(SQ_TWIST, MODE_1, PI / 2)
    assert s.rhos == pytest.approx((PI / 2, -PI / 4, PI / 2, PI / 4), abs=1e-14)
    assert closure_residual(SQ_TWIST, s) < 1e-13


def test_driver_pi_flat_folds_coupled_crease():
    s = fold_mode(SQ_TWIST, MODE_1, PI)
    assert abs(abs(s.rhos[1]) - PI) < 1e-15
    s2 = fold_mode(SQ_TWIST, MODE_2, -PI)
    assert abs(abs(s2.rhos[0]) - PI) < 1e-15


def test_mode_pairings():
    s1 = fold_mode(SQ_TWIST, MODE_1, 0.9)
    assert s1.rhos[0] == s1.rhos[2] and s1.rhos[1] == -s1.rhos[3]
    s2 = fold_mode(SQ_TWIST, MODE_2, 0.9)
    assert s2.rhos[1] == s2.rhos[3] and s2.rhos[0] == -s2.rhos[2]


@given(ab, st.floats(-3.1, 3.1), st.sampled_from([MODE_1, MODE_2]))
@settings(max_examples=150, deadline=None)
def test_mode_states_close_for_random_ff_vertices(pair, drv, mode):
    a, b = pair
    v = Vertex4((a, b, PI - a, PI - b))
    s = fold_mode(v, mode, drv)
    assert closure_residual(v, s) < 1e-9


@given(ab, st.floats(0.05, 3.0))
@settings(max_examples=80, deadline=None)
def test_half_angle_linearity(pair, drv):
    a, b = pair
    v = Vertex4((a, b, PI - a, PI - b))
    k = mode_constants(a, b)
    s = fold_mode(v, MODE_1, drv)
    t1 = math.tan(0.5 * s.rhos[0])
    t2 = math.tan(0.5 * s.rhos[1])
    assert abs(t2 + k.k1 * t1) <= 1e-10 * max(1.0, abs(t1))


def test_zero_constant_gives_flat_coupled_pair():
    v = Vertex4((0.7, PI - 0.7, PI - 0.7, 0.7))  # a + b = pi, so k1 = 0
    assert mode_constants(0.7, PI - 0.7).k1 == 0.0
    s = fold_mode(v, MODE_1, 1.3)
    assert s.rhos[0] == 1.3 and s.rhos[2] == 1.3
    assert abs(s.rhos[1]) < 1e-14 and abs(s.rhos[3]) < 1e-14
    assert closure_residual(v, s) < 1e-12
    # the mode curve tends to (+-pi, 0, +-pi, 0), flat fold included
    for drv in (PI, -PI, PI - 1e-12, -PI + 1e-12):
        assert fold_mode(v, MODE_1, drv).rhos == (drv, 0.0, drv, 0.0)


def test_rejects_non_flat_foldable():
    with pytest.raises(InputError):
        fold_mode(Vertex4((PI / 4, PI / 2, PI / 4, PI / 2)), MODE_1, 0.5)
    with pytest.raises(InputError):
        fold_mode(SQ_TWIST, 3, 0.5)
    with pytest.raises(InputError):
        fold_mode(SQ_TWIST, MODE_1, 3.5)
