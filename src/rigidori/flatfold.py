"""Closed-form kinematics of Euclidean flat-foldable degree-4 vertices.

A Euclidean flat-foldable vertex has sectors (a, b, pi - a, pi - b). Its
configuration space consists of exactly two curves through the unfolded
state, the folding modes, which are linear in the half-angle tangents
t_i = tan(rho_i / 2):

    mode 1:  rho1 = rho3,  rho2 = -rho4,  t2 = -k1 * t1
    mode 2:  rho2 = rho4,  rho1 = -rho3,  t1 =  k2 * t2

with the mode constants

    k1 = cos((a + b) / 2) / cos((a - b) / 2)
    k2 = sin((a - b) / 2) / sin((a + b) / 2)

The crease-index placement of the two modes under the package convention
is fixed by the closure oracle (see tests/test_flatfold.py for the
regression anchor on the reference vertex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, InputError
from .numerics import ANGLE_EPS, FLAT_FOLD_WINDOW
from .vertex import Curvature, FoldState, Vertex4, classify

MODE_1 = 1
MODE_2 = 2


@dataclass(frozen=True)
class ModeConstants:
    k1: float
    k2: float


def mode_constants(alpha: float, beta: float) -> ModeConstants:
    """Mode constants from the cosine/sine closed forms.

    The equivalent half-angle-tangent forms are k1 = (1 - ta*tb)/(1 + ta*tb)
    and k2 = (ta - tb)/(ta + tb) with ta = tan(alpha/2), tb = tan(beta/2);
    they are not used for evaluation. A numerator within ANGLE_EPS of 0
    is 0, as at alpha + beta = pi, where cos of the rounded pi / 2 is not.
    """
    if not (0.0 < alpha < math.pi and 0.0 < beta < math.pi):
        raise InputError("alpha and beta must lie in (0, pi)")
    den1 = math.cos(0.5 * (alpha - beta))
    den2 = math.sin(0.5 * (alpha + beta))
    if abs(den1) <= ANGLE_EPS:
        raise DegenerateVertexError("k1 is singular: cos((alpha-beta)/2) vanishes")
    if abs(den2) <= ANGLE_EPS:
        raise DegenerateVertexError("k2 is singular: sin((alpha+beta)/2) vanishes")
    num1 = math.cos(0.5 * (alpha + beta))
    num2 = math.sin(0.5 * (alpha - beta))
    return ModeConstants(
        k1=num1 / den1 if abs(num1) > ANGLE_EPS else 0.0,
        k2=num2 / den2 if abs(num2) > ANGLE_EPS else 0.0,
    )


def coupled_angle(k, driver: float):
    """2 atan(k tan(driver / 2)) for one mode coefficient k or elementwise
    for an array of them. At driver +-pi (within FLAT_FOLD_WINDOW) each
    coupled crease flat-folds by the sign of k * driver; k = 0 keeps it flat."""
    if abs(abs(driver) - math.pi) < FLAT_FOLD_WINDOW:
        return math.copysign(math.pi, driver) * np.sign(k)
    return 2.0 * np.arctan(np.multiply(k, math.tan(0.5 * driver)))


def fold_mode(v: Vertex4, mode: int, driver: float) -> FoldState:
    """Fold state of a Euclidean flat-foldable vertex on one mode.

    Mode 1 is driven by rho1, mode 2 by rho2. A vanishing mode constant
    (k1 = 0 when alpha + beta = pi, k2 = 0 when alpha = beta) makes the
    coupled pair identically flat; the state is still returned.
    """
    cls = classify(v)
    if cls.curvature is not Curvature.EUCLIDEAN or not cls.flat_foldable:
        raise InputError("fold_mode requires a Euclidean flat-foldable vertex")
    if not -math.pi <= driver <= math.pi:
        raise InputError("driver must lie in [-pi, pi]")
    k = mode_constants(v.alphas[0], v.alphas[1])
    if mode == MODE_1:
        coupled = coupled_angle(-k.k1, driver)
        return FoldState((driver, coupled, driver, -coupled))
    if mode == MODE_2:
        coupled = coupled_angle(k.k2, driver)
        return FoldState((coupled, driver, -coupled, driver))
    raise InputError("mode must be 1 or 2")

