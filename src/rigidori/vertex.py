"""Degree-4 vertex model: sector angles, classification, duality.

Crease numbering convention (used by every module in this package):
around the vertex, counterclockwise, the cycle is

    c1, alpha1, c2, alpha2, c3, alpha3, c4, alpha4, (back to c1)

i.e. crease ``i`` is immediately followed by sector ``alpha_i``, so crease
``i`` lies between sectors ``alpha_{i-1}`` and ``alpha_i`` (indices mod 4).
In the unfolded layout, crease ``i`` points at the cumulative angle
``alpha_1 + ... + alpha_{i-1}`` from crease 1. The fold angle ``rho_i``
lives on crease ``i``; positive fold angles are valleys, negative are
mountains. This is the one convention under which the closed-form mode
equations, the general opposite/adjacent relations, and the loop-closure
map are mutually consistent (locked by regression tests against the
closure oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InputError
from .numerics import ANGLE_EPS, half_tangent


class Curvature(Enum):
    EUCLIDEAN = "euclidean"
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Vertex4:
    """A degree-4 vertex given by its four sector angles, in cyclic order.

    Each sector must lie strictly inside (0, pi) so that the dual's
    sectors pi - alpha_i stay admissible, and the total cone angle must
    lie in (0, 4*pi).
    """

    alphas: tuple[float, float, float, float]

    def __init__(self, alphas):
        a = tuple(float(x) for x in alphas)
        if len(a) != 4:
            raise InputError("a degree-4 vertex needs exactly four sector angles")
        for x in a:
            if not math.isfinite(x) or not 0.0 < x < math.pi:
                raise InputError("sector angles must lie strictly in (0, pi)")
        if not 0.0 < sum(a) < 4.0 * math.pi:
            raise InputError("sector angle sum must lie in (0, 4*pi)")
        object.__setattr__(self, "alphas", a)

    def alpha(self, i: int) -> float:
        """Sector angle by 1-based cyclic index (alpha(0) == alpha(4))."""
        return self.alphas[(i - 1) % 4]

    def angle_sum(self) -> float:
        return sum(self.alphas)

    def kawasaki_defect(self) -> float:
        """Alternating sum alpha1 - alpha2 + alpha3 - alpha4."""
        a = self.alphas
        return a[0] - a[1] + a[2] - a[3]


@dataclass(frozen=True)
class VertexClass:
    curvature: Curvature
    flat_foldable: bool


@dataclass(frozen=True)
class FoldState:
    """Four fold angles rho_1..rho_4, one per crease, each in [-pi, pi]."""

    rhos: tuple[float, float, float, float]

    def __init__(self, rhos):
        r = tuple(float(x) for x in rhos)
        if len(r) != 4:
            raise InputError("a fold state needs exactly four fold angles")
        for x in r:
            if math.isnan(x) or abs(x) > math.pi + 1e-12:
                raise InputError("fold angles must lie in [-pi, pi]")
        object.__setattr__(self, "rhos", r)

    def half_tangents(self) -> tuple[float, float, float, float]:
        """t_i = tan(rho_i / 2); +-inf at rho_i = +-pi (numerics.half_tangent)."""
        return tuple(half_tangent(self.rhos).tolist())


ZERO_STATE = FoldState((0.0, 0.0, 0.0, 0.0))


def classify(v: Vertex4) -> VertexClass:
    """Curvature class from the cone angle, flat-foldability from the
    alternating-sum (Kawasaki) test, both thresholded at ANGLE_EPS."""
    excess = v.angle_sum() - 2.0 * math.pi
    if abs(excess) < ANGLE_EPS:
        curv = Curvature.EUCLIDEAN
    elif excess < 0.0:
        curv = Curvature.ELLIPTIC
    else:
        curv = Curvature.HYPERBOLIC
    return VertexClass(curv, abs(v.kawasaki_defect()) < ANGLE_EPS)


def dual(v: Vertex4) -> Vertex4:
    """The dual vertex (pi - alpha_1, ..., pi - alpha_4).

    Swaps elliptic and hyperbolic, preserves flat-foldability, and sends
    Euclidean flat-foldable vertices to a cyclic relabeling of themselves.
    """
    return Vertex4(tuple(math.pi - a for a in v.alphas))


def cyclically_equal(a: Vertex4, b: Vertex4, tol: float = 1e-12) -> bool:
    """True iff some cyclic rotation of a's sector list matches b's
    componentwise within tol. Reflections are NOT identified."""
    aa, bb = a.alphas, b.alphas
    for shift in range(4):
        if all(abs(aa[(i + shift) % 4] - bb[i]) <= tol for i in range(4)):
            return True
    return False


def vertex_to_dict(v: Vertex4) -> dict:
    """JSON form of a vertex; files always store radians."""
    return {"alphas": list(v.alphas), "units": "radians"}


def vertex_from_dict(data: dict) -> Vertex4:
    try:
        alphas = data["alphas"]
        if not isinstance(alphas, (list, tuple)):
            raise TypeError  # a string or an object would iterate as one
        alphas = [float(x) for x in alphas]
    except (KeyError, TypeError, ValueError):
        raise InputError("vertex JSON must contain an 'alphas' list of numbers") from None
    units = data.get("units", "radians")
    if units == "degrees":
        alphas = [math.radians(x) for x in alphas]
    elif units != "radians":
        raise InputError(f"unknown units {units!r}")
    return Vertex4(alphas)
