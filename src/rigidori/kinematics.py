"""General degree-4 vertex kinematics: opposite/adjacent half-angle-tangent
relations, state solving, closed-form folding ranges, configuration-curve
tracing, and the duality verification machinery.

The two governing relations, in the package crease convention and with
t_i = tan(rho_i / 2):

opposite creases (i and i+2):

    t_i^2 = [-(1 + t^2) cos(a_{i-1} + a_i) + t^2 cos(a_{i+1} - a_{i+2})
             + cos(a_{i+1} + a_{i+2})]
          / [ (1 + t^2) cos(a_{i-1} - a_i) - t^2 cos(a_{i+1} - a_{i+2})
             - cos(a_{i+1} + a_{i+2})],        t = t_{i+2}

adjacent creases (i and i+1):

    cos(a_{i+2}) (1 + t_i^2)(1 + t_{i+1}^2)
        = cos(a_{i+1} - a_i - a_{i-1}) t_{i+1}^2
        + cos(a_{i+1} + a_i - a_{i-1}) t_i^2          <- corrected slot
        + cos(a_{i+1} - a_i + a_{i-1}) t_i^2 t_{i+1}^2
        + cos(a_{i+1} + a_i + a_{i-1})
        + 4 sin(a_{i+1}) sin(a_{i-1}) t_i t_{i+1}.

The "corrected slot" term is quadratic in t_i; written with t_{i+1}^2
there instead, the relation contradicts both the closed-form flat-foldable
modes and the closure oracle (see adjacent_origin_slopes and the tests).
The uncorrected variant stays available behind ``corrected=False`` for
comparison. A vertex is a spherical four-bar linkage (Chiang, Kinematics
of Spherical Mechanisms, 1988; Izmestiev, IMRN 2017): at a driver the
opposite relation fixes t_opp = +-m, one assembly each, with opposite
(d, d+2) pair signs, so a branch label admits one state per driver, up to
the sign of a crease at +-pi; each crease beside the driver is the common
root of its two adjacent relations. The coefficients are fixed per
vertex, so the states of a whole driver array are solved in closed form
and certified against the closure loop, the only gate, at once
(VertexKinematics._candidate_table); the traces of all four branches at
one driver crease read one table over all their samples (_sample_table).

Folding ranges are closed form: the adjacent relation is quadratic in
each tangent with coefficients affine in s = t_d^2, so every driver at
which a fold state appears, merges or flat-folds is +-2 atan(sqrt(s))
for a real root s of a polynomial of degree <= 2
(VertexKinematics._breakpoints). Between neighbouring roots the branch's
states vary continuously without a sign change, so one certified check
per cell decides the range; the checks of every branch share one table
per driver crease (_cell_table). Each breakpoint carries the tag of its
polynomial (qa, qc or disc of an adjacent pair, or zero and pi for
driver 0 and +-pi), and a range end's cause is read from the tag of the
breakpoint that ends it. Negating every fold angle fixes every sector
rotation of the loop, so ranges are computed on [0, pi] and mirrored.

Both relations are invariant under a_i -> pi - a_i up to sign flips of one
opposite crease pair, which is the elliptic-hyperbolic duality; see
verify_duality and _DUAL_SIGNS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# oracle_solve is unused here, but bench/spans.py times it in every module that binds it
from .closure import LoopEvaluator, oracle_solve  # noqa: F401
from .errors import (
    BranchNotRealizableError,
    DegenerateConfigurationError,
    InfeasibleDriverError,
    InputError,
    NoRealFoldError,
    TraceAbortError,
)
from .numerics import DEFAULT_TOL, Tolerances, half_tangent
from .vertex import FoldState, Vertex4, dual

_COEF_EPS = 1e-13
_SIGN_EPS = 2e-8  # fold angles below this (tangents below 1e-8) count as degenerate for labeling


@dataclass(frozen=True)
class BranchLabel:
    """Sign structure of a configuration-space branch.

    opposite_sign_1 is the relative sign within the (t1, t3) crease pair
    (+1 when the pair folds with equal-signed tangents, -1 when opposite),
    opposite_sign_2 the same for (t2, t4). The four combinations enumerate
    all candidate branches; only those passing closure are realizable.
    """

    opposite_sign_1: int
    opposite_sign_2: int

    def __post_init__(self):
        if self.opposite_sign_1 not in (-1, 1) or self.opposite_sign_2 not in (-1, 1):
            raise InputError("branch signs must be +1 or -1")

    @property
    def signs(self) -> tuple[int, int]:
        return self.opposite_sign_1, self.opposite_sign_2

    def matches(self, state: FoldState) -> bool:
        """Degenerate (near-zero) fold angles act as wildcards."""
        return bool(_admitted(_pair_signs(np.array(state.rhos)), self.signs))


BRANCH_PP = BranchLabel(+1, +1)
BRANCH_PM = BranchLabel(+1, -1)
BRANCH_MP = BranchLabel(-1, +1)
BRANCH_MM = BranchLabel(-1, -1)
ALL_BRANCHES = (BRANCH_PP, BRANCH_PM, BRANCH_MP, BRANCH_MM)
_LABEL_SIGNS = np.array([b.signs for b in ALL_BRANCHES])

#: Branch labels of the two flat-foldable modes (regression-locked).
MODE1_BRANCH = BRANCH_PM
MODE2_BRANCH = BRANCH_MP


def _pair_signs(rho: np.ndarray) -> np.ndarray:
    """Signs of the crease pairs (1, 3) and (2, 4) of fold angles
    (..., 4), shape (..., 2): +1 when a pair's angles share a sign, -1
    when not, 0 when one lies within _SIGN_EPS of 0."""
    sign = np.where(np.abs(rho) > _SIGN_EPS, np.sign(rho), 0.0)
    return sign[..., :2] * sign[..., 2:]


def _admitted(signs: np.ndarray, label_signs) -> np.ndarray:
    """Whether label signs (..., 2) of +-1 admit pair signs (..., 2),
    broadcast: each pair sign equals its label's or is 0, a wildcard, so
    its product with the label's is not negative."""
    label = np.asarray(label_signs)
    return (signs[..., 0] * label[..., 0] >= 0) & (signs[..., 1] * label[..., 1] >= 0)


# ---------------------------------------------------------------------------
# the two analytic relations


def _opposite_coefs(v: Vertex4, i: int) -> tuple[float, float, float, float]:
    """Cosines of the opposite relation that gives t_i from t_{i+2}."""
    a = v.alpha
    return (
        math.cos(a(i - 1) + a(i)),
        math.cos(a(i - 1) - a(i)),
        math.cos(a(i + 1) - a(i + 2)),
        math.cos(a(i + 1) + a(i + 2)),
    )


_NO_REAL_FOLD, _INDETERMINATE = 1, 2  # failure codes of _opposite_sq; 0 is solvable


def _opposite_sq(coefs, t_opp: np.ndarray):
    """opposite_t_squared from ``_opposite_coefs(v, i)`` over an array of
    t_{i+2}: t_i^2 (0 where there is none), a failure code per entry and
    the ratio behind it (NaN where the denominator vanishes)."""
    c_sum_in, c_dif_in, c_dif_op, c_sum_op = coefs
    at_inf = np.isinf(t_opp)
    t = np.where(at_inf, 0.0, t_opp)
    s2 = t * t
    num = np.where(at_inf, -c_sum_in + c_dif_op, -(1.0 + s2) * c_sum_in + s2 * c_dif_op + c_sum_op)
    den = np.where(at_inf, c_dif_in - c_dif_op, (1.0 + s2) * c_dif_in - s2 * c_dif_op - c_sum_op)
    vanishing = np.abs(den) < _COEF_EPS
    ratio = np.where(vanishing, np.nan, num / np.where(vanishing, 1.0, den))
    ratio = np.where(np.abs(ratio) < 1e-13, 0.0, ratio)  # fp noise at exact zeros of num
    code = np.where(ratio < 0.0, _NO_REAL_FOLD, 0)
    if vanishing.any():
        code[vanishing & (num <= 0)] = _NO_REAL_FOLD
        code[vanishing & (np.abs(num) < _COEF_EPS)] = _INDETERMINATE
    value = np.where(code != 0, 0.0, np.where(vanishing, np.inf, ratio))
    return value, code, ratio


def _opposite_error(i: int, code: int, ratio: float) -> Exception:
    """The exception of a failure code of _opposite_sq at crease i."""
    if code == _INDETERMINATE:
        return DegenerateConfigurationError(f"opposite relation indeterminate (0/0) at crease {i}")
    detail = "" if math.isnan(ratio) else f" (ratio {ratio:.3e})"
    return NoRealFoldError(f"no real solution for t_{i}^2 at this driver{detail}")


def opposite_t_squared(v: Vertex4, i: int, t_opp: float) -> float:
    """t_i^2 from the opposite-crease relation, given t_{i+2} = t_opp.

    Infinite t_opp (a flat-folded opposite crease) is handled by the
    coefficient-ratio limit, never by evaluating tan at pi/2. Raises
    NoRealFoldError when the ratio is negative (no real fold at this
    driver) and DegenerateConfigurationError on 0/0.
    """
    value, code, ratio = _opposite_sq(_opposite_coefs(v, i), np.array([float(t_opp)]))
    if code[0]:
        raise _opposite_error(i, code[0], ratio[0])
    return float(value[0])


def _adjacent_coefs(v: Vertex4, i: int) -> tuple[float, float, float, float, float, float]:
    """Coefficients (cA, c1..c5) of the adjacent relation for the pair (i, i+1)."""
    a = v.alpha
    return (
        math.cos(a(i + 2)),
        math.cos(a(i + 1) - a(i) - a(i - 1)),
        math.cos(a(i + 1) + a(i) - a(i - 1)),
        math.cos(a(i + 1) - a(i) + a(i - 1)),
        math.cos(a(i + 1) + a(i) + a(i - 1)),
        4.0 * math.sin(a(i + 1)) * math.sin(a(i - 1)),
    )


def adjacent_residual(v: Vertex4, i: int, t_i: float, t_next: float, corrected: bool = True) -> float:
    """LHS - RHS of the adjacent-crease relation for the pair (i, i+1).

    Zero (to scale) iff the pair is kinematically consistent. With
    ``corrected=False`` evaluates the uncorrected variant whose second
    quadratic term sits on t_{i+1}^2; kept only for comparison.
    """
    if not (math.isfinite(t_i) and math.isfinite(t_next)):
        raise InputError("adjacent_residual requires finite tangents")
    cA, c1, c2, c3, c4, c5 = _adjacent_coefs(v, i)
    second = t_i * t_i if corrected else t_next * t_next
    lhs = cA * (1.0 + t_i * t_i) * (1.0 + t_next * t_next)
    rhs = (
        c1 * t_next * t_next
        + c2 * second
        + c3 * t_i * t_i * t_next * t_next
        + c4
        + c5 * t_i * t_next
    )
    return lhs - rhs


def adjacent_origin_slopes(v: Vertex4, i: int = 1, corrected: bool = True) -> tuple[float, float]:
    """Slopes t_{i+1}/t_i of the adjacent relation's zero set through the
    unfolded state (meaningful for Euclidean vertices).

    For a Euclidean flat-foldable vertex the corrected relation yields
    exactly the two mode lines {-k1, 1/k2}.
    """
    cA, c1, c2, c3, c4, c5 = _adjacent_coefs(v, i)
    if corrected:
        qa, qb, qc = cA - c1, -c5, cA - c2
    else:
        qa, qb, qc = cA - c1 - c2, -c5, cA
    if abs(qa) < _COEF_EPS:
        if abs(qb) < _COEF_EPS:
            raise DegenerateConfigurationError("origin slope equation is degenerate")
        return (-qc / qb, math.inf)
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise NoRealFoldError("no real through-origin fold directions")
    r = math.sqrt(disc)
    m1 = (-qb - r) / (2.0 * qa)
    m2 = (-qb + r) / (2.0 * qa)
    return tuple(sorted((m1, m2)))


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


def _swapped(coefs):
    """Adjacent coefficients with c1 <-> c2, which swaps t_i and t_{i+1}."""
    cA, c1, c2, c3, c4, c5 = coefs
    return cA, c2, c1, c3, c4, c5


def _adjacent_quadratic(coefs, s, c):
    """The corrected adjacent relation as a quadratic form (qa, qb, qc) in
    (sin, cos) of rho_{i+1} / 2, given (s, c) of rho_i / 2 (pass _swapped
    coefficients for the reverse), elementwise; +-pi is c = 0."""
    cA, c1, c2, c3, c4, c5 = coefs
    ss, cc = s * s, c * c
    # factored like _breakpoints: cA (1 + t^2) - c1 - c3 t^2 cancels near +-pi
    return (cA - c1) * cc + (cA - c3) * ss, -c5 * s * c, (cA - c4) * cc + (cA - c2) * ss


def _double(disc, scale):
    """Whether a discriminant is a double root's: within 1e-12 scale^2 of 0, or above -1e-10 scale^2."""
    return (np.abs(disc) < 1e-12 * scale * scale) | (disc < 0) & (disc > -1e-10 * scale * scale)


def _form_roots(qa, qb, qc):
    """The fold angles of both roots of qa s^2 + qb s c + qc c^2 = 0 in
    (sin, cos) of their halves, elementwise, NaN where there is none: by
    the stable quadratic formula s : c = q : qa and qc : q, so c = 0 is +-pi.
    Coefficients below _COEF_EPS of the largest are 0; a _double discriminant
    is 0 unless qa or qc is; roots within 1e-9 are one, the first."""
    scale = np.maximum(np.maximum(np.abs(qa), np.abs(qb)), np.abs(qc))
    qa, qb, qc = (np.where(np.abs(k) < _COEF_EPS * scale, 0.0, k) for k in (qa, qb, qc))
    disc = qb * qb - 4.0 * qa * qc
    disc = np.where(_double(disc, scale) & (qa * qc != 0), 0.0, disc)
    with np.errstate(divide="ignore", invalid="ignore"):  # s : 0 is +-pi, 0 : 0 none
        q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
        first, second = 2.0 * np.arctan(q / qa), 2.0 * np.arctan(qc / q)
    first = np.where(np.isnan(first), second, first)
    return first, np.where(_gap(first, second) < 1e-9, np.nan, second)


def _gap(a, b):
    """|a - b| as fold angles, modulo 2 pi, elementwise."""
    return np.abs(np.remainder(a - b + math.pi, 2.0 * math.pi) - math.pi)


# ---------------------------------------------------------------------------
# candidate tables


class _CandidateTable(NamedTuple):
    """The closure-certified states of one driver crease at n drivers, read-
    only: ``rhos`` (k, 4) by driver and then in rhos (lexicographic) order,
    -pi before pi, driver j's in rows starts[j]:starts[j + 1]; ``residuals``,
    their closure certificates; ``admits`` (k, 4), whether each label of
    ALL_BRANCHES admits each; and the opposite relation's failure per driver.
    """

    rhos: np.ndarray
    residuals: np.ndarray
    admits: np.ndarray
    starts: np.ndarray
    error: np.ndarray
    ratio: np.ndarray
    crease: int  # the opposite crease's number in error messages

    def check(self, j: int) -> None:
        """Raise the opposite relation's failure at driver j, if any."""
        if self.error[j]:
            raise _opposite_error(self.crease, self.error[j], self.ratio[j])

    def index(self, branch: BranchLabel | None = None, start: int = 0, stop: int | None = None):
        """Per driver start..stop-1 (all by default), the numbers of its rows
        on ``branch`` (any when None); degenerate pair signs are wildcards."""
        bounds = self.starts[start : None if stop is None else stop + 1]
        k = np.arange(bounds[0], bounds[-1])
        if branch is not None:
            k = k[self.admits[k, ALL_BRANCHES.index(branch)]]
        ends = np.searchsorted(k, bounds[1:]).tolist()
        k = k.tolist()
        return [k[a:b] for a, b in zip([0] + ends, ends)]

    def rows(self, branch: BranchLabel | None = None, start: int = 0, stop: int | None = None):
        """The rows that ``index`` numbers, as lists of four fold angles."""
        flat = self.rhos.tolist()
        return [[flat[i] for i in ix] for ix in self.index(branch, start, stop)]


#: endpoint cause of each breakpoint tag, in the priority that keeps one tag where roots merge
_TAG_CAUSES = {"pi": "flat_folded_crease", "qa": "flat_folded_crease", "disc": "driver_limit",
               "qc": "crease_through_zero", "zero": "crease_through_zero"}


class _CellTable(NamedTuple):
    """The driver-only part of one crease's folding ranges on [0, pi]: the
    breakpoints, a table at the cell midpoints and then the breakpoints,
    each breakpoint's endpoint cause, and whether the unfolded state closes."""

    breakpoints: tuple[float, ...]
    table: _CandidateTable
    causes: tuple[str, ...]
    unfolded_closes: bool


class VertexKinematics:
    """Per-vertex solver context: the loop evaluator and the relation
    coefficients, computed once, plus candidate enumeration, solving,
    range detection and curve tracing. Per driver crease it keeps a cell
    table and, per n_samples, a table of every branch's trace samples, all
    read-only and built on first use; a race there builds one twice."""

    def __init__(self, v: Vertex4, tol: Tolerances = DEFAULT_TOL):
        self.vertex = v
        self.tol = tol
        self.loop = LoopEvaluator(v)
        self._opp = [_opposite_coefs(v, i) for i in (1, 2, 3, 4)]
        self._adj = [_adjacent_coefs(v, i) for i in (1, 2, 3, 4)]
        self._cells: dict[int, _CellTable] = {}
        self._samples: dict[tuple[int, int], tuple] = {}

    # -- candidate enumeration ------------------------------------------

    def _candidate_table(self, driver_index: int, drivers) -> _CandidateTable:
        """The closure-certified states at every given driver, in one batch:
        two assemblies t_opp = +-m; each crease beside the driver is a common
        root of its relations p (with the driver) and q (with the opposite
        crease), quadratic forms in its half angle, so its (sin^2, sin cos,
        cos^2) is proportional to p x q. Rounding moves that angle by about
        w = 1e-16 (|p| + |q|) / |p x q|; it picks the one root of p within 1e4 w,
        else is used itself. Both roots of p are candidates where it cannot tell
        them apart; of q where |p| < _COEF_EPS; 0 and pi where |q| is too. A
        crease within 2e-12 of 0 is 0; one beside the driver within 2e-12 of
        +-pi is listed as -pi and pi. One closure batch certifies all rows."""
        d = (driver_index - 1) % 4
        nxt, opp, far = (d + 1) % 4, (d + 2) % 4, (d + 3) % 4
        drv = np.array(drivers, dtype=float)
        n = len(drv)
        m_sq, error, ratio = _opposite_sq(self._opp[opp], half_tangent(drv))
        half = np.where(error == 0, np.arctan(np.sqrt(m_sq)), np.nan)[:, None] * [1.0, -1.0]
        half[m_sq == 0, 1] = np.nan  # the opposite crease's half angle per (driver, assembly)
        adj = self._adj  # (coefficient, side, driver, assembly) for the next and the far crease
        beside = np.array([adj[d], _swapped(adj[far])]).T[..., None, None]
        across = np.array([_swapped(adj[nxt]), adj[opp]]).T[..., None, None]
        p = np.array(_adjacent_quadratic(beside, np.sin(0.5 * drv)[:, None], np.cos(0.5 * drv)[:, None]))
        q = np.array(_adjacent_quadratic(across, np.sin(half), np.cos(half)))
        x = np.array([p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]])
        size_p, size_q, size_x = (np.sqrt((a * a).sum(0)) for a in (p, q, x))
        sign = np.where(x[0] + x[2] < 0.0, -1.0, 1.0)
        common, roots = np.arctan2(2.0 * sign * x[1], sign * (x[2] - x[0])), np.array(_form_roots(*p))
        with np.errstate(divide="ignore", invalid="ignore"):
            window = 1e-12 * (size_p + size_q) / size_x
        near, double = _gap(roots, common) < window, np.isnan(roots[1])
        shared = near[0] & np.where(double, window > 1e-6, near[1])
        one = (near[0] != near[1]) & ~double
        rho = np.where(shared, roots[0], np.where(one, np.where(near[1], roots[1], roots[0]), common))
        alt = np.where(shared, roots[1], np.nan)
        free = size_p < _COEF_EPS
        if free.any():
            free = np.broadcast_to(free, rho.shape)
            both = np.array(_form_roots(*q[:, free]))
            both[:, (size_q < _COEF_EPS)[free]] = [[0.0], [math.pi]]
            rho[free], alt[free] = both

        snap = np.array([rho, alt])
        snap = np.where(np.abs(np.abs(snap) - math.pi) < 2e-12, np.copysign(math.pi, snap), snap)
        rows, (rho, alt) = np.empty((n, 2, 4)), np.where(np.abs(snap) < 2e-12, 0.0, snap)
        rows[..., d], rows[..., opp] = np.where(np.abs(drv) < 2e-12, 0.0, drv)[:, None], 2.0 * half
        rows[..., nxt], rows[..., far] = rho
        rows, src = rows.reshape(-1, 4), np.arange(2 * n)  # src: each row's (driver, assembly)
        for col, other in zip((nxt, far), alt.reshape(2, -1)):
            rows, src = _fork(rows, src, col, other[src])
        for col in (nxt, far):
            rows, src = _fork(rows, src, col, np.where(np.abs(rows[:, col]) == math.pi, -rows[:, col], np.nan))
        rows, src = rows[~np.isnan(rows).any(1)], src[~np.isnan(rows).any(1)]
        residuals = self.loop.residuals(rows)
        closes = residuals < self.tol.residual_tol
        rows, residuals, owner = rows[closes], residuals[closes], src[closes] // 2
        order = np.lexsort((*rows.T[::-1], owner))
        rows, residuals, owner = rows[order], residuals[order], owner[order]
        admits = _admitted(_pair_signs(rows)[:, None], _LABEL_SIGNS)
        arrays = (rows, residuals, admits, np.searchsorted(owner, np.arange(n + 1)), error, ratio)
        for arr in arrays:
            arr.flags.writeable = False
        return _CandidateTable(*arrays, opp + 1)

    def certified_candidates(self, driver_index: int, driver: float) -> list[FoldState]:
        """All closure-certified states with the given driver angle, in
        rhos order: the one-driver case of _candidate_table."""
        table = self._candidate_table(driver_index, [driver])
        table.check(0)
        return [FoldState(r) for r in table.rows()[0]]

    # -- solving ----------------------------------------------------------

    def solve_state(self, driver_index: int, driver: float, branch: BranchLabel) -> FoldState:
        if not -math.pi <= driver <= math.pi:
            raise InputError("driver must lie in [-pi, pi]")
        table = self._candidate_table(driver_index, [driver])
        try:
            table.check(0)
        except NoRealFoldError as exc:
            raise InfeasibleDriverError(str(exc)) from exc
        if table.starts[1] == 0:
            raise BranchNotRealizableError(f"no sign assignment passes closure at driver {driver:.6g}")
        states = table.rows(branch)[0]
        if not states:
            raise BranchNotRealizableError(f"branch {branch} not realizable at driver {driver:.6g}")
        return FoldState(states[0])

    # -- folding range ----------------------------------------------------

    def _breakpoints(self, d: int) -> list[tuple[float, str]]:
        """Sorted (driver, tag) pairs in [0, pi] of crease d (0-based) at
        which a fold state can appear, merge or flat-fold: (0, zero),
        (pi, pi) and 2 atan(sqrt(s)) for the real roots s >= 0 of
        polynomials in s = t_d^2 of degree <= 2, tagged by their
        polynomial. Those in [-pi, 0] are their mirror images.

        For each adjacent pair at the driver these are the coefficients
        qa and qc (the neighbour's tangent at inf or 0) and the
        discriminant c5^2 s - 4 qa qc (tag disc: a double root). The
        opposite crease reaches 0 or pi only at such a double root, where
        the driver is at a limit position, so the zeros of the opposite
        relation's numerator and denominator add nothing. Roots within
        1e-9 merge into the first, with the tag first in _TAG_CAUSES.
        """
        polys = []
        for coefs in (self._adj[d], _swapped(self._adj[(d + 3) % 4])):
            cA, c1, c2, c3, c4, c5 = coefs
            a0, a1 = cA - c1, cA - c3  # qa = a0 + a1 s
            q0, q1 = cA - c4, cA - c2  # qc = q0 + q1 s
            polys += [
                (a0, a1, 0.0),
                (q0, q1, 0.0),
                (-4.0 * a0 * q0, c5 * c5 - 4.0 * (a0 * q1 + a1 * q0), -4.0 * a1 * q1),
            ]
        p0, p1, p2 = np.array(polys).T
        roots, valid, _ = _quadratic_roots(p2, p1, p0)
        out = {0.0: "zero", math.pi: "pi"}
        for k, j in zip(*np.nonzero(valid)):
            s = float(roots[k, j])
            if not math.isfinite(s) or s < -1e-12:
                continue
            tag = ("qa", "qc", "disc")[k % 3]
            x = 2.0 * math.atan(math.sqrt(s)) if s >= 1e-12 else 0.0
            x = next((y for y in out if abs(x - y) <= 1e-9), x)
            out[x] = min(out.get(x, tag), tag, key=list(_TAG_CAUSES).index)
        return sorted(out.items())

    def _cell_table(self, driver_index: int) -> _CellTable:
        d = (driver_index - 1) % 4
        if d not in self._cells:
            bps, tags = zip(*self._breakpoints(d))
            mids = [0.5 * (lo + hi) for lo, hi in zip(bps, bps[1:])]
            table = self._candidate_table(driver_index, mids + list(bps))
            unfolded = bool(self.loop.residual(np.zeros(4)) < self.tol.residual_tol)
            self._cells[d] = _CellTable(bps, table, tuple(_TAG_CAUSES[t] for t in tags), unfolded)
        return self._cells[d]

    def folding_range(self, driver_index: int, branch: BranchLabel) -> "FoldingRange":
        """Maximal driver intervals of the branch: the runs of an exact
        cell decomposition of [0, pi] at the relations' breakpoints, and
        their mirror images, since negating every fold angle maps the
        branch's states at x to those at -x.

        A cell belongs to the branch when a certified branch state exists
        at its midpoint; a branch label admits one state per driver, so
        neighbouring cells join across every inner breakpoint. The run
        from driver 0 joins its mirror only through a state that is its
        own mirror image: when the unfolded state closes, or when a branch
        state at 0 keeps each crease's sign, or is 0, in the first branch
        row r at the first midpoint and in r's mirror (_keeps_signs); the
        mirror negates every crease but one at exactly +-pi, as rhos order
        lists -pi first. Runs narrower than 1e-6 are isolated degenerate
        points. Each end in (0, pi] is the breakpoint itself, or the
        nearest point at most 1e-6 inside it, that has a certified state;
        its cause is that of the breakpoint's tag (see FoldingRange). A
        mirrored end is 0.0 - x. Only the branch filter is done per call.
        """
        cells = self._cell_table(driver_index)
        bps = cells.breakpoints
        nc = len(bps) - 1
        rows = cells.table.rows(branch)
        mid, at = rows[:nc], rows[nc:]
        runs: list[list[int]] = []  # [first, last] member cell per run
        for k in (k for k in range(nc) if mid[k]):
            if runs and runs[-1][1] == k - 1:
                runs[-1][1] = k
            else:
                runs.append([k, k])
        r = mid[0][0] if mid[0] else ()  # the branch's state at the first midpoint, and its mirror
        mirror = [x if abs(x) == math.pi else -x for x in r]
        joined = bool(r) and (cells.unfolded_closes or any(_keeps_signs(s, (r, mirror)) for s in at[0]))
        intervals, causes = [], []  # in driver order: each mirror goes in front
        for first, last in runs:
            through = joined and first == 0
            if bps[last + 1] - (-bps[last + 1] if through else bps[first]) < 1e-6:
                continue  # isolated degenerate point, not a branch arc
            hi, cause_hi = self._endpoint(driver_index, branch, cells, last, -1.0, at[last + 1])
            if through:
                lo, cause_lo = 0.0 - hi, cause_hi
            else:
                lo, cause_lo = self._endpoint(driver_index, branch, cells, first, +1.0, at[first])
                intervals.insert(0, (0.0 - hi, 0.0 - lo))
                causes.insert(0, (cause_hi, cause_lo))
            intervals.append((lo, hi))
            causes.append((cause_lo, cause_hi))
        diagnostic = ""
        if not intervals:
            what = "only isolated degenerate states" if runs else "no closure-certified state"
            diagnostic = f"{what} on this branch at any driver"
        return FoldingRange(tuple(intervals), tuple(causes), diagnostic)

    def _endpoint(self, driver_index, branch, cells, k, inward, states) -> tuple[float, str]:
        """The first driver with a certified branch state among the end
        cell k's breakpoint and the points 1e-12, 1e-11, ..., 1e-6 inside
        it, falling back to the cell midpoint, which has one; and the
        breakpoint's cause. ``states`` are the branch states at the breakpoint."""
        lo, hi = cells.breakpoints[k : k + 2]
        b = k if inward > 0 else k + 1
        drv = cells.breakpoints[b]
        if not states:
            offsets = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 0.5 * (hi - lo))
            drivers = [drv + inward * off for off in offsets]
            rows = self._candidate_table(driver_index, drivers).rows(branch)
            drv = next(x for x, found in zip(drivers, rows) if found)
        return drv, cells.causes[b]

    # -- tracing ----------------------------------------------------------

    def _sample_table(self, driver_index: int, n_samples: int):
        """One candidate table over every branch's sample drivers (None when
        no branch folds) and, per branch, its folding range, its drivers
        across its longest interval and their offset into the table."""
        key = ((driver_index - 1) % 4, n_samples)
        if key not in self._samples:
            parts, drivers = {}, []
            for branch in ALL_BRANCHES:
                rng, drv = self.folding_range(driver_index, branch), ()
                if rng.intervals:
                    lo, hi = max(rng.intervals, key=lambda iv: iv[1] - iv[0])
                    span = hi - lo
                    n = max(n_samples, int(math.ceil(span / self.tol.trace_step_max)) + 1)
                    drv = tuple(lo + span * k / (n - 1) for k in range(n))
                parts[branch] = (rng, drv, len(drivers))
                drivers += drv
            table = self._candidate_table(driver_index, drivers) if drivers else None
            self._samples[key] = (table, parts)
        return self._samples[key]

    def trace_curve(self, driver_index: int, branch: BranchLabel, n_samples: int) -> "ConfigCurve":
        """The branch's state at each sample driver across the range's
        longest interval, the first of equal ones: on a range split at 0,
        the one in [-pi, 0], whose negated rows trace the other. A branch
        label admits one state per driver, so a sample inside a cell takes
        its first branch row; further rows only flip a crease at +-pi, and
        rhos order lists -pi first. A sample on a breakpoint (either end,
        or driver 0) is the limit of its cells' states: it takes the row
        nearest its neighbouring samples among those that keep each of
        their crease signs or are 0 there (_keeps_signs)."""
        if n_samples < 2:
            raise InputError("n_samples must be at least 2")
        table, parts = self._sample_table(driver_index, n_samples)
        rng, drivers, offset = parts[branch]
        if not rng.intervals:
            raise InfeasibleDriverError(f"empty folding range for branch {branch}: {rng.diagnostic}")
        n = len(drivers)
        index = table.index(branch, offset, offset + n)
        picked = []
        for k, (drv, cands) in enumerate(zip(drivers, index)):
            pick = cands[0] if cands else None
            if k in (0, n - 1) or drv == 0.0:
                near = table.rhos[[index[j][0] for j in (k - 1, k + 1) if 0 <= j < n and index[j]]].tolist()
                rows = dict(zip(cands, table.rhos[cands].tolist()))
                pick = min((i for i in cands if _keeps_signs(rows[i], near)), default=None,
                           key=lambda i: sum((a - b) ** 2 for r in near for a, b in zip(rows[i], r)))
            if pick is None:
                raise TraceAbortError(f"no branch state continues the trace at driver {drv:.6g}")
            picked.append(pick)
        return ConfigCurve(vertex=self.vertex, branch=branch, driver_index=driver_index, drivers=tuple(drivers),
                           rhos=tuple(map(tuple, table.rhos[picked].tolist())),
                           residuals=tuple(table.residuals[picked].tolist()), tol=self.tol)


def _fork(rows, src, col, alt):
    """(rows, src), then a copy of each row whose alt is a number, alt in column col."""
    pick = np.flatnonzero(~np.isnan(alt))
    if not pick.size:
        return rows, src
    extra = rows[pick]
    extra[:, col] = alt[pick]
    return np.concatenate([rows, extra]), np.concatenate([src, src[pick]])


def _keeps_signs(row, refs) -> bool:
    """Whether each crease of ``row`` is 0 or has its sign in every row of
    ``refs``: the limit of those states keeps their signs."""
    return all(x == 0 or all(x * y > 0 for y in ys) for x, *ys in zip(row, *refs))


@dataclass(frozen=True)
class FoldingRange:
    """Maximal feasible driver interval(s) of a branch. Each end's cause is
    the tag of the breakpoint that ends it: flat_folded_crease (pi, qa: the
    driver or a crease beside it reaches +-pi), crease_through_zero (zero,
    qc: it passes through 0) or driver_limit (disc: the driver turns back)."""

    intervals: tuple[tuple[float, float], ...]
    endpoint_causes: tuple[tuple[str, str], ...]
    diagnostic: str = ""

    def __bool__(self):
        return bool(self.intervals)


@dataclass(frozen=True)
class ConfigCurve:
    """An ordered, closure-certified trace of one configuration branch:
    ``rhos`` holds each sample's fold angles, ``residuals`` their table's certificates."""

    vertex: Vertex4
    branch: BranchLabel
    driver_index: int
    drivers: tuple[float, ...]
    rhos: tuple[tuple[float, float, float, float], ...]
    residuals: tuple[float, ...]
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)

    @property
    def samples(self) -> tuple[FoldState, ...]:
        """The sample rows as FoldStates, built on each read."""
        return tuple(map(FoldState, self.rhos))

    def __post_init__(self):
        if len(self.rhos) != len(self.drivers) or len(self.residuals) != len(self.drivers):
            raise InputError("curve arrays must have equal length")
        for r in self.residuals:
            if not r < self.tol.residual_tol:
                raise InputError("curve contains a non-certified sample")
        diffs = [b - a for a, b in zip(self.drivers, self.drivers[1:])]
        if diffs:
            if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
                raise InputError("driver must be strictly monotone along the curve")
            if max(abs(d) for d in diffs) > self.tol.trace_step_max + 1e-12:
                raise InputError("driver step exceeds trace_step_max")


# ---------------------------------------------------------------------------
# module-level convenience wrappers (one-shot calls)


def solve_state(v: Vertex4, driver_index: int, driver: float, branch: BranchLabel,
                tol: Tolerances = DEFAULT_TOL) -> FoldState:
    """The unique closure-certified state on `branch` with the given
    driver angle at crease `driver_index`."""
    return VertexKinematics(v, tol).solve_state(driver_index, driver, branch)


def folding_range(v: Vertex4, driver_index: int, branch: BranchLabel, tol: Tolerances = DEFAULT_TOL) -> FoldingRange:
    return VertexKinematics(v, tol).folding_range(driver_index, branch)


def trace_curve(v: Vertex4, driver_index: int, branch: BranchLabel, n_samples: int,
                tol: Tolerances = DEFAULT_TOL) -> ConfigCurve:
    """Monotone driver sweep, at least n_samples in steps of at most
    trace_step_max, across the longest interval of the folding range (the
    one in [-pi, 0] on a range split at 0), each sample the branch's one
    certified state at its driver (VertexKinematics.trace_curve), with the
    table's residual; TraceAbortError names a sample driver without one."""
    return VertexKinematics(v, tol).trace_curve(driver_index, branch, n_samples)


# ---------------------------------------------------------------------------
# duality


#: the duality map on fold angles: the (1,3) crease pair is preserved,
#: the (2,4) pair flips sign
_DUAL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def dual_state(s: FoldState) -> FoldState:
    """The matched state of the dual vertex (the rhos times _DUAL_SIGNS)."""
    return FoldState(np.multiply(s.rhos, _DUAL_SIGNS))


@dataclass(frozen=True)
class DualityBranchReport:
    """max_abs_rho_mismatch is 0.0 when every sample, mapped to C* by
    _DUAL_SIGNS (which keeps each |rho_i|), closes on C*; it is inf when
    any mapped sample fails closure. That closure batch carries the
    claim: with the map as documented, sign_pattern_ok holds by
    construction, since pair (1,3) keeps its signs and pair (2,4) flips."""

    branch: BranchLabel
    driver_index: int
    n_samples: int
    max_abs_rho_mismatch: float
    sign_pattern_ok: bool


@dataclass(frozen=True)
class DualityReport:
    """Per-branch duality checks; zero traced branches is a failure."""

    vertex: Vertex4
    branches: tuple[DualityBranchReport, ...]

    @property
    def max_abs_rho_mismatch(self) -> float:
        return max((b.max_abs_rho_mismatch for b in self.branches), default=math.inf)

    @property
    def sign_pattern_ok(self) -> bool:
        return bool(self.branches) and all(b.sign_pattern_ok for b in self.branches)

    @property
    def n_branches(self) -> int:
        return len(self.branches)


def _sign_pattern_is_dual(rhos, dual_rhos) -> np.ndarray:
    """Per row of two (..., 4) arrays, True when exactly one opposite crease
    pair keeps its signs and the other flips, comparing rhos on C with
    dual_rhos on C* (up to a global flip).

    Creases below 1e-7 in either row are skipped; a pair with no crease
    left is a wildcard.
    """
    a, b = np.asarray(rhos, dtype=float), np.asarray(dual_rhos, dtype=float)
    seen = ~((np.abs(a) < 1e-7) | (np.abs(b) < 1e-7))
    flip = (a > 0) != (b > 0)
    # per pair (columns k and k + 2): whether a flip and a keep were seen
    flips = [(seen & flip)[..., k::2].any(axis=-1) for k in (0, 1)]
    keeps = [(seen & ~flip)[..., k::2].any(axis=-1) for k in (0, 1)]
    # no pair both flips and keeps, and two determinate pairs differ; a
    # global flip negates every flag and leaves both tests unchanged
    mixed = (flips[0] & keeps[0]) | (flips[1] & keeps[1])
    same = (flips[0] | keeps[0]) & (flips[1] | keeps[1]) & (flips[0] == flips[1])
    return ~(mixed | same)


def verify_duality(v: Vertex4, driver_index: int = 1, n_samples: int = 25,
                   tol: Tolerances = DEFAULT_TOL) -> DualityReport:
    """Trace every realizable branch of C and check that the dual vertex
    reproduces it with matched |rho| and the one-pair-flipped sign
    pattern. The traced rows of all branches are stacked once, mapped to
    C* in closed form by _DUAL_SIGNS and certified against the closure
    loop of C* in one batch, so the check is end to end. A trace covers
    its range's longest interval; the map commutes with negating every
    fold angle, so the negated rows, which trace its mirror, map alike."""
    kin = VertexKinematics(v, tol)
    curves = []
    for branch in ALL_BRANCHES:
        try:
            curves.append(kin.trace_curve(driver_index, branch, n_samples))
        except (InfeasibleDriverError, TraceAbortError):
            continue
    rhos = np.reshape([r for curve in curves for r in curve.rhos], (-1, 4))
    dual_rhos = rhos * _DUAL_SIGNS
    closes = LoopEvaluator(dual(v)).residuals(dual_rhos) < tol.residual_tol
    signs_ok = _sign_pattern_is_dual(rhos, dual_rhos)
    ends = np.cumsum([len(curve.rhos) for curve in curves], dtype=int).tolist()
    reports = [
        DualityBranchReport(
            branch=curve.branch,
            driver_index=driver_index,
            n_samples=b - a,
            max_abs_rho_mismatch=0.0 if closes[a:b].all() else math.inf,
            sign_pattern_ok=bool(signs_ok[a:b].all()),
        )
        for curve, a, b in zip(curves, [0] + ends, ends)
    ]
    return DualityReport(vertex=v, branches=tuple(reports))
