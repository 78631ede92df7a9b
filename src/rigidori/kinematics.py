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
comparison. The analytic relations alone admit spurious sign
combinations, so every candidate state is certified against the closure
loop, which is the only gate (see VertexKinematics.certified_candidates).

Folding ranges are closed form: the adjacent relation is quadratic in
each tangent with coefficients affine in s = t_d^2, so every driver at
which a fold state appears, merges or flat-folds is a real root of a
polynomial of degree <= 2 in s (VertexKinematics._breakpoints). Between
neighbouring roots the branch's states vary continuously without a sign
change, so one certified check per cell decides the range.

Both relations are invariant under a_i -> pi - a_i up to sign flips of one
opposite crease pair, which is the elliptic-hyperbolic duality; see
verify_duality and dual_state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .closure import LoopEvaluator, oracle_solve
from .errors import (
    BranchNotRealizableError,
    DegenerateConfigurationError,
    InfeasibleDriverError,
    InputError,
    NoRealFoldError,
    TraceAbortError,
)
from .numerics import DEFAULT_TOL, Tolerances
from .vertex import FoldState, Vertex4, dual

_RATIO_ZERO_CLAMP = 1e-11
_COEF_EPS = 1e-13
_SIGN_EPS = 1e-8  # fold tangents below this count as degenerate for labeling


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

    def matches(self, state: FoldState, eps: float = _SIGN_EPS) -> bool:
        """Degenerate (near-zero or flat) tangents act as wildcards."""
        t = state.half_tangents()
        p1 = _pair_sign(t[0], t[2], eps)
        p2 = _pair_sign(t[1], t[3], eps)
        return (p1 == 0 or p1 == self.opposite_sign_1) and (
            p2 == 0 or p2 == self.opposite_sign_2
        )


BRANCH_PP = BranchLabel(+1, +1)
BRANCH_PM = BranchLabel(+1, -1)
BRANCH_MP = BranchLabel(-1, +1)
BRANCH_MM = BranchLabel(-1, -1)
ALL_BRANCHES = (BRANCH_PP, BRANCH_PM, BRANCH_MP, BRANCH_MM)

#: Branch labels of the two flat-foldable modes (regression-locked).
MODE1_BRANCH = BRANCH_PM
MODE2_BRANCH = BRANCH_MP


def _pair_sign(ta: float, tb: float, eps: float = _SIGN_EPS) -> int:
    if abs(ta) <= eps or abs(tb) <= eps:
        return 0
    return 1 if ta * tb > 0 else -1  # also right for infinite tangents


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


def _opposite_from(coefs: tuple[float, float, float, float], i: int, t_opp: float) -> float:
    """opposite_t_squared from precomputed ``_opposite_coefs(v, i)``."""
    c_sum_in, c_dif_in, c_dif_op, c_sum_op = coefs
    if math.isinf(t_opp):
        num = -c_sum_in + c_dif_op
        den = c_dif_in - c_dif_op
    else:
        s2 = t_opp * t_opp
        num = -(1.0 + s2) * c_sum_in + s2 * c_dif_op + c_sum_op
        den = (1.0 + s2) * c_dif_in - s2 * c_dif_op - c_sum_op
    if abs(den) < _COEF_EPS:
        if abs(num) < _COEF_EPS:
            raise DegenerateConfigurationError(
                f"opposite relation indeterminate (0/0) at crease {i}"
            )
        if num > 0:
            return math.inf
        raise NoRealFoldError(f"no real solution for t_{i}^2 at this driver")
    ratio = num / den
    if abs(ratio) < 1e-13:  # kill fp noise at exact zeros of the numerator
        return 0.0
    if ratio < 0.0:
        if ratio > -_RATIO_ZERO_CLAMP:
            return 0.0
        raise NoRealFoldError(
            f"no real solution for t_{i}^2 at this driver (ratio {ratio:.3e})"
        )
    return ratio


def opposite_t_squared(v: Vertex4, i: int, t_opp: float) -> float:
    """t_i^2 from the opposite-crease relation, given t_{i+2} = t_opp.

    Infinite t_opp (a flat-folded opposite crease) is handled by the
    coefficient-ratio limit, never by evaluating tan at pi/2. Raises
    NoRealFoldError when the ratio is negative (no real fold at this
    driver) and DegenerateConfigurationError on 0/0.
    """
    return _opposite_from(_opposite_coefs(v, i), i, t_opp)


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


def adjacent_residual(
    v: Vertex4, i: int, t_i: float, t_next: float, corrected: bool = True
) -> float:
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


def adjacent_origin_slopes(
    v: Vertex4, i: int = 1, corrected: bool = True
) -> tuple[float, float]:
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


def _solve_quadratic_candidates(qa: float, qb: float, qc: float) -> list[float] | None:
    """Roots of qa x^2 + qb x + qc = 0 as fold-tangent candidates.

    A vanishing leading coefficient means the projective root escaped to
    infinity (the coupled crease flat-folds), so +-inf are returned as
    candidates alongside any finite root. Returns None when the equation
    is identically satisfied (unconstrained pair on a degenerate vertex).
    """
    scale = max(abs(qa), abs(qb), abs(qc), 1e-3)
    if abs(qa) < _COEF_EPS * scale:
        if abs(qb) < _COEF_EPS * scale:
            if abs(qc) < _COEF_EPS * scale:
                return None
            return [math.inf, -math.inf]
        return [-qc / qb, math.inf, -math.inf]
    disc = qb * qb - 4.0 * qa * qc
    if abs(disc) < 1e-12 * scale * scale:  # double root, +- fp noise
        disc = 0.0
    if disc < 0.0:
        if disc > -1e-10 * scale * scale:
            disc = 0.0
        else:
            return []
    r = math.sqrt(disc)
    q = -0.5 * (qb + r) if qb >= 0 else -0.5 * (qb - r)
    roots = [q / qa]
    roots.append(qc / q if abs(q) > 0 else roots[0])
    out: list[float] = []
    for x in roots:
        if not any(abs(x - y) <= 1e-12 * max(1.0, abs(x)) for y in out):
            out.append(x)
    return out


def _adjacent_roots(
    coefs: tuple[float, float, float, float, float, float],
    t_known: float,
    known_is_next: bool = False,
) -> list[float] | None:
    """Candidates for t_{i+1} given t_i = t_known (or for t_i given
    t_{i+1} = t_known when ``known_is_next``: the relation is symmetric
    under t_i <-> t_{i+1} with c1 <-> c2) from the corrected adjacent
    relation; infinite t_known via the leading-coefficient limit."""
    cA, c1, c2, c3, c4, c5 = coefs
    if known_is_next:
        c1, c2 = c2, c1
    if math.isinf(t_known):
        qa, qb, qc = cA - c3, 0.0, cA - c2
    else:
        s2 = t_known * t_known
        qa = cA * (1.0 + s2) - c1 - c3 * s2
        qb = -c5 * t_known
        qc = cA * (1.0 + s2) - c2 * s2 - c4
    return _solve_quadratic_candidates(qa, qb, qc)


# ---------------------------------------------------------------------------
# state assembly and certification


def _dedupe_states(states: list[FoldState]) -> list[FoldState]:
    ordered = sorted(states, key=lambda s: s.rhos)
    out: list[FoldState] = []
    for s in ordered:
        if not any(
            max(abs(a - b) for a, b in zip(s.rhos, kept.rhos)) < 1e-9 for kept in out
        ):
            out.append(s)
    return out


def _t_to_rho(t: float) -> float:
    return 2.0 * math.atan(t)  # atan(+-inf) = +-pi/2, so +-pi comes out exact


def _rho_to_t(rho: float) -> float:
    if abs(abs(rho) - math.pi) < 1e-15:
        return math.copysign(math.inf, rho)
    return math.tan(0.5 * rho)


class VertexKinematics:
    """Per-vertex solver context: the loop evaluator and the relation
    coefficients, computed once, plus candidate enumeration,
    branch-resolved solving, range detection, and curve tracing.
    Stateless between calls; safe to share read-only."""

    def __init__(self, v: Vertex4, tol: Tolerances = DEFAULT_TOL):
        self.vertex = v
        self.tol = tol
        self.loop = LoopEvaluator(v)
        self._opp = [_opposite_coefs(v, i) for i in (1, 2, 3, 4)]
        self._adj = [_adjacent_coefs(v, i) for i in (1, 2, 3, 4)]

    def _opposite(self, i: int, t_opp: float) -> float:
        """opposite_t_squared(self.vertex, i, t_opp) from the table."""
        return _opposite_from(self._opp[(i - 1) % 4], i, t_opp)

    # -- candidate enumeration ------------------------------------------

    def certified_candidates(self, driver_index: int, driver: float) -> list[FoldState]:
        """All closure-certified states with the given driver angle.

        The opposite crease takes both signs of the opposite relation,
        and each crease beside the driver takes the roots of its corrected
        adjacent relation with the driver. The closure loop is the only
        gate: every candidate is certified against residual_tol in one
        batched evaluation.
        """
        d = (driver_index - 1) % 4
        t_d = _rho_to_t(driver)

        m_opp = math.sqrt(self._opposite(d + 3, t_d))  # crease opposite the driver
        next_roots = _adjacent_roots(self._adj[d], t_d)
        far_roots = _adjacent_roots(self._adj[(d + 3) % 4], t_d, known_is_next=True)
        rows: list[tuple[float, ...]] = []
        for t_opp in [m_opp, -m_opp] if m_opp else [m_opp]:
            # a pair unconstrained on a degenerate vertex falls back to its
            # adjacent relation with the opposite crease
            nexts = next_roots
            if nexts is None:
                nexts = _adjacent_roots(self._adj[(d + 1) % 4], t_opp, known_is_next=True)
            fars = far_roots
            if fars is None:
                fars = _adjacent_roots(self._adj[(d + 2) % 4], t_opp)
            for t_next in nexts or ():
                for t_far in fars or ():
                    t = [0.0] * 4
                    t[d] = t_d
                    t[(d + 1) % 4] = t_next
                    t[(d + 2) % 4] = t_opp
                    t[(d + 3) % 4] = t_far
                    rows.append(tuple(_t_to_rho(0.0 if abs(x) < 1e-12 else x) for x in t))
        if not rows:
            return []
        closes = self.loop.residuals(rows) < self.tol.residual_tol
        return _dedupe_states([FoldState(r) for r, ok in zip(rows, closes) if ok])

    # -- solving ----------------------------------------------------------

    def solve_state(self, driver_index: int, driver: float, branch: BranchLabel) -> FoldState:
        if not -math.pi <= driver <= math.pi:
            raise InputError("driver must lie in [-pi, pi]")
        try:
            candidates = self.certified_candidates(driver_index, driver)
        except NoRealFoldError as exc:
            raise InfeasibleDriverError(str(exc)) from exc
        if not candidates:
            raise BranchNotRealizableError(
                f"no sign assignment passes closure at driver {driver:.6g}"
            )
        matching = [s for s in candidates if branch.matches(s)]
        if not matching:
            raise BranchNotRealizableError(
                f"branch {branch} not realizable at driver {driver:.6g}"
            )
        return min(matching, key=lambda s: s.rhos)

    # -- folding range ----------------------------------------------------

    def _breakpoints(self, d: int) -> list[float]:
        """Sorted drivers of crease d (0-based) at which a fold state can
        appear, merge or flat-fold: 0, +-pi and +-2 atan(sqrt(s)) for the
        real roots s >= 0 of polynomials in s = t_d^2 of degree <= 2.

        For each adjacent pair at the driver these are the coefficients
        qa and qc (the neighbour's tangent at inf or 0) and the
        discriminant c5^2 s - 4 qa qc (a double root). The opposite
        crease reaches 0 or pi only at such a double root, where the
        driver is at a limit position, so the zeros of the opposite
        relation's numerator and denominator add nothing.
        """
        polys = []
        for coefs, driver_is_next in ((self._adj[d], False), (self._adj[(d + 3) % 4], True)):
            cA, c1, c2, c3, c4, c5 = coefs
            if driver_is_next:
                c1, c2 = c2, c1
            a0, a1 = cA - c1, cA - c3  # qa = a0 + a1 s
            q0, q1 = cA - c4, cA - c2  # qc = q0 + q1 s
            polys += [
                (a0, a1, 0.0),
                (q0, q1, 0.0),
                (-4.0 * a0 * q0, c5 * c5 - 4.0 * (a0 * q1 + a1 * q0), -4.0 * a1 * q1),
            ]
        out = [0.0, math.pi, -math.pi]
        for p0, p1, p2 in polys:
            for s in _solve_quadratic_candidates(p2, p1, p0) or ():
                if not math.isfinite(s) or s < -1e-12:
                    continue
                b = 2.0 * math.atan(math.sqrt(s)) if s >= 1e-12 else 0.0
                for x in (b, -b):
                    if all(abs(x - y) > 1e-9 for y in out):
                        out.append(x)
        return sorted(out)

    def _branch_states(
        self, driver_index: int, driver: float, branch: BranchLabel | None
    ) -> list[FoldState]:
        """Certified states at ``driver`` on ``branch`` (any branch when
        None); empty where no real fold exists."""
        try:
            cands = self.certified_candidates(driver_index, driver)
        except (NoRealFoldError, DegenerateConfigurationError):
            return []
        return [s for s in cands if branch is None or branch.matches(s)]

    def folding_range(self, driver_index: int, branch: BranchLabel) -> "FoldingRange":
        """Maximal driver intervals of the branch, from an exact cell
        decomposition of [-pi, pi] at the relations' breakpoints.

        A cell belongs to the branch when a certified branch state exists
        at its midpoint. Neighbouring cells join when branch states just
        either side of their shared breakpoint lie within _JUMP_CAP, the
        continuity rule of solve_near; runs shorter than 1e-6 are isolated
        degenerate points. Each endpoint is the breakpoint itself, or the
        nearest point at most 1e-6 inside it, that has a certified state.
        """
        bps = self._breakpoints((driver_index - 1) % 4)
        cells = list(zip(bps, bps[1:]))
        runs: list[list[int]] = []  # [first, last] member cell per run
        for k, (lo, hi) in enumerate(cells):
            if not self._branch_states(driver_index, 0.5 * (lo + hi), branch):
                continue
            follows_run = runs and runs[-1][1] == k - 1
            if follows_run and self._joins(driver_index, branch, cells[k - 1], cells[k]):
                runs[-1][1] = k
            else:
                runs.append([k, k])
        intervals: list[tuple[float, float]] = []
        causes: list[tuple[str, str]] = []
        for first, last in runs:
            lo, hi = cells[first][0], cells[last][1]
            if hi - lo < 1e-6:  # isolated degenerate point, not a branch arc
                continue
            lo, cause_lo = self._endpoint(driver_index, branch, cells[first], +1.0)
            hi, cause_hi = self._endpoint(driver_index, branch, cells[last], -1.0)
            intervals.append((lo, hi))
            causes.append((cause_lo, cause_hi))
        diagnostic = ""
        if not intervals:
            what = "only isolated degenerate states" if runs else "no closure-certified state"
            diagnostic = f"{what} on this branch at any driver"
        return FoldingRange(tuple(intervals), tuple(causes), diagnostic)

    def _joins(self, driver_index, branch, left, right) -> bool:
        """Whether branch states continue across the breakpoint between
        two neighbouring member cells."""
        b = left[1]
        eps = min(1e-6, 0.25 * (left[1] - left[0]), 0.25 * (right[1] - right[0]))
        before = self._branch_states(driver_index, b - eps, branch)
        after = self._branch_states(driver_index, b + eps, branch)
        return any(
            max(abs(x - y) for x, y in zip(s.rhos, t.rhos)) <= self._JUMP_CAP
            for s in before
            for t in after
        )

    def _endpoint(self, driver_index, branch, cell, inward) -> tuple[float, str]:
        """The first driver with a certified branch state among the end
        cell's breakpoint and the points 1e-12, 1e-11, ..., 1e-6 inside
        it, falling back to the cell midpoint, which has one; and its
        endpoint cause."""
        lo, hi = cell
        root = lo if inward > 0 else hi
        for off in (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 0.5 * (hi - lo)):
            drv = root + inward * off
            states = self._branch_states(driver_index, drv, branch)
            if states:
                break
        return drv, self._endpoint_cause(driver_index, drv, states[0])

    #: per-step continuation jump cap (rad, max componentwise); a curve
    #: hitting a flat-folded corner of [-pi, pi]^4 only "continues" by a
    #: coordinate teleport of ~2*pi, which this rejects
    _JUMP_CAP = 1.5

    def solve_near(
        self,
        driver_index: int,
        driver: float,
        prev: FoldState,
        branch: BranchLabel | None = None,
    ) -> FoldState | None:
        """One continuation step: the certified state at ``driver`` nearest
        to ``prev``, ties broken toward the previous sign vector. States
        off ``branch`` or more than _JUMP_CAP away are rejected; None when
        nothing is left."""
        cands = [
            s
            for s in self._branch_states(driver_index, driver, branch)
            if max(abs(a - b) for a, b in zip(s.rhos, prev.rhos)) <= self._JUMP_CAP
        ]
        if not cands:
            return None

        def key(s: FoldState):
            dist = sum((a - b) ** 2 for a, b in zip(s.rhos, prev.rhos))
            sign_mismatch = sum(
                1
                for a, b in zip(s.rhos, prev.rhos)
                if abs(a) > 1e-9 and abs(b) > 1e-9 and (a > 0) != (b > 0)
            )
            return (dist, sign_mismatch, s.rhos)

        return min(cands, key=key)

    def _endpoint_cause(self, driver_index: int, drv: float, state: FoldState) -> str:
        # sqrt-type corner approaches reach |rho| = pi - O(sqrt(solver_tol))
        if any(abs(abs(r) - math.pi) < 1e-4 for r in state.rhos):
            return "flat_folded_crease"
        eps = max(10.0 * self.tol.solver_tol, 1e-10)
        probe = drv + math.copysign(eps, drv if drv != 0 else 1.0)
        try:
            t_probe = _rho_to_t(max(-math.pi, min(math.pi, probe)))
            self._opposite(driver_index + 2, t_probe)
        except NoRealFoldError:
            return "opposite_relation_negative"
        except DegenerateConfigurationError:
            return "degenerate_configuration"
        return "closure_infeasible"

    # -- tracing ----------------------------------------------------------

    def trace_curve(
        self, driver_index: int, branch: BranchLabel, n_samples: int
    ) -> "ConfigCurve":
        if n_samples < 2:
            raise InputError("n_samples must be at least 2")
        rng = self.folding_range(driver_index, branch)
        if not rng.intervals:
            raise InfeasibleDriverError(
                f"empty folding range for branch {branch}: {rng.diagnostic}"
            )
        lo, hi = max(rng.intervals, key=lambda iv: iv[1] - iv[0])
        span = hi - lo
        n = max(n_samples, int(math.ceil(span / self.tol.trace_step_max)) + 1)
        drivers = [lo + span * k / (n - 1) for k in range(n)]

        # start from the interval interior: the endpoints are typically
        # flat-folded corner states whose coordinate representative is
        # ambiguous cold but unambiguous when approached with continuity
        start_idx = n // 2
        states: list[FoldState | None] = [None] * n
        states[start_idx] = self.solve_state(driver_index, drivers[start_idx], branch)

        def march(indices):
            state = states[start_idx]
            prev_drv = drivers[start_idx]
            for idx in indices:
                drv = drivers[idx]
                nxt = self.solve_near(driver_index, drv, state, branch)
                if nxt is None:
                    nxt = self._refine_step(driver_index, branch, prev_drv, state, drv)
                if nxt is None:
                    raise TraceAbortError(
                        f"continuation failed at driver {drv:.6g}",
                        partial_curve=self._partial(driver_index, branch, drivers, states),
                    )
                states[idx] = nxt
                state, prev_drv = nxt, drv

        march(range(start_idx + 1, n))
        march(range(start_idx - 1, -1, -1))
        samples = [s for s in states if s is not None]
        residuals = [self.loop.residual(s.rhos) for s in samples]
        return self._make_curve(driver_index, branch, drivers, samples, residuals)

    def _refine_step(self, driver_index, branch, prev_drv, state, drv):
        """Approach a failing sample through geometrically finer sub-steps."""
        for depth in range(1, 7):
            sub = 2**depth
            approached = state
            ok = True
            for j in range(1, sub + 1):
                mid = prev_drv + (drv - prev_drv) * j / sub
                step_state = self.solve_near(driver_index, mid, approached, branch)
                if step_state is None:
                    ok = False
                    break
                approached = step_state
            if ok:
                return approached
        return None

    def _partial(self, driver_index, branch, drivers, states):
        pairs = [(d, s) for d, s in zip(drivers, states) if s is not None]
        if not pairs:
            return None
        drv = [p[0] for p in pairs]
        smp = [p[1] for p in pairs]
        res = [self.loop.residual(s.rhos) for s in smp]
        try:
            return self._make_curve(driver_index, branch, drv, smp, res)
        except InputError:
            return None

    def _make_curve(self, driver_index, branch, drivers, samples, residuals):
        return ConfigCurve(
            vertex=self.vertex,
            branch=branch,
            driver_index=driver_index,
            drivers=tuple(drivers),
            samples=tuple(samples),
            residuals=tuple(residuals),
            tol=self.tol,
        )


@dataclass(frozen=True)
class FoldingRange:
    """Maximal feasible driver interval(s) of a branch, with endpoint
    causes in {flat_folded_crease, opposite_relation_negative,
    closure_infeasible, degenerate_configuration}."""

    intervals: tuple[tuple[float, float], ...]
    endpoint_causes: tuple[tuple[str, str], ...]
    diagnostic: str = ""

    def __bool__(self):
        return bool(self.intervals)


@dataclass(frozen=True)
class ConfigCurve:
    """An ordered, closure-certified trace of one configuration branch."""

    vertex: Vertex4
    branch: BranchLabel
    driver_index: int
    drivers: tuple[float, ...]
    samples: tuple[FoldState, ...]
    residuals: tuple[float, ...]
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        if len(self.samples) != len(self.drivers) or len(self.residuals) != len(self.drivers):
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


def solve_state(
    v: Vertex4,
    driver_index: int,
    driver: float,
    branch: BranchLabel,
    tol: Tolerances = DEFAULT_TOL,
) -> FoldState:
    """The unique closure-certified state on `branch` with the given
    driver angle at crease `driver_index`."""
    return VertexKinematics(v, tol).solve_state(driver_index, driver, branch)


def folding_range(
    v: Vertex4,
    driver_index: int,
    branch: BranchLabel,
    tol: Tolerances = DEFAULT_TOL,
) -> FoldingRange:
    return VertexKinematics(v, tol).folding_range(driver_index, branch)


def trace_curve(
    v: Vertex4,
    driver_index: int,
    branch: BranchLabel,
    n_samples: int,
    tol: Tolerances = DEFAULT_TOL,
) -> ConfigCurve:
    """Monotone driver sweep across the folding range with adaptive steps
    capped at trace_step_max; every sample closure-certified. n_samples is
    a lower bound on the sample count."""
    return VertexKinematics(v, tol).trace_curve(driver_index, branch, n_samples)


# ---------------------------------------------------------------------------
# duality


def dual_state(s: FoldState) -> FoldState:
    """The matched state of the dual vertex: the (1,3) crease pair is
    preserved, the (2,4) pair flips sign."""
    r = s.rhos
    return FoldState((r[0], -r[1], r[2], -r[3]))


@dataclass(frozen=True)
class DualityBranchReport:
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


def _sign_pattern_is_dual(s: FoldState, sd: FoldState, eps: float = 1e-7) -> bool:
    """True when exactly one opposite crease pair keeps its signs and the
    other flips, comparing s on C with sd on C* (up to a global flip).

    Creases below eps in either state are skipped; a pair with no crease
    left is a wildcard.
    """
    pairs: tuple[set, set] = (set(), set())  # per pair: the flip flags seen
    for i in range(4):
        a, b = s.rhos[i], sd.rhos[i]
        if abs(a) < eps or abs(b) < eps:
            continue
        pairs[i % 2].add((a > 0) != (b > 0))
    # no pair both flips and keeps, and two determinate pairs differ; a
    # global flip of sd negates every flag and leaves both tests unchanged
    p, q = pairs
    return len(p) < 2 and len(q) < 2 and not (p and p == q)


def verify_duality(
    v: Vertex4,
    driver_index: int = 1,
    n_samples: int = 25,
    tol: Tolerances = DEFAULT_TOL,
    branches: tuple[BranchLabel, ...] = ALL_BRANCHES,
) -> DualityReport:
    """Trace every realizable branch of C and check that the dual vertex
    reproduces it with matched |rho| and the one-pair-flipped sign
    pattern. Dual states are re-solved on C* through the closure oracle,
    seeded from the sign-mapped states, so the check is end to end."""
    vd = dual(v)
    kin = VertexKinematics(v, tol)
    dual_loop = LoopEvaluator(vd)
    reports = []
    for branch in branches:
        try:
            curve = kin.trace_curve(driver_index, branch, n_samples)
        except (InfeasibleDriverError, TraceAbortError):
            continue
        worst = 0.0
        signs_ok = True
        for s in curve.samples:
            seed = dual_state(s)
            drv = seed.rhos[(driver_index - 1) % 4]
            rep = oracle_solve(vd, driver_index, drv, seed, tol)
            if not rep.converged:
                worst = math.inf
                continue
            sd = rep.state
            if dual_loop.residual(sd.rhos) >= tol.residual_tol:
                worst = math.inf
                continue
            worst = max(
                worst,
                max(abs(abs(a) - abs(b)) for a, b in zip(s.rhos, sd.rhos)),
            )
            if not _sign_pattern_is_dual(s, sd):
                signs_ok = False
        reports.append(
            DualityBranchReport(
                branch=branch,
                driver_index=driver_index,
                n_samples=len(curve.samples),
                max_abs_rho_mismatch=worst,
                sign_pattern_ok=signs_ok,
            )
        )
    return DualityReport(vertex=v, branches=tuple(reports))
