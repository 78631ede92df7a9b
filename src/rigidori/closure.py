"""Rotation-loop closure oracle for a degree-4 vertex.

Ground truth, independent of any closed-form kinematics: a fold state of
a vertex is rigidly realizable iff the ordered product of crease-fold and
in-plane-sector rotations around the vertex is the identity.

With the package crease convention (crease i immediately before sector i,
counterclockwise) the loop map is

    F(v, s) = Rx(rho1) Rz(a1) Rx(rho2) Rz(a2) Rx(rho3) Rz(a3) Rx(rho4) Rz(a4)

At the unfolded state of any vertex this equals Rz(sum alpha_i), a planar
rotation by the angle excess about the sheet normal, so the Euclidean
zero state closes exactly; that identity locks the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    axis_angle_vector,
    rot_x,
    rot_z,
    wrap_angle,
)
from .vertex import FoldState, Vertex4

_MAX_ITER = 50
_FD_STEP = 1e-7


@dataclass(frozen=True)
class ClosureReport:
    state: FoldState
    residual: float
    converged: bool
    iterations: int


class LoopEvaluator:
    """Precomputes the sector rotations of one vertex for repeated use."""

    def __init__(self, v: Vertex4):
        self.vertex = v
        self._rz = [rot_z(a) for a in v.alphas]

    def matrix(self, rhos) -> np.ndarray:
        """The loop product of fold angles of shape (..., 4), batched:
        matrices of shape (..., 3, 3)."""
        rx = rot_x(np.asarray(rhos, dtype=float))
        T = rx[..., 0, :, :] @ self._rz[0]
        for k in range(1, 4):
            T = T @ rx[..., k, :, :] @ self._rz[k]
        return T

    def residual(self, rhos) -> float:
        return float(np.linalg.norm(self.matrix(rhos) - np.eye(3)))

    def residuals(self, rhos) -> np.ndarray:
        """``residual`` of each row of an (n, 4) array of fold angles."""
        return np.linalg.norm(self.matrix(rhos) - np.eye(3), axis=(-2, -1))

    def residual_vector(self, rhos) -> np.ndarray:
        """Three independent components: the axis-angle vector of the loop."""
        return axis_angle_vector(self.matrix(rhos))


def closure_residual(v: Vertex4, s: FoldState) -> float:
    """Frobenius distance of the loop product from the identity."""
    return LoopEvaluator(v).residual(s.rhos)


def oracle_solve(
    v: Vertex4,
    driver_index: int,
    driver: float,
    initial_guess: FoldState,
    tol: Tolerances = DEFAULT_TOL,
) -> ClosureReport:
    """Damped Newton on the three free fold angles with the driver fixed.

    The residual vector is the axis-angle vector of the loop product (3
    components against 3 unknowns). Steps are halved until the residual
    decreases; at most 50 iterations. Non-convergence is reported, never
    raised.
    """
    d = (driver_index - 1) % 4
    ev = LoopEvaluator(v)
    free = [i for i in range(4) if i != d]

    def assemble(x):
        rhos = [0.0] * 4
        rhos[d] = driver
        for j, i in enumerate(free):
            rhos[i] = x[j]
        return rhos

    x = np.array([initial_guess.rhos[i] for i in free], dtype=float)
    f = ev.residual_vector(assemble(x))
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        norm_f = np.linalg.norm(f)
        if norm_f < tol.solver_tol:
            break
        J = np.empty((3, 3))
        for j in range(3):
            xp = x.copy()
            xp[j] += _FD_STEP
            J[:, j] = (ev.residual_vector(assemble(xp)) - f) / _FD_STEP
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -f, rcond=None)[0]
        # damping: halve until the residual norm decreases
        scale = 1.0
        improved = False
        for _ in range(30):
            x_new = x + scale * step
            f_new = ev.residual_vector(assemble(x_new))
            if np.linalg.norm(f_new) < norm_f:
                x, f = x_new, f_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            break

    rhos = [r if abs(r) <= math.pi else wrap_angle(r) for r in assemble(x)]
    residual = ev.residual(rhos)
    return ClosureReport(
        state=FoldState(rhos),
        residual=residual,
        converged=residual < tol.residual_tol,
        iterations=iterations,
    )
