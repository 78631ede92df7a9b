"""Rotation algebra, angle utilities, and the shared tolerances.

Everything here is a pure function of its arguments. Rotations are plain
(3, 3) float arrays, fresh on every call; Tolerances is immutable and safe
to share across threads.

Conventions (used package-wide):
  * right-handed coordinate system; rotations act on column vectors by
    left multiplication,
  * angles are radians everywhere; degree conversion happens only at the
    CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


#: classification threshold for angle comparisons (rad)
ANGLE_EPS = 1e-10
#: loop-closure acceptance: Frobenius norm of the loop product minus I
RESIDUAL_TOL = 1e-9
#: closure-oracle convergence: norm of the loop's axis-angle vector
SOLVER_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Curve-tracing policy: trace_step_max caps the driver step (rad),
    in (0, 0.05]. The closure gate and the thresholds are the fixed
    constants above."""

    trace_step_max: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.trace_step_max < math.inf:
            raise InputError("trace_step_max must be strictly positive and finite")
        if self.trace_step_max > 0.05:
            raise InputError("trace_step_max must not exceed 0.05")


DEFAULT_TOL = Tolerances()

#: a fold angle within this of +-pi is flat-folded: its half-angle tangent is +-inf
FLAT_FOLD_WINDOW = 1e-15


def half_tangent(rho) -> np.ndarray:
    """t = tan(rho / 2) elementwise, +-inf where rho is within
    FLAT_FOLD_WINDOW of +-pi (never tan evaluated near pi / 2)."""
    rho = np.asarray(rho, dtype=float)
    flat = np.abs(np.abs(rho) - math.pi) < FLAT_FOLD_WINDOW
    return np.where(flat, np.copysign(np.inf, rho), np.tan(0.5 * rho))


def axis_angle_vector(m: np.ndarray) -> np.ndarray:
    """Rotation vector (axis times angle) of a rotation matrix.

    Accurate over the full angle range. Past a quarter-turn the axis comes
    from (M + M^T) / 2 - cos(theta) I = (1 - cos(theta)) u u^T, whose
    largest-diagonal column stays well scaled up to the half-turn, and the
    skew part only orients it.
    """
    skew = 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    sin_t = np.linalg.norm(skew)
    cos_t = max(-1.0, min(1.0, 0.5 * (np.trace(m) - 1.0)))
    theta = math.atan2(sin_t, cos_t)
    if cos_t < 0.0:
        B = 0.5 * (m + m.T) - cos_t * np.eye(3)
        axis = B[:, int(np.argmax(np.diag(B)))]
        axis = axis / np.linalg.norm(axis)
        return theta * (-axis if np.dot(axis, skew) < 0 else axis)
    if sin_t > 1e-9:
        return theta / sin_t * skew
    return skew  # theta ~ 0, first order


def cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors: np.cross's arithmetic without its
    broadcasting overhead, which dominates at this size."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def wrap_angle(a: float) -> float:
    """Reduce an angle modulo 2*pi into (-pi, pi]."""
    if not math.isfinite(a):
        raise InputError("angle must be finite")
    w = math.fmod(a, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    elif w > math.pi:
        w -= 2.0 * math.pi
    return w


def rot_x(angle) -> np.ndarray:
    """Rotation about the x axis; angles of shape (...) give matrices of
    shape (..., 3, 3)."""
    ang = np.asarray(angle, dtype=float)
    c, s = np.cos(ang), np.sin(ang)
    R = np.zeros((*ang.shape, 3, 3))
    R[..., 0, 0] = 1.0
    R[..., 1, 1] = R[..., 2, 2] = c
    R[..., 1, 2] = -s
    R[..., 2, 1] = s
    return R


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
