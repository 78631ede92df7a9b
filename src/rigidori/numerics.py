"""Rotation algebra, angle utilities, and the shared tolerance policy.

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


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy shared by all modules.

    angle_eps      classification threshold for angle comparisons (rad)
    residual_tol   loop-closure acceptance (Frobenius norm, dimensionless)
    solver_tol     root-finder convergence
    trace_step_max driver step cap for curve tracing (rad)
    """

    angle_eps: float = 1e-10
    residual_tol: float = 1e-9
    solver_tol: float = 1e-12
    trace_step_max: float = 0.01

    def __post_init__(self):
        for name in ("angle_eps", "residual_tol", "solver_tol", "trace_step_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"{name} must be strictly positive and finite")
        # a loose residual_tol certifies states that do not close; at the
        # largest residual, 2 sqrt 2, it certifies every state
        for name in ("angle_eps", "residual_tol"):
            if not getattr(self, name) < 1e-6:
                raise InputError(f"{name} must be below 1e-6")
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


def rotation_matrix_about_axis(axis, angle) -> np.ndarray:
    """Raw Rodrigues rotation matrix; axis must already be unit length.

    Batched: axes of shape (..., 3) and angles of shape (...) give
    matrices of shape (..., 3, 3).
    """
    ax = np.asarray(axis, dtype=float)
    ang = np.asarray(angle, dtype=float)[..., None, None]
    kx, ky, kz = np.moveaxis(ax, -1, 0)
    zero = np.zeros_like(kx)
    K = np.stack([zero, -kz, ky, kz, zero, -kx, -ky, kx, zero], axis=-1)
    K = K.reshape(*ax.shape[:-1], 3, 3)
    return np.eye(3) + np.sin(ang) * K + (1.0 - np.cos(ang)) * (K @ K)


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Right-handed rotation by `angle` about the unit vector `axis`."""
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise InputError("axis must be a 3-vector")
    if not math.isfinite(angle):
        raise InputError("angle must be finite")
    if abs(np.linalg.norm(ax) - 1.0) > 1e-12:
        raise InputError("axis must be unit length within 1e-12")
    return rotation_matrix_about_axis(ax, angle)


def axis_angle_vector(m: np.ndarray) -> np.ndarray:
    """Rotation vector (axis times angle) of a rotation matrix.

    Robust over the full angle range, including near pi where the skew
    part degenerates.
    """
    skew = 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    sin_t = np.linalg.norm(skew)
    cos_t = max(-1.0, min(1.0, 0.5 * (np.trace(m) - 1.0)))
    theta = math.atan2(sin_t, cos_t)
    if sin_t > 1e-9:
        return theta / sin_t * skew
    if cos_t > 0.0:
        return skew  # theta ~ 0, first order
    # theta ~ pi: axis from the dominant diagonal of (M + I) / 2
    B = 0.5 * (m + np.eye(3))
    k = int(np.argmax(np.diag(B)))
    axis = B[:, k] / math.sqrt(max(B[k, k], 1e-30))
    axis /= np.linalg.norm(axis)
    # orient consistently with the skew part when it is nonzero at all
    if sin_t > 0 and np.dot(axis, skew) < 0:
        axis = -axis
    return theta * axis


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
