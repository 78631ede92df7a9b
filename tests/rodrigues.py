"""Rodrigues' rotation formula: the reference rotation the tests compare
the library's rotations and layer motions against."""

import numpy as np


def rotation_about_axis(axis, angle) -> np.ndarray:
    """Right-handed rotation by ``angle`` about the unit vector ``axis``:
    I + sin(angle) K + (1 - cos(angle)) K^2, K the cross-product matrix."""
    kx, ky, kz = np.asarray(axis, dtype=float)
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
