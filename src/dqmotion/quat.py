"""Quaternion algebra on scalar-first (w, x, y, z) arrays.

A quaternion is a length-4 float array; every function broadcasts over
leading axes, so a time series of shape (F, J, 4) works the same as a
single (4,) value. That includes the Euler conversions: `to_euler` maps
(..., 4) to (..., 3), its gimbal-lock branch selected per element by a
mask. Angles are radians throughout.

Euler angles are passed as an (alpha, beta, gamma) triple holding the
rotations about the x, y and z axes respectively, together with an order
tag such as "ZYX" naming the composition order: "ZYX" composes as
q_z(gamma) * q_y(beta) * q_x(alpha), i.e. the x rotation is applied first
to a column vector.
"""

import numpy as np

from . import _rotmat
from .errors import DegenerateNormError

#: Arguments of arcsin at least this close to +-1 take the degenerate
#: (gimbal-lock) branch of to_euler. It covers middle angles within about
#: 1e-4 degrees of the pole; a wider band would snap nearby angles onto it.
LOCK_TOLERANCE = 1e-12

_VALID_ORDERS = {"XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"}
_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def conjugate(q: np.ndarray) -> np.ndarray:
    """(w, -x, -y, -z)."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise inner product, the 4-vector dot."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.sum(a * b, axis=-1)


def norm(q: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(q, dtype=float), axis=-1)


def normalize(q: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Scale to unit norm. Raises DegenerateNormError when the norm <= eps."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n <= eps):
        raise DegenerateNormError(f"quaternion norm <= {eps:g}")
    return q / n


def _check_order(order: str) -> str:
    order = order.upper()
    if order not in _VALID_ORDERS:
        raise ValueError(f"invalid rotation order {order!r}; expected a permutation of XYZ")
    return order


def _axis_quat(axis: int, angle: np.ndarray) -> np.ndarray:
    """cos(angle/2) + sin(angle/2) * axis unit vector."""
    angle = np.asarray(angle, dtype=float)
    q = np.zeros(angle.shape + (4,))
    q[..., 0] = np.cos(angle / 2.0)
    q[..., 1 + axis] = np.sin(angle / 2.0)
    return q


def from_euler(angles: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """Unit quaternion of (alpha, beta, gamma) about x, y, z under `order`.

    `angles` has shape (..., 3); the result the ordered product of the
    three axis quaternions, e.g. q_z * q_y * q_x for "ZYX".
    """
    order = _check_order(order)
    angles = np.asarray(angles, dtype=float)
    axes = [_rotmat.AXES.index(c) for c in order]
    q = _axis_quat(axes[0], angles[..., axes[0]])
    for axis in axes[1:]:
        q = mul(q, _axis_quat(axis, angles[..., axis]))
    return q


def to_euler(q: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """Recover (..., 3) angles (alpha, beta, gamma) such that from_euler
    reproduces +-q, for quaternions of shape (..., 4).

    The extraction uses the two-argument arctangent, so the full rotation
    range survives. Near the arcsin pole (argument within LOCK_TOLERANCE
    of +-1) the two coupled angles collapse: the first rotation in the
    composition order is set to zero and the remainder is folded into the
    last one, which keeps the round trip well defined at the pole itself.
    """
    order = _check_order(order)
    m = _rotmat.quat_to_matrix(normalize(q))

    i, j, k = (_rotmat.AXES.index(c) for c in order)
    sign = 1.0 if (i, j, k) in _CYCLIC else -1.0
    s = sign * m[..., i, k]

    out = np.empty(s.shape + (3,))
    out[..., j] = np.arcsin(np.clip(s, -1.0, 1.0))
    out[..., i] = np.arctan2(-sign * m[..., j, k], m[..., k, k])
    out[..., k] = np.arctan2(-sign * m[..., i, j], m[..., i, i])

    lock = np.abs(s) >= 1.0 - LOCK_TOLERANCE
    if np.any(lock):
        mid = np.copysign(np.pi / 2.0, s[lock])
        # With the first angle pinned to zero the residual is a pure
        # rotation about the last axis.
        residual = np.swapaxes(_rotmat.axis_rotation_matrix(j, mid), -1, -2) @ m[lock]
        u, v = (k + 1) % 3, (k + 2) % 3
        out[lock, i] = 0.0
        out[lock, j] = mid
        out[lock, k] = np.arctan2(residual[:, v, u], residual[:, u, u])
    return out
