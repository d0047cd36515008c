"""Long-double references for the accuracy ledger (`test_accuracy.py`).

Forward kinematics one joint at a time in `np.longdouble`: the rotations
normalized in long double, each current rotation its parent's times its
local one, each position its parent's plus the offset turned by the
parent's current rotation, q (0, o) q*, and each current dual quaternion
(q, 1/2 (0, p) q). The Euler conversions: `from_euler` the ordered
product of the three axis quaternions, and `to_euler` the extraction
from the whole rotation matrix, with the package's branch rule: the rows
within `quat.LOCK_TOLERANCE` of the arcsin pole take a zero first angle
and a middle one of exactly +-pi/2. Where `np.longdouble` is wider than
float64 (`WIDE`; the x87 80-bit type has eps 1.1e-19), these references
are exact to within a few long-double ulps, far below a float64 path's
error, so the gap between a float64 result and them is that path's own
error. Near the pole Euler angles are ill-conditioned: `to_euler` is
exact there only to within a long-double ulp over the cosine of the
middle angle, the same loss a float64 extraction has in float64 ulps.
"""

import numpy as np

from dqmotion import quat

#: Whether long double carries more precision than float64.
WIDE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) long-double quaternions."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def pure(v: np.ndarray) -> np.ndarray:
    """(..., 4) quaternions (0, v) of (..., 3) vectors."""
    return np.concatenate([np.zeros(v.shape[:-1] + (1,), dtype=v.dtype), v], axis=-1)


def conjugate(q: np.ndarray) -> np.ndarray:
    return q * np.array([1, -1, -1, -1], dtype=q.dtype)


def forward(pose) -> tuple[np.ndarray, np.ndarray]:
    """(F, J, 4) current rotations and (F, J, 3) root-centered positions of
    a batched pose, in long double, one joint at a time."""
    q = pose.joint_rotations.astype(np.longdouble)
    q = q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    offsets = pose.skeleton.offsets.astype(np.longdouble)
    current = q.copy()
    positions = np.zeros(q.shape[:-1] + (3,), dtype=np.longdouble)
    for joint, parent in enumerate(pose.skeleton.parent_indices):
        if parent < 0:
            continue
        turned = mul(mul(current[:, parent], pure(offsets[joint])), conjugate(current[:, parent]))
        positions[:, joint] = positions[:, parent] + turned[..., 1:]
        current[:, joint] = mul(current[:, parent], q[:, joint])
    return current, positions


def dual_quaternions(current: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """(F, J, 8) current unit dual quaternions (q, 1/2 (0, p) q) of the
    long-double `forward` results."""
    return np.concatenate([current, mul(pure(positions), current) / 2], axis=-1)


#: pi in long double.
PI = 2 * np.arctan2(np.longdouble(1), np.longdouble(0))


def from_euler(angles: np.ndarray, order: str) -> np.ndarray:
    """(..., 4) unit quaternions of (..., 3) angles about x, y and z under
    `order`, in long double: the ordered product of the axis quaternions."""
    half = np.asarray(angles, dtype=np.longdouble) / 2
    q = None
    for axis in ("XYZ".index(c) for c in order):
        turn = np.zeros(half.shape[:-1] + (4,), dtype=np.longdouble)
        turn[..., 0] = np.cos(half[..., axis])
        turn[..., 1 + axis] = np.sin(half[..., axis])
        q = turn if q is None else mul(q, turn)
    return q


def to_euler(q: np.ndarray, order: str) -> np.ndarray:
    """(..., 3) angles about x, y and z of (..., 4) quaternions under
    `order`, in long double, read off each whole rotation matrix."""
    q = np.asarray(q, dtype=np.longdouble)
    w, x, y, z = np.moveaxis(q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True)), -1, 0)
    m = np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)
    i, j, k = ("XYZ".index(c) for c in order)
    sign = 1 if (j - i) % 3 == 1 else -1
    s = sign * m[..., i, k]
    out = np.empty(s.shape + (3,), dtype=np.longdouble)
    out[..., i] = np.arctan2(-sign * m[..., j, k], m[..., k, k])
    out[..., j] = np.arcsin(np.clip(s, -1, 1))
    out[..., k] = np.arctan2(-sign * m[..., i, j], m[..., i, i])
    lock = np.abs(s) >= 1 - quat.LOCK_TOLERANCE
    pole = np.sign(s[lock])
    # the first angle zero, the last one the turn left about axis k
    last = (np.arctan2(m[lock, j, i], -pole * m[lock, k, i]) if sign > 0
            else np.arctan2(pole * m[lock, k, j], m[lock, j, j]))
    out[lock, i], out[lock, j], out[lock, k] = 0, pole * PI / 2, last
    return out
