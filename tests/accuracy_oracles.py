"""Long-double references for the accuracy ledger (`test_accuracy.py`).

Forward kinematics one joint at a time in `np.longdouble`: the rotations
normalized in long double, each current rotation its parent's times its
local one, each position its parent's plus the offset turned by the
parent's current rotation, q (0, o) q*, and each current dual quaternion
(q, 1/2 (0, p) q). Where `np.longdouble` is wider than float64 (`WIDE`;
the x87 80-bit type has eps 1.1e-19), these references are exact to
within a few long-double ulps, far below a float64 path's error, so the
gap between a float64 result and them is that path's own error.
"""

import numpy as np

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
