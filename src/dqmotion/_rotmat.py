"""Internal rotation-matrix helpers.

Matrices are deliberately not part of the public quaternion API; they back
the forward-kinematics oracle, Euler-angle extraction, and the six-value
rotation blocks. All matrices act on column vectors.
"""

import numpy as np

AXES = "XYZ"


def axis_rotation_matrix(axis: int, angle) -> np.ndarray:
    """(..., 3, 3) rotations about coordinate axis 0 (x), 1 (y) or 2 (z),
    broadcasting over the shape of `angle`."""
    angle = np.asarray(angle, dtype=float)
    c = np.cos(angle)
    s = np.sin(angle)
    m = np.zeros(angle.shape + (3, 3))
    u = (axis + 1) % 3
    v = (axis + 2) % 3
    m[..., axis, axis] = 1.0
    m[..., u, u] = c
    m[..., u, v] = -s
    m[..., v, u] = s
    m[..., v, v] = c
    return m


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion, broadcasting over leading axes.

    Input shape (..., 4) scalar-first, output shape (..., 3, 3).
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rows = np.stack(
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
        axis=-1,
    )
    return rows.reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternions (..., 4) of (..., 3, 3) rotation matrices.

    Shepperd's branching keeps the division well conditioned for any
    input: row n of `table` is 4 q_n q, divided by 4 q_n for the branch n.
    """
    m = np.asarray(m, dtype=float)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    wx = m[..., 2, 1] - m[..., 1, 2]
    wy = m[..., 0, 2] - m[..., 2, 0]
    wz = m[..., 1, 0] - m[..., 0, 1]
    xy = m[..., 0, 1] + m[..., 1, 0]
    xz = m[..., 0, 2] + m[..., 2, 0]
    yz = m[..., 1, 2] + m[..., 2, 1]
    table = np.stack(
        [
            np.stack([1.0 + m00 + m11 + m22, wx, wy, wz], axis=-1),
            np.stack([wx, 1.0 + m00 - m11 - m22, xy, xz], axis=-1),
            np.stack([wy, xy, 1.0 - m00 + m11 - m22, yz], axis=-1),
            np.stack([wz, xz, yz, 1.0 - m00 - m11 + m22], axis=-1),
        ],
        axis=-2,
    )
    branch = np.where(
        m00 + m11 + m22 > 0.0,
        0,
        np.where((m00 > m11) & (m00 > m22), 1, np.where(m11 > m22, 2, 3)),
    )
    row = np.take_along_axis(table, branch[..., None, None], axis=-2)[..., 0, :]
    lead = np.take_along_axis(row, branch[..., None], axis=-1)
    q = row / (2.0 * np.sqrt(lead))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)
