"""Per-component textbook forms of the quaternion, dual-quaternion and
rotation-conversion kernels: the bit-identity oracle for `quat.mul`,
`quat.norm`, `quat.from_euler`, `dualquat.mul`, `dualquat.conjugate`, `dualquat.normalize`,
`dualquat.from_rotation_translation`, `dualquat.translation`, the
matrix entries `quat._entry`, `quat.to_euler`, and the six-value encode
and decode `encoding._ortho6d_of_quats` and `encoding._ortho6d_to_quats`.

These are the original implementations. `quat.mul` stacks four sums of
strided component views, `quat.norm` is `np.linalg.norm`, `from_euler`
is the ordered product of three axis quaternions, every zero term
included, `dualquat.mul` is three quaternion products and a concatenate, `dualquat.conjugate`
concatenates the conjugated parts, `dualquat.normalize` takes its norms
and dot products from `np.linalg.norm` and `np.sum`, and
`from_rotation_translation` and `translation` are quaternion products of
the parts. The package computes the same operations, term by term and in
the same order, on component-major copies.

The rotation conversions build whole matrices: `quat_to_matrix` stacks
nine entries, `gram_schmidt` stacks the columns x, y and `np.cross(x, y)`,
and `matrix_to_quat` gathers Shepperd's row out of a (..., 4, 4) table of
candidates. `to_euler` and `ortho6d_of_quats` read their entries out of
`quat_to_matrix`. The package builds no matrix: it computes only the
entries a caller reads. `residual_to_euler` keeps the gimbal-lock rule
the package ran before, the last angle read off the residual rotation
`lock_residual`, a stacked 3x3 product.

`test_algebra_oracles.py` holds the two forms to equal bits, sign of zero
and C-contiguous layout included.
"""

import numpy as np

from dqmotion import dualquat, quat
from dqmotion.dualquat import dual, real
from dqmotion.errors import DegenerateNormError, NotUnitError


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def axis_quat(axis: int, angle: np.ndarray) -> np.ndarray:
    """cos(angle/2) + sin(angle/2) * axis unit vector."""
    angle = np.asarray(angle, dtype=float)
    q = np.zeros(angle.shape + (4,))
    q[..., 0] = np.cos(angle / 2.0)
    q[..., 1 + axis] = np.sin(angle / 2.0)
    return q


def from_euler(angles: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """Unit quaternion of (alpha, beta, gamma) about x, y, z under `order`:
    the ordered product of the three axis quaternions, e.g.
    q_z * q_y * q_x for "ZYX"."""
    angles = np.asarray(angles, dtype=float)
    axes = ["XYZ".index(c) for c in order]
    q = axis_quat(axes[0], angles[..., axes[0]])
    for axis in axes[1:]:
        q = quat_mul(q, axis_quat(axis, angles[..., axis]))
    return q


def quat_norm(q: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis."""
    return np.linalg.norm(np.asarray(q, dtype=float), axis=-1)


def _join(r: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.concatenate([r, e], axis=-1)


def dualquat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual-quaternion product: (ar*br) + (ar*bd + ad*br) eps."""
    ar, ad = real(a), dual(a)
    br, bd = real(b), dual(b)
    return _join(quat_mul(ar, br), quat_mul(ar, bd) + quat_mul(ad, br))


def dualquat_conjugate(d: np.ndarray) -> np.ndarray:
    """Quaternion-conjugate both parts; inverts unit dual quaternions."""
    return _join(quat.conjugate(real(d)), quat.conjugate(dual(d)))


def dualquat_normalize(d: np.ndarray) -> np.ndarray:
    """Project onto the unit manifold.

    Real part is rescaled to unit norm; the dual part is rescaled and then
    stripped of its component along the real part, which restores the
    orthogonality condition exactly (up to roundoff). Idempotent.
    """
    d = np.asarray(d, dtype=float)
    r, e = real(d), dual(d)
    n = np.linalg.norm(r, axis=-1, keepdims=True)
    if np.any(n <= quat._NORM_FLOOR):
        raise DegenerateNormError(f"dual-quaternion real part has norm <= {quat._NORM_FLOOR:g}")
    r_hat = r / n
    e_hat = e / n - r_hat * (np.sum(r * e, axis=-1, keepdims=True) / (n * n))
    return _join(r_hat, e_hat)


def from_rotation_translation(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit dual quaternion applying rotation r, then translation t: the
    rotation divided by its norm, and half the pure-vector translation
    quaternion times it."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    n = np.linalg.norm(r, axis=-1, keepdims=True)
    if not np.all(np.abs(np.sum(r * r, axis=-1) - 1.0) <= 2.0 * dualquat.UNIT_TOLERANCE):
        raise NotUnitError(
            f"rotation quaternion norm deviates from 1 by more than {dualquat.UNIT_TOLERANCE:g}")
    r_hat = r / n
    pure = np.concatenate([np.zeros(t.shape[:-1] + (1,)), t], axis=-1)
    e = 0.5 * quat_mul(pure, r_hat)
    return _join(np.broadcast_to(r_hat, e.shape), e)


def translation(d: np.ndarray) -> np.ndarray:
    """Cartesian translation 2 * q_d * q_r^*, the vector coefficients."""
    d = np.asarray(d, dtype=float)
    if not dualquat.is_unit(d):
        raise NotUnitError(f"translation requires a unit dual quaternion (tol {dualquat.UNIT_TOLERANCE:g})")
    return 2.0 * quat_mul(dual(d), quat.conjugate(real(d)))[..., 1:]


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


def gram_schmidt(blocks: np.ndarray) -> np.ndarray:
    """Rotation matrices from six-value blocks; always orthonormal."""
    a = blocks[..., :3]
    b = blocks[..., 3:6]
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    if np.any(na <= quat._NORM_FLOOR):
        raise DegenerateNormError("degenerate first column in six-value block")
    x = a / na
    b_perp = b - np.sum(x * b, axis=-1, keepdims=True) * x
    nb = np.linalg.norm(b_perp, axis=-1, keepdims=True)
    if np.any(nb <= quat._NORM_FLOOR):
        raise DegenerateNormError("six-value block columns are collinear")
    y = b_perp / nb
    z = np.cross(x, y)
    return np.stack([x, y, z], axis=-1)  # columns x, y, z


def ortho6d_to_quats(blocks: np.ndarray) -> np.ndarray:
    """The six-value decode: Shepperd's method on the Gram-Schmidt matrix."""
    return matrix_to_quat(gram_schmidt(np.asarray(blocks, dtype=float)[..., :6]))


def ortho6d_of_quats(quats: np.ndarray) -> np.ndarray:
    """First two columns of each rotation matrix, column-major."""
    m = quat_to_matrix(quats)
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def axis_rotation_matrix(axis, angle) -> np.ndarray:
    """(..., 3, 3) rotations about coordinate axis 0 (x), 1 (y) or 2 (z),
    broadcasting over the shape of `angle`; `axis` is one axis or one per
    angle."""
    angle = np.asarray(angle, dtype=float)
    c = np.cos(angle).ravel()
    s = np.sin(angle).ravel()
    m = np.zeros(angle.shape + (3, 3))
    flat = m.reshape(-1, 9)  # entry (r, c) of each matrix at 3 r + c
    rows = np.arange(len(flat))
    axis = np.broadcast_to(axis, angle.shape).ravel()
    u = (axis + 1) % 3
    v = (axis + 2) % 3
    flat[rows, 4 * axis] = 1.0
    flat[rows, 4 * u] = c
    flat[rows, 3 * u + v] = -s
    flat[rows, 3 * v + u] = s
    flat[rows, 4 * v] = c
    return m


def _to_euler(q: np.ndarray, order: str, last_in_lock) -> np.ndarray:
    """Euler angles of each element's whole rotation matrix m; the last
    angle of the rows in the gimbal-lock band is last_in_lock(m, (i, j,
    k), pole) of those rows, pole the sign of the middle angle's sine."""
    m = quat_to_matrix(quat.normalize(q))

    i, j, k = ("XYZ".index(c) for c in order)
    sign = 1.0 if (i, j, k) in _CYCLIC else -1.0
    s = sign * m[..., i, k]

    out = np.empty(s.shape + (3,))
    out[..., j] = np.arcsin(np.clip(s, -1.0, 1.0))
    out[..., i] = np.arctan2(-sign * m[..., j, k], m[..., k, k])
    out[..., k] = np.arctan2(-sign * m[..., i, j], m[..., i, i])

    lock = np.abs(s) >= 1.0 - quat.LOCK_TOLERANCE
    if np.any(lock):
        pole = np.copysign(1.0, s[lock])
        out[lock, i] = 0.0
        out[lock, j] = pole * (np.pi / 2.0)
        out[lock, k] = last_in_lock(m[lock], (i, j, k), pole)
    return out


def to_euler(q: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """`quat.to_euler` through the whole rotation matrix of each element:
    a lock row's last angle reads two of its entries."""
    def last_in_lock(m, axes, pole):
        i, j, k = axes
        if axes in _CYCLIC:
            return np.arctan2(m[:, j, i], -pole * m[:, k, i])
        return np.arctan2(pole * m[:, k, j], m[:, j, j])
    return _to_euler(q, order, last_in_lock)


def lock_residual(m: np.ndarray, j: int, mid: np.ndarray) -> np.ndarray:
    """The residual rotations R_j(mid)^T m of (L, 3, 3) rotation matrices,
    a stacked 3x3 product: with the first angle zero and the middle one
    `mid` about axis j, a rotation about the last axis alone."""
    return np.swapaxes(axis_rotation_matrix(j, mid), -1, -2) @ m


def residual_to_euler(q: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """`to_euler` with the gimbal-lock rule the package ran before: a lock
    row's last angle read off its `lock_residual`."""
    def last_in_lock(m, axes, pole):
        _, j, k = axes
        residual = lock_residual(m, j, pole * (np.pi / 2.0))
        u, v = (k + 1) % 3, (k + 2) % 3
        return np.arctan2(residual[:, v, u], residual[:, u, u])
    return _to_euler(q, order, last_in_lock)
