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
candidates. `ortho6d_of_quats` reads its entries out of
`quat_to_matrix`. The package builds no matrix: it computes only the
entries a caller reads. `to_euler` reads no matrix either: it is the
direct method of Bernardes and Viollet written out on whole (w, x, y, z)
arrays, its sums taken from the components about each order's axes
(`euler_sums`), where the package gathers them into slots of a plan.

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

#: A squared length of (a, b) or (c, d) (`euler_sums`) at or below this
#: puts a unit quaternion on a pole of its order.
POLE_FLOOR = 2.0 ** -100


def euler_sums(q: np.ndarray, order: str) -> tuple:
    """The sums (a, b, c, d) of the direct Euler method on unit
    quaternions (..., 4) under `order`: w + v_j, v_i + v_k, w - v_j and
    v_i - v_k on the components about the composition axes (i, j, k), v_j
    negated for an order that is not cyclic."""
    i, j, k = ("XYZ".index(c) for c in order)
    sign = 1.0 if (i, j, k) in _CYCLIC else -1.0
    w, vi, vj, vk = q[..., 0], q[..., 1 + i], sign * q[..., 1 + j], q[..., 1 + k]
    return w + vj, vi + vk, w - vj, vi - vk


def to_euler(q: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """`quat.to_euler` per component on whole (w, x, y, z): the middle
    angle from the lengths of (a, b) and (c, d), the first and last the
    arguments of (a + ib)(c + id) and (a + ib)(c - id); on a pole (c, d)
    is (a, -b), or (a, b) is (c, -d), so the first angle is zero."""
    q = quat.normalize(q)
    i, j, k = ("XYZ".index(c) for c in order)
    sign = 1.0 if (i, j, k) in _CYCLIC else -1.0
    a, b, c, d = euler_sums(q, order)
    ab = a * a + b * b
    cd = c * c + d * d
    out = np.empty(q.shape[:-1] + (3,))
    out[..., j] = sign * (2.0 * np.arctan2(np.sqrt(ab), np.sqrt(cd)) - np.pi / 2.0)
    c, d = np.where(cd <= POLE_FLOOR, a, c), np.where(cd <= POLE_FLOOR, -b, d)
    a, b = np.where(ab <= POLE_FLOOR, c, a), np.where(ab <= POLE_FLOOR, -d, b)
    out[..., i] = np.arctan2(b * c + a * d, a * c - b * d)
    out[..., k] = np.arctan2(b * c - a * d, a * c + b * d)
    return out
