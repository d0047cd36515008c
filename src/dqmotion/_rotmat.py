"""Internal rotation-matrix helpers.

Matrices are deliberately not part of the public quaternion API; they back
the forward-kinematics oracle, Euler-angle extraction, and the six-value
rotation blocks. All matrices act on column vectors.

The conversions are entry-wise: `entry` computes one matrix entry of
quaternions, so a caller computes only the entries it reads (the
six-value encode six, and only `quat_to_matrix` all nine);
`euler_entries` computes the five that `to_euler` reads, with each
column's Euler axes as data; and the six-value decode
(`encoding._ortho6d_to_quats`) runs Gram-Schmidt and Shepperd's method
on the block values without building a matrix. Each entry keeps the
terms, and the order of the terms, of the whole-matrix formula, so the
results keep their bits: `tests/algebra_oracles.py` keeps the stacked
matrix forms (`quat_to_matrix`, `gram_schmidt`, `matrix_to_quat`) that
`tests/test_algebra_oracles.py` holds the entry-wise ones to.
"""

import numpy as np

AXES = "XYZ"


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


def entry(q: np.ndarray, r: int, c: int, out=None) -> np.ndarray:
    """Entry (r, c) of the rotation matrices of unit quaternions (..., 4),
    into `out` when given.

    Diagonal: 1 - 2 (a a + b b) over the two other vector components in
    index order. Off the diagonal: 2 (v_lo v_hi -+ w v_t), with the sign
    minus where c follows r cyclically and t the third axis.
    """
    w, *v = (q[..., n] for n in range(4))
    if r == c:
        a, b = (v[n] for n in range(3) if n != r)
        return np.subtract(1.0, 2.0 * (a * a + b * b), out=out)
    lo, hi = sorted((r, c))
    along = v[lo] * v[hi]
    cross = w * v[3 - r - c]
    along = along - cross if c == (r + 1) % 3 else along + cross
    return np.multiply(2.0, along, out=out)


def euler_entries(slots, parity: np.ndarray):
    """Entries (i, k), (j, k), (k, k), (i, j) and (i, i) of the rotation
    matrices of unit quaternions, given as their slots (w, v_i, v_j, v_k)
    on axis -2 of (..., 4, n) `slots`, for columns that turn about the
    axes (i, j, k) in composition order, with `parity` 1.0 where those
    are cyclic and -1.0 where not: the five entries `to_euler` reads, in
    that order.

    Each entry has the bits of `entry`: an off-diagonal entry there adds
    w v_t to v_lo v_hi or subtracts it, as c follows r cyclically or not,
    which the parity's sign on w decides here; a sum of two terms does not
    depend on their order, and a sign flip is exact.
    """
    w, a, b, c = (slots[..., s, :] for s in range(4))
    w = parity * w  # (parity w) v has the bits of parity (w v)
    return (2.0 * (a * c + w * b), 2.0 * (b * c - w * a), 1.0 - 2.0 * (a * a + b * b),
            2.0 * (a * b - w * c), 1.0 - 2.0 * (b * b + c * c))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion, broadcasting over leading axes.

    Input shape (..., 4) scalar-first, output shape (..., 3, 3).
    """
    q = np.asarray(q, dtype=float)
    m = np.empty(q.shape[:-1] + (3, 3))
    for r in range(3):
        for c in range(3):
            entry(q, r, c, out=m[..., r, c])
    return m
