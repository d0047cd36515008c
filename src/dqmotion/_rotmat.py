"""Internal rotation-matrix helpers.

Matrices are deliberately not part of the public quaternion API; they back
the forward-kinematics oracle, Euler-angle extraction, and the six-value
rotation blocks. All matrices act on column vectors.

The conversions are entry-wise: `entry` computes one matrix entry of
quaternions, so a caller computes only the entries it reads (`to_euler`
reads five, the six-value encode six, and only `quat_to_matrix` all
nine), and the six-value decode (`encoding._ortho6d_to_quats`) runs
Gram-Schmidt and Shepperd's method on the block values without building a
matrix. Each entry keeps the terms, and the order of the terms, of the
whole-matrix formula, so the results keep their bits:
`tests/algebra_oracles.py` keeps the stacked matrix forms
(`quat_to_matrix`, `gram_schmidt`, `matrix_to_quat`) that
`tests/test_algebra_oracles.py` holds the entry-wise ones to.
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
