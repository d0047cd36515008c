"""Per-component textbook forms of the quaternion and dual-quaternion
kernels: the bit-identity oracle for `quat.mul`, `dualquat.mul`,
`dualquat.conjugate` and `dualquat.normalize`.

These are the original implementations. `quat.mul` stacks four sums of
strided component views, `dualquat.mul` is three quaternion products and a
concatenate, `dualquat.conjugate` concatenates the conjugated parts, and
`dualquat.normalize` takes its norms and dot products from
`np.linalg.norm` and `np.sum`. The package computes the same operations,
term by term and in the same order, on component-major copies;
`test_algebra_oracles.py` holds the two to equal bits, sign of zero and
C-contiguous layout included.
"""

import numpy as np

from dqmotion import quat
from dqmotion.dualquat import dual, real
from dqmotion.errors import DegenerateNormError


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
