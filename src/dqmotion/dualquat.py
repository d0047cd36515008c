"""Dual-quaternion rigid-transform algebra.

A dual quaternion is a length-8 float array: components 0..3 are the real
(rotation) quaternion, components 4..7 the dual (displacement-carrying)
quaternion, both scalar-first. All functions broadcast over leading axes.

A unit dual quaternion satisfies two scalar conditions: the real part has
unit norm and is orthogonal to the dual part. Only unit values encode
rigid transforms; `unitary_residual` exposes both residuals and
`normalize` repairs drift.
"""

from typing import NamedTuple

import numpy as np

from . import quat
from .errors import DegenerateNormError, NotUnitError

#: Tolerance of every unit check at an API boundary.
UNIT_TOLERANCE = 1e-6


class DualNumber(NamedTuple):
    """Primal + dual scalar pair, the magnitude of a dual quaternion."""

    primal: np.ndarray
    dual: np.ndarray


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def real(d: np.ndarray) -> np.ndarray:
    return np.asarray(d, dtype=float)[..., :4]


def dual(d: np.ndarray) -> np.ndarray:
    return np.asarray(d, dtype=float)[..., 4:]


def _join(r: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.concatenate([r, e], axis=-1)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual-quaternion product: (ar*br) + (ar*bd + ad*br) eps."""
    ar, ad = real(a), dual(a)
    br, bd = real(b), dual(b)
    return _join(quat.mul(ar, br), quat.mul(ar, bd) + quat.mul(ad, br))


def conjugate(d: np.ndarray) -> np.ndarray:
    """Quaternion-conjugate both parts; inverts unit dual quaternions."""
    return _join(quat.conjugate(real(d)), quat.conjugate(dual(d)))


def antipode(d: np.ndarray) -> np.ndarray:
    """-d, which encodes the same rigid transform as d."""
    return -np.asarray(d, dtype=float)


def magnitude(d: np.ndarray) -> DualNumber:
    """Dual-number magnitude ||q_r|| + eps_unit * <q_r, q_d> / ||q_r||."""
    r, e = real(d), dual(d)
    n = np.linalg.norm(r, axis=-1)
    if np.any(n <= quat._NORM_FLOOR):
        raise DegenerateNormError(f"dual-quaternion real part has norm <= {quat._NORM_FLOOR:g}")
    return DualNumber(n, quat.dot(r, e) / n)


def unitary_residual(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two unit-condition residuals (||q_r||^2 - 1, <q_r, q_d>).

    Both vanish exactly iff d encodes a rigid transform.
    """
    r, e = real(d), dual(d)
    return quat.dot(r, r) - 1.0, quat.dot(r, e)


def is_unit(d: np.ndarray) -> bool:
    norm_res, ortho_res = unitary_residual(d)
    tol = UNIT_TOLERANCE
    return bool(np.all(np.abs(norm_res) <= 2.0 * tol) and np.all(np.abs(ortho_res) <= tol))


def _require_unit(d: np.ndarray, what: str) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if not is_unit(d):
        raise NotUnitError(f"{what} requires a unit dual quaternion (tol {UNIT_TOLERANCE:g})")
    return d


def normalize(d: np.ndarray) -> np.ndarray:
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
    """Unit dual quaternion applying rotation r, then translation t.

    Matches the homogeneous matrix [[R(r), t], [0, 1]]. The dual part is
    half the pure-vector translation quaternion times the rotation.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    n = np.linalg.norm(r, axis=-1)
    if np.any(np.abs(n - 1.0) > UNIT_TOLERANCE):
        raise NotUnitError(
            f"rotation quaternion norm deviates from 1 by more than {UNIT_TOLERANCE:g}")
    r = r / n[..., None]
    qt = np.zeros(t.shape[:-1] + (4,))
    qt[..., 1:] = t
    return _join(r, 0.5 * quat.mul(qt, r))


def rotation(d: np.ndarray) -> np.ndarray:
    """The rotation quaternion of a unit dual quaternion."""
    d = _require_unit(d, "rotation")
    return real(d).copy()


def translation(d: np.ndarray) -> np.ndarray:
    """Cartesian translation 2 * q_d * q_r^*, the vector coefficients."""
    d = _require_unit(d, "translation")
    return 2.0 * quat.mul(dual(d), quat.conjugate(real(d)))[..., 1:]


def transform_point(d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Apply the rigid transform to point(s) p via the sandwich product.

    The point is embedded as 1 + eps*(0, p) and conjugated with the
    combined (quaternion + dual-number) conjugate, the variant under which
    the embedding is closed.
    """
    d = _require_unit(d, "transform_point")
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(d[..., :1].shape, p[..., :1].shape)
    embedded = np.zeros(shape[:-1] + (8,))
    embedded[..., 0] = 1.0
    embedded[..., 5:] = p
    full_conj = _join(quat.conjugate(real(d)), -quat.conjugate(dual(d)))
    return mul(mul(d, embedded), full_conj)[..., 5:]
