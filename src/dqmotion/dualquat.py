"""Dual-quaternion rigid-transform algebra.

A dual quaternion is a length-8 float array: components 0..3 are the real
(rotation) quaternion, components 4..7 the dual (displacement-carrying)
quaternion, both scalar-first. All functions broadcast over leading axes.

A unit dual quaternion satisfies two scalar conditions: the real part has
unit norm and is orthogonal to the dual part. Only unit values encode
rigid transforms; `unitary_residual` exposes both residuals and
`normalize` repairs drift.

Layout: inputs may have any layout, and a result's bits never depend on
it (see `quat`: every dot is `quat._row_dot`, in index order). `mul`,
`conjugate`, `normalize`, `from_rotation_translation` and `translation`
return fresh C-contiguous arrays. All but `conjugate` are one
`quat._on_rows` call of their row kernel (`_mul_rows`, `_normalize_rows`,
`_from_rotation_translation_rows` and `_translation_rows`); every sum
keeps the terms and the order of the per-part formula. `_mul_rows`
and `_translation_rows` are term tables of the one Hamilton-product
kernel, `quat._products`; the translation's table folds the conjugate's
signs in, and `_mul_rows` has tables that fold either operand's.
`kinematics` sweeps the hierarchy with the same kernels.

Every unit verdict reads one residual kernel on rows, `_residual_rows`,
and one rule, `_within_unit_tolerance`: `unitary_residual` and so
`is_unit`, the checks of `translation` and `from_rotation_translation`,
`LocalPose`'s sweep, and `dqmotion encode` and `validate`. So they agree
on every block.
"""

from typing import NamedTuple

import numpy as np

from . import quat
from .errors import NotUnitError, ShapeMismatchError

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


#: The signs `quat.conjugate` applies, once per part.
_CONJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual-quaternion product: (ar*br) + (ar*bd + ad*br) eps.

    One fused kernel, `_mul_rows`, on one component-major copy of each
    operand: each dual component is the sum of its two products, as
    `quat.mul` on the parts would round them.
    """
    return quat._on_rows(_mul_rows, 8, a, b)


#: The term tables of `_mul_rows` that its callers use, by (swap,
#: conjugate): the sums ar * b[:4], ar * b[4:] and ad * b[4:] or
#: ad * b[:4], four each.
_MUL_TERMS = {(swap, conjugate): quat._product_terms(
    [(k, a_row, b_row) for a_row, b_row in ((0, 0), (0, 4), (4, 4 * swap)) for k in range(4)], 8,
    conjugate=conjugate) for swap, conjugate in ((False, None), (True, None), (False, "a"), (True, "b"))}


def _mul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, swap: bool = False,
              conjugate: str | None = None) -> None:
    """`mul` on (8, ...) component rows a and b, into the rows `out`,
    which must not overlap an operand. With `swap`, the real and dual rows
    of b and of `out` trade places: out = swap(a * swap(b)). With
    `conjugate` "a" or "b", that operand's `conjugate` takes its place
    (a alone, b only with `swap`).

    One `quat._products` of 12 sums: rows 0..3 of `out` take ar * b[:4],
    rows 4..7 take ar * b[4:], and the dual rows add the third product of
    parts to theirs, as `quat.mul` on the parts rounds them.
    """
    tmp = np.empty((4,) + a.shape[1:])
    quat._products(_MUL_TERMS[swap, conjugate], a, b, out, tmp)
    dual_rows = out[:4] if swap else out[4:]
    np.add(dual_rows, tmp, out=dual_rows)


def conjugate(d: np.ndarray) -> np.ndarray:
    """Quaternion-conjugate both parts; inverts unit dual quaternions."""
    return np.multiply(np.asarray(d, dtype=float), _CONJUGATE_SIGNS, order="C")


def antipode(d: np.ndarray) -> np.ndarray:
    """-d, which encodes the same rigid transform as d."""
    return -np.asarray(d, dtype=float)


#: The message of a real part at or below the norm floor.
_DEGENERATE_REAL = "dual-quaternion real part has norm <= {floor:g}"


def magnitude(d: np.ndarray) -> DualNumber:
    """Dual-number magnitude ||q_r|| + eps_unit * <q_r, q_d> / ||q_r||."""
    r, e = real(d), dual(d)
    n = quat._unit_norms(quat._components(r), _DEGENERATE_REAL)
    return DualNumber(n, quat.dot(r, e) / n)


def unitary_residual(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two unit-condition residuals (||q_r||^2 - 1, <q_r, q_d>).

    Both vanish exactly iff d encodes a rigid transform.
    """
    d = np.asarray(d, dtype=float)
    if d.shape[-1:] != (8,):
        raise ShapeMismatchError(f"dual quaternions have 8 components, got shape {d.shape}")
    return _residual_rows(quat._components(d))


def _residual_rows(rows: np.ndarray) -> tuple:
    """The unit residuals (|r|^2 - 1, <r, e>) of (8, ...) component rows,
    each dot `quat.dot`'s bits; of (4, ...) rotation rows, |r|^2 - 1 and
    0.0. The one residual kernel of every unit verdict. An overflow is
    not unit either: it leaves an infinite or NaN residual."""
    r = rows[:4]
    with np.errstate(over="ignore", invalid="ignore"):
        norm_res = quat._row_dot(r, r) - 1.0
        # + 0.0: np.sum starts from +0.0, so a sum of -0.0 terms is +0.0
        ortho_res = quat._row_dot(r, rows[4:]) + 0.0 if len(rows) > 4 else 0.0
    return norm_res, ortho_res


def is_unit(d: np.ndarray) -> bool:
    return _within_unit_tolerance(*unitary_residual(d))


def _within_unit_tolerance(norm_res: np.ndarray, ortho_res: np.ndarray) -> bool:
    """The one unit rule: |r|^2 within 2 tol of 1, which is |r| within tol
    of 1, and <r, e> within tol of 0, everywhere (a NaN fails)."""
    tol = UNIT_TOLERANCE
    return bool(np.all(np.abs(norm_res) <= 2.0 * tol) and np.all(np.abs(ortho_res) <= tol))


def _not_unit(what: str) -> NotUnitError:
    return NotUnitError(f"{what} requires a unit dual quaternion (tol {UNIT_TOLERANCE:g})")


def _require_unit(d: np.ndarray, what: str) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if not is_unit(d):
        raise _not_unit(what)
    return d


def normalize(d: np.ndarray) -> np.ndarray:
    """Project onto the unit manifold.

    Real part is rescaled to unit norm; the dual part is rescaled and then
    stripped of its component along the real part, which restores the
    orthogonality condition exactly (up to roundoff). Idempotent.
    """
    return quat._on_rows(_normalize_rows, 8, d)


def _normalize_rows(rows: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`normalize` on (8, ...) component rows, into the rows `out`; returns
    the real parts' norms and the projections of the dual parts along the
    real ones (<r, e> / |r|^2). Scales `rows` in place."""
    r, e = rows[:4], rows[4:]
    n = quat._unit_norms(r, _DEGENERATE_REAL)
    along = quat._row_dot(r, e)
    along += 0.0  # np.sum starts from +0.0: a sum of -0.0 terms is +0.0
    along /= n * n
    r /= n
    e /= n
    out[:4] = r
    r *= along
    np.subtract(e, r, out=out[4:])
    return n, along


def from_rotation_translation(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit dual quaternion applying rotation r, then translation t.

    Matches the homogeneous matrix [[R(r), t], [0, 1]]. The dual part is
    half the pure-vector translation quaternion times the rotation.
    """
    def kernel(r, t, out):
        # A contiguous temporary: the kernel reads its rotation rows back
        # as the right operand of every Hamilton term, and `out` is strided.
        out[...] = _from_rotation_translation_rows(r, t, np.empty(out.shape))

    return quat._on_rows(kernel, 8, r, t)


def _from_rotation_translation_rows(r: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`from_rotation_translation` of (4, ...) rotation rows and (3, ...)
    translation rows into (8, ...) rows `out`, after the unit check of the
    rotation (`_residual_rows`). The rotation is divided by its norm; the
    dual rows are `quat._mul_rows` of (0, t) on a zero real row, halved."""
    residuals = _residual_rows(r)
    if not _within_unit_tolerance(*residuals):
        raise NotUnitError(
            f"rotation quaternion norm deviates from 1 by more than {UNIT_TOLERANCE:g}")
    # |r|^2 - 1 + 1 is |r|^2 exactly: the check put |r|^2 in [0.5, 2] (Sterbenz)
    np.divide(r, np.sqrt(residuals[0] + 1.0), out=out[:4])
    pure = np.zeros(out[4:].shape)
    pure[1:] = t
    quat._mul_rows(pure, out[:4], out[4:])
    out[4:] *= 0.5
    return out


def rotation(d: np.ndarray) -> np.ndarray:
    """The rotation quaternion of a unit dual quaternion."""
    d = _require_unit(d, "rotation")
    return real(d).copy()


def translation(d: np.ndarray) -> np.ndarray:
    """Cartesian translation 2 * q_d * q_r^*, the vector coefficients."""
    return quat._on_rows(_translation_rows, 3, d)


#: The vector components of e * conjugate(r), the conjugate's signs in the table.
_TRANSLATION_TERMS = quat._product_terms([(k, 0, 0) for k in range(1, 4)], conjugate="b")


def _translation_rows(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`translation` of (8, ...) component rows into (3, ...) rows `out`
    (a new array when None), after the unit check (`_residual_rows`)."""
    if not _within_unit_tolerance(*_residual_rows(d)):
        raise _not_unit("translation")
    r, e = d[:4], d[4:]
    if out is None:
        out = np.empty((3,) + d.shape[1:])
    quat._products(_TRANSLATION_TERMS, e, r, out)
    out *= 2.0
    return out


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
    full_conj = conjugate(d)
    full_conj[..., 4:] *= -1.0
    return mul(mul(d, embedded), full_conj)[..., 5:]
