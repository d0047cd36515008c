"""Quaternion algebra on scalar-first (w, x, y, z) arrays.

A quaternion is a length-4 float array; every function broadcasts over
leading axes, so a time series of shape (F, J, 4) works the same as a
single (4,) value. That includes the Euler conversions: `to_euler` maps
(..., 4) to (..., 3), its gimbal-lock branch selected per element by a
mask. Angles are radians throughout.

Euler angles are passed as an (alpha, beta, gamma) triple holding the
rotations about the x, y and z axes respectively, together with an order
tag such as "ZYX" naming the composition order: "ZYX" composes as
q_z(gamma) * q_y(beta) * q_x(alpha), i.e. the x rotation is applied first
to a column vector.

Layout: inputs may have any layout (slices, gathers, broadcast views),
and the layout is never part of the bits. `dot` is the package's one
inner product, `_row_dot` on the component views: it adds the terms in
index order, so any layout gives one result, and every unit verdict
reads it (`dualquat`'s one residual kernel). `mul` returns a fresh
C-contiguous array whatever its operands' layout. `mul` and
the `dualquat` `mul`, `normalize`, `from_rotation_translation` and
`translation` are one `_on_rows` call each: one component-major copy of
each operand, and a row kernel that adds each sum's terms in the
per-component formula's order into the fresh result: the formula's
bits, with a fraction of its temporaries. The same row kernels serve
callers that keep their values in rows, such as the gradients in
`losses`. Every quaternion and dual-quaternion product on rows runs
through one kernel, `_products`, on a term table that `_product_terms`
derives at import from `_HAMILTON`, the one table of terms (a table may
leave out the terms of an operand's zero components or fold either
operand's conjugate into its signs). A product whose terms fit in
`_STACK_VALUES` values gathers and multiplies them all at once; a
larger one runs sum by sum. `norm` is `_row_norm` on the component
view, and `_lengths` the same sum of squares in index order without its
overflow check, for the metrics.

The Euler conversions take the order as data. An `EulerPlan` gives each
column of angles the axes (i, j, k) it turns about, in composition
order, and a parity, 1.0 for a cyclic order and -1.0 for the others, so
one call of a kernel, `_from_euler` or `_to_euler`, converts columns of
any mix of orders: `kinematics` converts a whole clip with one call each
way, and `from_euler` and `to_euler` are the kernels on a one-column
plan. `_from_euler` is two such products on rows of the cosines and sines
of the half angles, which store only the two nonzero components of each
axis quaternion: 12 of the 32 terms run. It uses the tables of "XYZ",
which on the slots (w, v_i, v_j, v_k) of the composition axes hold for
every cyclic order; an order that is not cyclic runs them on a negated
middle sine and negates slot j. The few rows where a skipped zero term
could set a sign of zero go through the full product, `_euler_product`,
again. `_to_euler` works the same way on the rotation matrix: it computes
only the five entries it reads (`_rotmat.euler_entries`, each with the
bits of `_rotmat.entry`), builds whole matrices only for the rows in the
gimbal-lock band, and `to_euler` writes a fresh C-contiguous result.
"""

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _rotmat
from .errors import DegenerateNormError, InvalidValueError, NonFiniteError, ShapeMismatchError

#: Arguments of arcsin at least this close to +-1 take the degenerate
#: (gimbal-lock) branch of to_euler. It covers middle angles within about
#: 1e-4 degrees of the pole; a wider band would snap nearby angles onto it.
LOCK_TOLERANCE = 1e-12

# Norms at or below this floor cannot be normalized (DegenerateNormError):
# `_unit_norms` is the one check, which every module calls.
_NORM_FLOOR = 1e-12

_VALID_ORDERS = {"XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"}
_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


# The Hamilton product's four sums, term by term in left-to-right order:
# component k of a * b is the sum of sign * a[i] * b[j] over _HAMILTON[k].
_HAMILTON = (
    ((+1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
    ((+1, 0, 1), (+1, 1, 0), (+1, 2, 3), (-1, 3, 2)),
    ((+1, 0, 2), (-1, 1, 3), (+1, 2, 0), (+1, 3, 1)),
    ((+1, 0, 3), (+1, 1, 2), (-1, 2, 1), (+1, 3, 0)),
)
#: The accumulation of a later term into its sum, by whether its sign negates it.
_ACCUMULATE = (np.add, np.subtract)


def _rows(x: np.ndarray, shape: tuple) -> np.ndarray:
    """x broadcast over the leading `shape` and copied component-major: a
    C-contiguous (C, N) array whose row i holds component i."""
    rows = np.empty((x.shape[-1],) + shape)
    for i in range(x.shape[-1]):
        rows[i] = x[..., i]
    return rows.reshape(x.shape[-1], -1)


#: Most values in the block of terms of a stacked `_products`; larger
#: products run sum by sum. A block this size (128 KiB) stays below
#: glibc's default mmap threshold; past it the stacked operands fall out
#: of cache and the form sum by sum is faster.
_STACK_VALUES = 16384


def _product_terms(sums: list, width: int = 4, a_parts=range(4), b_parts=range(4),
                   conjugate: str | None = None) -> tuple:
    """The term table of `_products` for `sums`, a list of (k, a_row,
    b_row): component k of the quaternion at rows a_row.. of a times the
    one at rows b_row.. of b.

    `a_parts` and `b_parts` map each component of an operand's
    quaternions to its row after a_row or b_row, or to None where the
    component is zero and not stored: its terms are left out, and every
    sum must keep as many as the others. With `conjugate` "a" or "b" that
    operand's quaternions are conjugated, the signs folded into a's rows.
    Term n of sum s, the n-th it keeps in `_HAMILTON`'s order, sits at
    n * len(sums) + s: its row of [a; -a], for an a of `width` rows, where
    its sign picks -a, and its row of b. Returns the rows of [a; -a], the
    rows of b, the number of sums and whether any term reads -a.
    """
    kept = [[(sign, i, j) for sign, i, j in _HAMILTON[k] if a_parts[i] is not None and b_parts[j] is not None]
            for k, _, _ in sums]
    signed_rows, b_rows = [], []
    for n in range(max(map(len, kept))):
        for (_, a_row, b_row), terms in zip(sums, kept):
            sign, i, j = terms[n]
            negated = (sign < 0) ^ (conjugate == "a" and i > 0) ^ (conjugate == "b" and j > 0)
            signed_rows.append(a_row + a_parts[i] + width * negated)
            b_rows.append(b_row + b_parts[j])
    return np.array(signed_rows), np.array(b_rows), len(sums), max(signed_rows) >= width


def _products(table: tuple, a: np.ndarray, b: np.ndarray, *out: np.ndarray) -> np.ndarray | None:
    """The sums of the term `table` (`_product_terms`) on component rows a
    and b, sum s into row s of the blocks `out` taken in order, which must
    not overlap an operand, or into new rows that are returned when no
    block is given. Each sum adds its terms in `_HAMILTON`'s order: the
    per-component formula's bits.

    Up to `_STACK_VALUES` values of terms, every term comes from one
    gather of [a; -a] (of a alone when no term is negated), one of b and
    one multiply; the sums add whole blocks of terms in place and are
    copied into `out`. Above it each sum runs on its own output row, its
    first term negated in place where its sign says so and each later one
    added or subtracted (`_ACCUMULATE`).
    """
    signed_rows, b_rows, count, negated = table
    if len(signed_rows) * a[0].size <= _STACK_VALUES:
        signed = np.concatenate((a, np.negative(a))) if negated else a
        # the `take` methods: `np.take`'s dispatch costs more than a small take
        terms = signed.take(signed_rows, axis=0)
        terms *= b.take(b_rows, axis=0)
        terms = terms.reshape((len(signed_rows) // count, count) + terms.shape[1:])
        total = terms[0]
        for term in terms[1:]:
            total += term
        if not out:
            return total
        first = 0
        for block in out:
            block[...] = total[first:first + len(block)]
            first += len(block)
        return None
    fresh = () if out else (np.empty((count,) + a.shape[1:]),)
    out = out or fresh
    signed_rows, b_rows = signed_rows.tolist(), b_rows.tolist()
    tmp = np.empty(a.shape[1:])
    for s, row in enumerate(row for block in out for row in block):
        negated, i = divmod(signed_rows[s], len(a))
        np.multiply(a[i], b[b_rows[s]], out=row)
        if negated:
            np.negative(row, out=row)
        for n in range(s + count, len(signed_rows), count):
            negated, i = divmod(signed_rows[n], len(a))
            np.multiply(a[i], b[b_rows[n]], out=tmp)
            _ACCUMULATE[negated](row, tmp, out=row)
    return fresh[0] if fresh else None


#: The four sums of one quaternion product on rows 0..3 of each operand.
_QUAT_SUMS = [(k, 0, 0) for k in range(4)]
#: The term tables of `_mul_rows`, by the operand it conjugates.
_MUL_TERMS = {conjugate: _product_terms(_QUAT_SUMS, conjugate=conjugate) for conjugate in (None, "a", "b")}


def _mul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, conjugate: str | None = None) -> None:
    """Hamilton product of (4, ...) component rows a and b, into the rows
    `out`, which must not overlap either operand; with `conjugate` "a" or
    "b", that operand's conjugate in its place."""
    _products(_MUL_TERMS[conjugate], a, b, out)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a[i] * b[i] over the component rows, in index order: the
    package's one inner product, which `dot` runs on component views."""
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total += a[i] * b[i]
    return total


def _row_norm(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the values in component rows, with `norm`'s bits.
    Raises NonFiniteError where a norm is infinite, finite values whose
    squares overflow included: no unit value or distance follows from it."""
    with np.errstate(over="ignore"):
        n = np.sqrt(_row_dot(rows, rows))
    if np.isinf(n).any():
        raise NonFiniteError("a norm overflows: values too large for float64")
    return n


def _lengths(values: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Euclidean lengths over the last axis, the squares summed in index
    order: `np.linalg.norm(values, axis=-1)`, bits and overflow warning
    included, without `norm`'s NonFiniteError. One multiply squares every
    value, in place with `overwrite` (for a temporary of the caller's);
    the sum then reads the squares component by component."""
    values = np.asarray(values, dtype=float)
    squares = np.multiply(values, values, out=values if overwrite else None)
    total = squares[..., 0] + squares[..., 1] if values.shape[-1] > 1 else squares[..., 0].copy()
    for i in range(2, values.shape[-1]):
        total += squares[..., i]
    return np.sqrt(total, out=total)


def _components(values: np.ndarray) -> np.ndarray:
    """The (C, ...) component view of (..., C) values, no copy: row i is
    component i. (`np.moveaxis` makes the same view at several times the
    cost.)"""
    return values.transpose((-1,) + tuple(range(values.ndim - 1)))


def _on_rows(kernel, width: int, *operands) -> np.ndarray:
    """kernel(*rows, out) on one `_rows` copy of each operand, into the
    transposed view of a fresh C-contiguous (..., width) result. (The
    whole-array transposed copy of `kinematics._to_rows` is slower here.)"""
    operands = [np.asarray(x, dtype=float) for x in operands]
    shape = np.broadcast_shapes(*(x.shape[:-1] for x in operands))
    out = np.empty(shape + (width,))
    kernel(*(_rows(x, shape) for x in operands), out.reshape(-1, width).T)
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    return _on_rows(_mul_rows, 4, a, b)


def conjugate(q: np.ndarray) -> np.ndarray:
    """(w, -x, -y, -z)."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, of any length: `_row_dot` on the
    component views, so the terms add in index order whatever the
    operands' layout. A sum of -0.0 terms is +0.0, as `np.sum`'s. Raises
    ShapeMismatchError when the last axes differ in length or are empty."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-1:] != b.shape[-1:] or a.shape[-1:] in ((), (0,)):
        raise ShapeMismatchError(f"dot needs nonempty last axes of one length, got {a.shape} and {b.shape}")
    return _row_dot(_components(a), _components(b)) + 0.0  # np.sum starts from +0.0


def norm(q: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, with np.linalg.norm's bits (the
    squares summed in index order). Raises NonFiniteError where it is
    infinite, finite values whose squares overflow included."""
    return _row_norm(_components(np.asarray(q, dtype=float)))


def normalize(q: np.ndarray) -> np.ndarray:
    """Scale to unit norm. Raises DegenerateNormError when the norm is at
    or below the 1e-12 floor, and NonFiniteError when it is infinite."""
    q = np.asarray(q, dtype=float)
    return q / _unit_norms(_components(q))[..., None]


def _unit_norms(rows: np.ndarray, message: str = "quaternion norm <= {floor:g}") -> np.ndarray:
    """`_row_norm` of component rows to divide by: the package's one floor
    check, DegenerateNormError with `message` (its `{floor}` the floor)
    where a norm is at or below the floor."""
    n = _row_norm(rows)
    if np.any(n <= _NORM_FLOOR):
        raise DegenerateNormError(message.format(floor=_NORM_FLOOR))
    return n


def _order_axes(order: str) -> tuple:
    """The axes (i, j, k) of `order`'s rotations in composition order (0 x,
    1 y, 2 z), and its parity: 1.0 if they are cyclic, -1.0 if not."""
    order = order.upper()
    if order not in _VALID_ORDERS:
        raise InvalidValueError(f"invalid rotation order {order!r}; expected a permutation of XYZ")
    axes = tuple(_rotmat.AXES.index(c) for c in order)
    return axes, 1.0 if axes in _CYCLIC else -1.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class EulerPlan:
    """Euler orders as data, the one input of the Euler kernels
    (`_from_euler`, `_to_euler`): column c of n turns about the axes
    axes[c] = (i, j, k) in composition order (0 x, 1 y, 2 z), and parity[c]
    is 1.0 where they are cyclic (XYZ, YZX, ZXY) and -1.0 where not. The
    arrays are read-only, and so is `slot_components`, derived from them.
    """

    axes: np.ndarray  # (n, 3)
    parity: np.ndarray  # (n,)

    @cached_property
    def slot_components(self) -> np.ndarray:
        """(4, n): the component, of (w, x, y, z), of each column's slots
        (w, v_i, v_j, v_k), slot by slot: 0 and 1 + its axes."""
        components = np.zeros((4, len(self.axes)), dtype=np.intp)
        np.add(self.axes.T, 1, out=components[1:])
        return _read_only(components)


@functools.lru_cache(maxsize=4 * len(_VALID_ORDERS))
def _one_order(order: str) -> EulerPlan:
    """`order` as a one-column plan of the Euler kernels."""
    axes, parity = _order_axes(order)
    return EulerPlan(_read_only(np.array([axes], dtype=np.intp)), _read_only(np.array([parity])))


_ONE_ROW = _read_only(np.zeros(1, dtype=np.intp))  # the rows of a one-column plan


def _axis_quat(axis: np.ndarray, half: np.ndarray) -> np.ndarray:
    """cos(half) + sin(half) * the unit vector of each half angle's axis."""
    q = np.zeros(half.shape + (4,))
    q[..., 0] = np.cos(half)
    np.put_along_axis(q, 1 + axis[..., None], np.sin(half)[..., None], axis=-1)
    return q


def _euler_product(half: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """`_from_euler` as the ordered `mul` of the three axis quaternions,
    every zero term included, for (L, 3) half angles in composition order
    about the (L, 3) axes."""
    q = _axis_quat(axes[:, 0], half[:, 0])
    for position in range(1, 3):
        q = mul(q, _axis_quat(axes[:, position], half[:, position]))
    return q


def _euler_tables() -> tuple:
    """The term tables of the Euler kernel: A0 * A1, and P * A2 for
    P = A0 * A1, where the axis quaternion Ap turns about axis p (the
    order "XYZ") and is held as (2, ...) rows of the cosine and sine of
    its half angle, its other two components zero. On the slots (w, v_i,
    v_j, v_k) of the composition axes they are every cyclic order's
    tables, since the Hamilton product keeps its form when the axes turn
    cyclically."""
    parts = []
    for axis in range(3):
        part = [0, None, None, None]
        part[1 + axis] = 1
        parts.append(part)
    return (_product_terms(_QUAT_SUMS, 2, parts[0], parts[1]),
            _product_terms(_QUAT_SUMS, b_parts=parts[2]))


_EULER_TERMS = _euler_tables()


def _from_euler(angles, plan: EulerPlan, out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Unit quaternions of Euler angles given as three (..., n) arrays in
    composition order, column c turning as column c of `plan`: the Euler
    kernel of `from_euler` and `kinematics.clip_to_local`, one call for
    every column of every order. Column c goes to out[..., rows[c], :] of
    a (..., J, 4) `out`, which is returned.

    The half angles' cosines and sines go through the two products of
    `_EULER_TERMS` into the slots (w, v_i, v_j, v_k) of each column, which
    one scatter (`plan.slot_components`) puts in the components (w, x, y,
    z). A column whose order is not cyclic turns about j the other way in
    a frame whose j axis is flipped, where its axes are cyclic: it runs
    the cyclic tables on a negated middle sine and negates slot j of the
    result. Each component of P * A2 sums at most two live terms, a sum of
    two terms does not depend on their order, and a sign flip is exact,
    so every quaternion with no zero or NaN component has the bits of
    `_euler_product`; the ones with one, where a skipped zero term can set
    the sign of a zero, go through `_euler_product` again.
    """
    shape = angles[0].shape
    trig = np.empty((2, 3) + shape)
    for position in range(3):
        np.multiply(angles[position], 0.5, out=trig[1, position])  # the bits of angle / 2
    np.cos(trig[1], out=trig[0])
    np.sin(trig[1], out=trig[1])
    trig[1, 1] *= plan.parity
    pair_table, table = _EULER_TERMS
    pair = _products(pair_table, trig[:, 0], trig[:, 1])
    values = _products(table, pair, trig[:, 2])
    values[2] *= plan.parity
    out[..., rows, plan.slot_components] = values.transpose(*range(1, values.ndim - 1), 0, -1)  # (..., 4, n)
    magnitudes = np.abs(values, out=pair)
    if not np.minimum.reduce(magnitudes, axis=None, initial=np.inf) > 0.0:  # a zero or NaN component
        redo = np.nonzero(~(magnitudes > 0.0).all(axis=0))
        half = np.multiply(angles, 0.5)[(slice(None),) + redo].T
        axes = np.broadcast_to(plan.axes, shape + (3,))[redo]
        out[redo[:-1] + (rows[redo[-1]],)] = _euler_product(half, axes)
    return out


def from_euler(angles: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """Unit quaternion of (alpha, beta, gamma) about x, y, z under `order`.

    `angles` has shape (..., 3); the result the ordered product of the
    three axis quaternions, e.g. q_z * q_y * q_x for "ZYX": the Euler
    kernel `_from_euler` on a one-column plan.
    """
    plan = _one_order(order)
    angles = np.asarray(angles, dtype=float)
    columns = angles.reshape(-1, 1, 3)
    out = np.empty(columns.shape[:1] + (1, 4))
    _from_euler([columns[..., axis] for axis in plan.axes[0].tolist()], plan, out, _ONE_ROW)
    return out.reshape(angles.shape[:-1] + (4,))


def _to_euler(q: np.ndarray, plan: EulerPlan, euler=None):
    """Euler angles of unit quaternions (..., n, 4), column c turning as
    column c of `plan`: the Euler kernel of `to_euler` and
    `kinematics.local_to_clip`, one call for every column of every order.
    The angles go into the three (..., n) targets `euler`, in composition
    order, or a new (3, ..., n) array, which is returned. One gather
    (`plan.slot_components`) takes each column's slots for the five matrix
    entries it reads (`_rotmat.euler_entries`), and only the rows in the
    gimbal-lock band build whole matrices.
    """
    slots = q[..., np.arange(len(plan.axes)), plan.slot_components]  # (..., 4, n)
    ik, jk, kk, ij, ii = _rotmat.euler_entries(slots, plan.parity)
    s = plan.parity * ik
    euler = np.empty((3,) + s.shape) if euler is None else euler
    negated = -plan.parity
    np.arcsin(np.clip(s, -1.0, 1.0), out=euler[1])
    np.arctan2(negated * jk, kk, out=euler[0])
    np.arctan2(negated * ij, ii, out=euler[2])

    lock = np.abs(s) >= 1.0 - LOCK_TOLERANCE
    if lock.any():
        mid = np.copysign(np.pi / 2.0, s[lock])
        _, j, k = np.broadcast_to(plan.axes, lock.shape + (3,))[lock].T
        # With the first angle pinned to zero the residual is a pure
        # rotation about the last axis; only these rows build whole matrices.
        m = _rotmat.quat_to_matrix(q[lock])
        residual = np.swapaxes(_rotmat.axis_rotation_matrix(j, mid), -1, -2) @ m
        u, v, rows = (k + 1) % 3, (k + 2) % 3, np.arange(len(mid))
        euler[0][lock] = 0.0
        euler[1][lock] = mid
        euler[2][lock] = np.arctan2(residual[rows, v, u], residual[rows, u, u])
    return euler


def to_euler(q: np.ndarray, order: str = "ZYX") -> np.ndarray:
    """Recover (..., 3) angles (alpha, beta, gamma) such that from_euler
    reproduces +-q, for quaternions of shape (..., 4): the Euler kernel
    `_to_euler` on a one-column plan, into a fresh C-contiguous result.

    The extraction uses the two-argument arctangent, so the full rotation
    range survives. Near the arcsin pole (argument within LOCK_TOLERANCE
    of +-1) the two coupled angles collapse: the first rotation in the
    composition order is set to zero and the remainder is folded into the
    last one, which keeps the round trip well defined at the pole itself.
    """
    plan = _one_order(order)
    q = normalize(q)
    out = np.empty((q.size // 4, 1, 3))
    _to_euler(q.reshape(-1, 1, 4), plan, [out[..., axis] for axis in plan.axes[0].tolist()])
    return out.reshape(q.shape[:-1] + (3,))
