"""The component-major `quat.mul`, `quat.norm`, `dualquat.mul`,
`dualquat.conjugate`, `dualquat.normalize`, `from_rotation_translation` and
`translation` (all but `norm` and `conjugate` one `quat._on_rows` call
each), every product of the one Hamilton-product kernel `quat._products`
on either side of `quat._STACK_VALUES`, the Euler kernels on one order
and on plans that mix all six, and the entry-wise rotation conversions
(the matrix entries `quat._entry`, `quat.to_euler`, and the six-value
encode and decode `encoding._ortho6d_of_quats` and
`encoding._ortho6d_to_quats`), against their per-component and
whole-matrix oracles: equal bits, equal sign of zero and a fresh
C-contiguous result, on broadcast, sliced, gathered, reversed and
F-ordered operands, `to_euler` on its poles included."""

import itertools
from typing import Callable, NamedTuple

import numpy as np
import pytest

from dqmotion import dualquat, encoding, losses, quat
from dqmotion.bvh import MotionClip
from dqmotion.errors import DegenerateNormError, NotUnitError
from dqmotion.kinematics import LocalPose, clip_to_local, local_to_clip

import algebra_oracles
import bvh_oracles
import grad_oracles
import oracles
import pose_oracles
import test_pose_oracles

QUAT_SHAPES = [
    ((4,), (4,)),
    ((4,), (7, 3, 4)),
    ((3, 4), (4,)),
    ((2000, 1, 4), (2000, 14, 4)),
]
DQ_SHAPES = [
    ((8,), (8,)),
    ((1, 13, 8), (6, 13, 8)),
    ((6, 13, 8), (8,)),
]


def assert_same_bits(got, want, *operands):
    assert got.shape == want.shape
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.flags.c_contiguous
    assert not any(np.shares_memory(got, x) for x in operands)


def values(rng, shape, zeros=0.25):
    """Normal values over six decades, with a share of exact 0.0 and -0.0."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    hit = rng.random(shape) < zeros
    x[hit] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[hit]
    return x


def signed_zeros(rng, shape):
    """Only +-1 and +-0.0, so whole sums of signed zeros occur."""
    return rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=shape)


def unit_dq(rng, shape):
    """Unit dual quaternions, so normalize's inputs sit near its fixed point."""
    r = rng.normal(size=shape + (4,))
    return dualquat.from_rotation_translation(quat.normalize(r), rng.normal(size=shape + (3,)))


class TestQuatMul:
    @pytest.mark.parametrize("shape_a, shape_b", QUAT_SHAPES)
    def test_shapes(self, rng, shape_a, shape_b):
        a, b = values(rng, shape_a), values(rng, shape_b)
        assert_same_bits(quat.mul(a, b), algebra_oracles.quat_mul(a, b), a, b)

    def test_signed_zeros(self, rng):
        a, b = signed_zeros(rng, (500, 4)), signed_zeros(rng, (500, 4))
        want = algebra_oracles.quat_mul(a, b)
        assert np.any((want == 0.0) & np.signbit(want))
        assert_same_bits(quat.mul(a, b), want, a, b)

    def test_dual_part_slices(self, rng):
        d, e = values(rng, (50, 7, 8)), values(rng, (50, 7, 8))
        a, b = d[..., 4:], e[..., :4]
        assert_same_bits(quat.mul(a, b), algebra_oracles.quat_mul(a, b), d, e)

    def test_gathers_and_reversed_views(self, rng):
        x = values(rng, (40, 9, 4))
        a = x[:, [3, 0, 0, 8, 2]]
        b = x[::-1, 1:6][:, ::-1]
        assert_same_bits(quat.mul(a, b), algebra_oracles.quat_mul(a, b), x)

    def test_transposed_and_broadcast_views(self, rng):
        a = np.asfortranarray(values(rng, (30, 5, 4)))
        b = np.broadcast_to(values(rng, (5, 4)), (30, 5, 4))
        assert_same_bits(quat.mul(a, b), algebra_oracles.quat_mul(a, b), a, b)

    def test_lists_and_empty(self):
        assert_same_bits(quat.mul([1, 2, 3, 4], [0, -1, 0, 0.5]),
                         algebra_oracles.quat_mul([1, 2, 3, 4], [0, -1, 0, 0.5]))
        empty = np.zeros((0, 14, 4))
        assert_same_bits(quat.mul(empty, empty), algebra_oracles.quat_mul(empty, empty))


class TestDualquatMul:
    @pytest.mark.parametrize("shape_a, shape_b", DQ_SHAPES)
    def test_shapes(self, rng, shape_a, shape_b):
        a, b = values(rng, shape_a), values(rng, shape_b)
        assert_same_bits(dualquat.mul(a, b), algebra_oracles.dualquat_mul(a, b), a, b)

    def test_signed_zeros(self, rng):
        a, b = signed_zeros(rng, (500, 8)), signed_zeros(rng, (500, 8))
        want = algebra_oracles.dualquat_mul(a, b)
        assert np.any((want[:, 4:] == 0.0) & np.signbit(want[:, 4:]))
        assert_same_bits(dualquat.mul(a, b), want, a, b)

    def test_gathers(self, rng):
        d = values(rng, (30, 10, 8))
        parents = np.array([0, 0, 1, 1, 3, 0, 5])
        a, b = d[:, parents], d[:, 1:8]
        assert_same_bits(dualquat.mul(a, b), algebra_oracles.dualquat_mul(a, b), d)


#: The real and dual rows of a dual quaternion, traded.
SWAP = np.r_[4:8, 0:4]


def swapped_dualquat_mul(a, b):
    """The product of `losses._relative_vjp`: swap(a * swap(b))."""
    return algebra_oracles.dualquat_mul(a, b[..., SWAP])[..., SWAP]


def conjugate_product(e, r):
    """The vector components of e * conjugate(r): the product of
    `dualquat.translation` before its factor 2."""
    return algebra_oracles.quat_mul(e, quat.conjugate(r))[..., 1:]


def translation_vjp_rows(m, u, out):
    np.copyto(out, losses._translation_vjp(m, u))


def conjugated_rows(mul_rows, conjugate, **options):
    """The row function `mul_rows` with the table that conjugates operand
    `conjugate`."""
    return lambda a, b, out: mul_rows(a, b, out, conjugate=conjugate, **options)


class Product(NamedTuple):
    """A product on component rows: the widths of its operands and its
    result, its term table, its row function (operands and `out` as
    rows) and its oracle (operands as (..., C) values)."""

    a: int
    b: int
    out: int
    table: tuple
    run: Callable
    oracle: Callable


PRODUCTS = {
    "quat": Product(4, 4, 4, quat._MUL_TERMS[None], quat._mul_rows, algebra_oracles.quat_mul),
    "quat conjugated a": Product(4, 4, 4, quat._MUL_TERMS["a"], conjugated_rows(quat._mul_rows, "a"),
                                 lambda a, b: algebra_oracles.quat_mul(quat.conjugate(a), b)),
    "quat conjugated b": Product(4, 4, 4, quat._MUL_TERMS["b"], conjugated_rows(quat._mul_rows, "b"),
                                 lambda a, b: algebra_oracles.quat_mul(a, quat.conjugate(b))),
    "dualquat": Product(8, 8, 8, dualquat._MUL_TERMS[False, None], dualquat._mul_rows,
                        algebra_oracles.dualquat_mul),
    "dualquat conjugated a": Product(
        8, 8, 8, dualquat._MUL_TERMS[False, "a"], conjugated_rows(dualquat._mul_rows, "a"),
        lambda a, b: algebra_oracles.dualquat_mul(algebra_oracles.dualquat_conjugate(a), b)),
    "dualquat swapped": Product(8, 8, 8, dualquat._MUL_TERMS[True, None],
                                lambda a, b, out: dualquat._mul_rows(a, b, out, swap=True),
                                swapped_dualquat_mul),
    "dualquat swapped conjugated b": Product(
        8, 8, 8, dualquat._MUL_TERMS[True, "b"], conjugated_rows(dualquat._mul_rows, "b", swap=True),
        lambda a, b: swapped_dualquat_mul(a, algebra_oracles.dualquat_conjugate(b))),
    "translation": Product(4, 4, 3, dualquat._TRANSLATION_TERMS,
                           lambda e, r, out: quat._products(dualquat._TRANSLATION_TERMS, e, r, out),
                           conjugate_product),
    "translation vjp": Product(8, 3, 8, losses._TRANSLATION_VJP_TERMS, translation_vjp_rows,
                               grad_oracles._translation_vjp),
}
PATHS = ("stacked", "sum by sum")


def columns(terms: int, path: str) -> int:
    """Columns of a product of `terms` terms at its stacking bound (the
    most whose terms fit in `quat._STACK_VALUES` values), or one above."""
    return quat._STACK_VALUES // terms + PATHS.index(path)


@pytest.fixture
def accumulations(monkeypatch):
    """The calls of `quat._ACCUMULATE`, which only the products that run
    sum by sum make."""
    calls = []

    def spy(accumulate):
        return lambda *args, **kwargs: calls.append(args) or accumulate(*args, **kwargs)

    monkeypatch.setattr(quat, "_ACCUMULATE", tuple(spy(f) for f in quat._ACCUMULATE))
    return calls


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", PRODUCTS)
class TestProducts:
    """Every product of `quat._products` at its stacking bound and one
    column above it, each test on the path it is named for, against its
    oracle.

    The translation VJP matches `grad_oracles._translation_vjp` bit for bit
    up to the sign of a zero: the oracle multiplies the zero real row of
    (0, u) and negates m_d before the product, the kernel skips that row
    and negates after it, so a zero sum can round to either sign.
    """

    def product(self, calls, name, path, a, b):
        """The row function of `name` on (C, ...) rows a and b, into a
        fresh C-contiguous array, on `path`."""
        out = np.empty((PRODUCTS[name].out,) + a.shape[1:])
        PRODUCTS[name].run(a, b, out)
        assert bool(calls) == (path == "sum by sum")
        return out

    def assert_matches(self, name, got, want):
        if name == "translation vjp":
            got, want = got + 0.0, want + 0.0  # every zero +0.0
        assert_same_bits(got.copy(), want)

    def operands(self, make, rng, name, path):
        product = PRODUCTS[name]
        n = columns(len(product.table[0]), path)
        return make(rng, (product.a, n)), make(rng, (product.b, n))

    def test_values_and_signed_zeros(self, rng, accumulations, name, path):
        for make in (values, signed_zeros):
            a, b = self.operands(make, rng, name, path)
            want = PRODUCTS[name].oracle(a.T, b.T)
            self.assert_matches(name, self.product(accumulations, name, path, a, b).T, want)
        if name != "translation vjp":
            assert np.any((want == 0.0) & np.signbit(want))

    def test_gathered_reversed_and_transposed_rows(self, rng, accumulations, name, path):
        product = PRODUCTS[name]
        n = columns(len(product.table[0]), path)
        x = values(rng, (8, n + 7))
        gathered = x[:, rng.integers(0, n + 7, size=n)]
        reversed_ = x[::-1, ::-1][:, :n]
        transposed = values(rng, (n, 8)).T
        for a, b in ((gathered, reversed_), (reversed_, transposed), (transposed, gathered)):
            a, b = a[:product.a], b[:product.b]
            got = self.product(accumulations, name, path, a, b)
            self.assert_matches(name, got.T, product.oracle(a.T, b.T))

    def test_joint_and_frame_axes(self, rng, accumulations, name, path):
        """(C, 1, N) rows, as `kinematics` passes a one-joint level."""
        a, b = self.operands(values, rng, name, path)
        a, b = a[:, None], b[:, None]
        want = PRODUCTS[name].oracle(a.T, b.T).T
        self.assert_matches(name, self.product(accumulations, name, path, a, b), want)


@pytest.mark.parametrize("path", PATHS)
class TestProductsThroughFunctions:
    """The public functions on either side of their products' bounds."""

    def test_quat_mul(self, rng, accumulations, path):
        n = columns(16, path)
        a, b = values(rng, (n, 4)), values(rng, (n, 4))
        assert_same_bits(quat.mul(a, b), algebra_oracles.quat_mul(a, b), a, b)
        assert bool(accumulations) == (path == "sum by sum")

    def test_dualquat_mul(self, rng, accumulations, path):
        n = columns(48, path)
        a, b = values(rng, (n, 8)), values(rng, (1, 8))
        assert_same_bits(dualquat.mul(a, b), algebra_oracles.dualquat_mul(a, b), a, b)
        assert bool(accumulations) == (path == "sum by sum")

    def test_translation(self, rng, accumulations, path):
        d = unit_dq(rng, (columns(12, path),))
        accumulations.clear()  # building d ran quaternion products
        assert_same_bits(dualquat.translation(d), algebra_oracles.translation(d), d)
        assert bool(accumulations) == (path == "sum by sum")


class TestDualquatConjugate:
    def test_views_and_signed_zeros(self, rng):
        x = values(rng, (30, 10, 16))
        for d in (x[..., 8:], x[:, [4, 0, 0, 7], :8], signed_zeros(rng, (8,)), [1, 0, -0.0, 2, 0, 0, 0, 0]):
            assert_same_bits(dualquat.conjugate(d), algebra_oracles.dualquat_conjugate(d), x)


class TestDualquatNormalize:
    @pytest.mark.parametrize("shape", [(8,), (1, 13, 8), (6, 13, 8), (2000, 14, 8)])
    def test_shapes(self, rng, shape):
        d = values(rng, shape, zeros=0.1)
        d[..., 0] += 1.0  # keep the real part off the norm floor
        assert_same_bits(dualquat.normalize(d), algebra_oracles.dualquat_normalize(d), d)

    def test_near_unit(self, rng):
        d = unit_dq(rng, (200, 14)) * (1.0 + 1e-3 * rng.normal(size=(200, 14, 1)))
        assert_same_bits(dualquat.normalize(d), algebra_oracles.dualquat_normalize(d), d)

    def test_signed_zeros(self, rng):
        d = signed_zeros(rng, (2000, 8))
        d[:, 0] = 1.0
        # The real part orthogonal to the dual part through -0.0 terms only:
        # np.sum gives +0.0 where an index-order sum alone would give -0.0.
        d[:4] = [[1.0, -0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0]] * 4
        want = algebra_oracles.dualquat_normalize(d)
        assert np.any((want == 0.0) & np.signbit(want))
        assert_same_bits(dualquat.normalize(d), want, d)

    def test_slices_and_gathers(self, rng):
        x = values(rng, (40, 9, 16), zeros=0.1)
        x[..., 0] += 1.0
        x[..., 8] += 1.0
        for d in (x[..., 8:], x[:, [4, 0, 0, 7], :8], x[::-2, :, 8:]):
            assert_same_bits(dualquat.normalize(d), algebra_oracles.dualquat_normalize(d), x)

    @pytest.mark.parametrize("scale", [1e-12, 0.5e-12, 0.0])
    def test_degenerate_at_the_floor(self, scale):
        d = np.tile([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0], (3, 5, 1))
        d[1, 2, :4] = [scale, 0.0, 0.0, 0.0]
        for normalize in (dualquat.normalize, algebra_oracles.dualquat_normalize):
            with pytest.raises(DegenerateNormError):
                normalize(d)

    def test_just_above_the_floor(self):
        d = np.array([2e-12, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        assert_same_bits(dualquat.normalize(d), algebra_oracles.dualquat_normalize(d), d)


class TestOneNormRoutine:
    def test_quat_norm_matches_linalg(self, rng):
        r = values(rng, (2000, 14, 4))
        assert np.array_equal(quat.norm(r), np.linalg.norm(r, axis=-1))
        assert np.array_equal(quat.norm(r[..., ::-1]), np.linalg.norm(r[..., ::-1], axis=-1))


def unit_parts(rng, shape, make_t=values):
    """Rotations and translations: half the rotations +-1 on one axis and
    exact +-0.0 elsewhere, the others normalized draws."""
    r = np.copysign(0.0, signed_zeros(rng, shape + (4,)))
    axis = rng.integers(0, 4, size=shape + (1,))
    np.put_along_axis(r, axis, rng.choice([1.0, -1.0], size=shape + (1,)), axis=-1)
    drawn = rng.random(shape) < 0.5
    r[drawn] = quat.normalize(rng.normal(size=r[drawn].shape))
    return r, make_t(rng, shape + (3,))


def near_unit_dq(rng, shape):
    return unit_dq(rng, shape) + values(rng, shape + (8,)) * 1e-3


def signed_zero_dq(rng, shape):
    """Real parts +-1 on the scalar axis and +-0.0 or +-1 elsewhere."""
    d = signed_zeros(rng, shape + (8,))
    d[..., 0] = 1.0
    return d


def unit_signed_zero_dq(rng, shape):
    return dualquat.from_rotation_translation(*unit_parts(rng, shape, signed_zeros))


#: Each public function on `quat._on_rows`, and `quat.norm`: its pre-change
#: form, and the operands for a leading shape, drawn at random and with
#: many exact signed zeros ((rng, shape) -> args).
ONE_COPY = {
    "quat.mul": (quat.mul, algebra_oracles.quat_mul,
                 lambda rng, shape: (values(rng, shape + (4,)), values(rng, shape + (4,))),
                 lambda rng, shape: (signed_zeros(rng, shape + (4,)), signed_zeros(rng, shape + (4,)))),
    "quat.norm": (quat.norm, algebra_oracles.quat_norm,
                  lambda rng, shape: (values(rng, shape + (4,)),),
                  lambda rng, shape: (signed_zeros(rng, shape + (4,)),)),
    "dualquat.mul": (dualquat.mul, algebra_oracles.dualquat_mul,
                     lambda rng, shape: (values(rng, shape + (8,)), values(rng, shape + (8,))),
                     lambda rng, shape: (signed_zeros(rng, shape + (8,)), signed_zeros(rng, shape + (8,)))),
    "dualquat.normalize": (dualquat.normalize, algebra_oracles.dualquat_normalize,
                           lambda rng, shape: (near_unit_dq(rng, shape),),
                           lambda rng, shape: (signed_zero_dq(rng, shape),)),
    "from_rotation_translation": (dualquat.from_rotation_translation,
                                  algebra_oracles.from_rotation_translation, unit_parts,
                                  lambda rng, shape: unit_parts(rng, shape, signed_zeros)),
    "translation": (dualquat.translation, algebra_oracles.translation,
                    lambda rng, shape: (dualquat.from_rotation_translation(*unit_parts(rng, shape)),),
                    lambda rng, shape: (unit_signed_zero_dq(rng, shape),)),
}


def views(x):
    """x itself, reversed along every leading axis, and stepped along the
    first."""
    return x, x[(slice(None, None, -1),) * (x.ndim - 1)], x[::2]


@pytest.mark.parametrize("name", ONE_COPY)
class TestOneCopyHelper:
    """Against the pre-change forms: equal bits, signed zeros included,
    and a fresh C-contiguous result."""

    def test_views(self, rng, name):
        function, oracle, make, _ = ONE_COPY[name]
        for args in zip(*(views(x) for x in make(rng, (30, 7)))):
            assert_same_bits(function(*args), oracle(*args), *args)

    def test_broadcast_operands(self, rng, name):
        function, oracle, make, _ = ONE_COPY[name]
        args = make(rng, (5,))
        first = np.broadcast_to(args[0], (6, 5) + args[0].shape[-1:])
        for args in ((first,) + args[1:], args[:1] + tuple(x[:1] for x in args[1:])):
            assert_same_bits(function(*args), oracle(*args), *args)

    def test_signed_zeros(self, rng, name):
        function, oracle, _, make = ONE_COPY[name]
        args = make(rng, (400,))
        want = oracle(*args)
        # norms are never -0.0
        assert np.any(want == 0.0) and (name == "quat.norm" or np.any((want == 0.0) & np.signbit(want)))
        assert_same_bits(function(*args), want, *args)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (4, 0)])
    def test_zero_size(self, rng, name, shape):
        function, oracle, make, _ = ONE_COPY[name]
        args = make(rng, shape)
        assert_same_bits(function(*args), oracle(*args), *args)


@pytest.mark.parametrize("scale", [2.0, 1e200])
def test_translation_unit_check(scale):
    """Not unit, also where the residuals overflow: |r|^2 to inf and <r, e>
    to inf - inf."""
    d = np.array([1.0, 1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0]) * scale
    for translation in (dualquat.translation, algebra_oracles.translation):
        with pytest.raises(NotUnitError, match="translation requires"):
            translation(d)


def rotation_group():
    """The 24 signed permutation matrices of determinant +1: exact entries,
    every Shepperd branch, ties between diagonal entries and a zero trace."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) > 0:
                mats.append(m)
    return np.array(mats)


def six_values(m):
    """The six-value block of (..., 3, 3) matrices: columns 0 and 1."""
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def shepperd_branches(blocks):
    """The Shepperd cases that the six-value blocks' matrices take."""
    mats = algebra_oracles.gram_schmidt(blocks).reshape(-1, 3, 3)
    return {pose_oracles.shepperd_branch(m) for m in mats}


def matrices(q):
    """Rotation matrices of unit quaternions, through the Rodrigues form."""
    return np.stack([oracles.quat_matrix(row) for row in q])


def pole_quats(rng, order, count=40):
    """Quaternions whose middle angle sits on a pole and 1e-7, 1e-13 and
    1e-5 rad from it, on both poles, in the composition `order`."""
    angles = rng.uniform(-np.pi, np.pi, size=(count, 3))
    middle = "XYZ".index(order[1])
    offsets = np.resize([0.0, 1e-7, 1e-13, 1e-5], count // 2)
    angles[: count // 2, middle] = np.pi / 2.0 - offsets
    angles[count // 2:, middle] = -np.pi / 2.0 + offsets
    return quat.from_euler(angles, order)


def on_a_pole(q, order):
    """Which quaternions q sit on a pole of `order`, where `to_euler` sets
    the first angle to zero."""
    a, b, c, d = algebra_oracles.euler_sums(quat.normalize(q), order)
    return np.minimum(a * a + b * b, c * c + d * d) <= algebra_oracles.POLE_FLOOR


def assert_same_error(kernel, oracle, x):
    with pytest.raises(DegenerateNormError) as got:
        kernel(x)
    with pytest.raises(DegenerateNormError) as want:
        oracle(x)
    assert str(got.value) == str(want.value)


def assert_entries(q, *operands):
    """All nine `quat._entry` (r, c) of q, into a fresh `out` as the
    six-value encode writes them and into a new array, against the
    stacked `quat_to_matrix`."""
    want = algebra_oracles.quat_to_matrix(q)
    for r, c in itertools.product(range(3), repeat=2):
        out = np.empty(want.shape[:-2])
        assert quat._entry(q, r, c, out=out) is out
        assert_same_bits(out, want[..., r, c].copy(), *operands)
        fresh = quat._entry(q, r, c)
        assert np.array_equal(fresh, out) and np.array_equal(np.signbit(fresh), np.signbit(out))


class TestEntry:
    def test_values_and_signed_zeros(self, rng):
        for q in (values(rng, (300, 4)), signed_zeros(rng, (500, 4)), values(rng, (4,))):
            assert_entries(q, q)

    def test_views(self, rng):
        x = values(rng, (40, 9, 8))
        for q in (x[..., 4:], x[:, [3, 0, 0, 8], :4], x[::-1, ::-2, 4:],
                  np.asfortranarray(x[..., :4]), np.broadcast_to(x[0, 0, :4], (6, 5, 4))):
            assert_entries(q, x)


class TestOrtho6dToQuats:
    @pytest.mark.parametrize("shape", [(6,), (7, 6), (2000, 14, 6)])
    def test_shapes(self, rng, shape):
        b = values(rng, shape, zeros=0.1)
        b[..., [0, 4]] += 1.0  # keep both columns off the norm floor
        assert_same_bits(encoding._ortho6d_to_quats(b), algebra_oracles.ortho6d_to_quats(b), b)

    def test_every_branch_and_the_diagonal_ties(self, rng):
        group = six_values(rotation_group())
        # random rotations, and half turns about x, y and z (branches 1 to 3)
        turns = np.concatenate([np.full((30, 1), np.pi - 0.05), rng.normal(size=(30, 3))], -1)
        turns[:10, 1:] += [8.0, 0.0, 0.0]
        turns[10:20, 1:] += [0.0, 8.0, 0.0]
        turns[20:, 1:] += [0.0, 0.0, 8.0]
        axes = turns[:, 1:] / np.linalg.norm(turns[:, 1:], axis=-1, keepdims=True)
        q = np.concatenate([np.cos(turns[:, :1] / 2), np.sin(turns[:, :1] / 2) * axes], -1)
        mats = matrices(np.concatenate([q, oracles.random_unit_quat(rng, (30,))]))
        for b in (group, six_values(mats), 3.0 * group):
            assert shepperd_branches(b) == {0, 1, 2, 3}
            assert_same_bits(encoding._ortho6d_to_quats(b), algebra_oracles.ortho6d_to_quats(b), b)
        ties = algebra_oracles.gram_schmidt(group)
        diagonal = np.diagonal(ties, axis1=-2, axis2=-1)
        assert np.any((diagonal[:, 0] == diagonal[:, 1]) & (np.trace(ties, axis1=-2, axis2=-1) <= 0))
        assert np.any((diagonal[:, 1] == diagonal[:, 2]) & (np.trace(ties, axis1=-2, axis2=-1) <= 0))

    def test_six_value_slices_of_ortho6d_positions(self, rng):
        skeleton = oracles.random_skeleton(rng, 9, end_sites=True)
        clip = encoding.encode(oracles.random_poses(rng, skeleton, 25), encoding.ReprKind.ORTHO6D_POSITIONS)
        blocks = clip.joint_blocks()
        assert not blocks[..., :6].flags.c_contiguous
        assert_same_bits(encoding._ortho6d_to_quats(blocks[..., :6]),
                         algebra_oracles.ortho6d_to_quats(blocks[..., :6]), blocks)
        assert_same_bits(encoding._ortho6d_to_quats(blocks), algebra_oracles.ortho6d_to_quats(blocks), blocks)

    def test_gathered_reversed_fortran_and_broadcast_views(self, rng):
        x = values(rng, (40, 9, 12), zeros=0.1)
        for b in (x[:, [3, 0, 0, 8, 2], 6:], x[::-1, ::-1, :6], x[::-2, :, 12:5:-1],
                  np.asfortranarray(x[..., 3:9]), np.broadcast_to(x[0, 0, :6], (30, 5, 6)),
                  x[0, 0, :6].tolist()):
            assert_same_bits(encoding._ortho6d_to_quats(b), algebra_oracles.ortho6d_to_quats(b), x)

    def test_signed_zeros(self, rng):
        b = signed_zeros(rng, (4000, 6))
        usable = np.linalg.norm(np.cross(b[:, :3], b[:, 3:]), axis=-1) > 0.0
        b = b[usable]
        want = algebra_oracles.ortho6d_to_quats(b)
        assert np.any((want == 0.0) & np.signbit(want))
        assert_same_bits(encoding._ortho6d_to_quats(b), want, b)

    def test_empty(self):
        empty = np.zeros((0, 14, 6))
        assert_same_bits(encoding._ortho6d_to_quats(empty), algebra_oracles.ortho6d_to_quats(empty), empty)

    @pytest.mark.parametrize("first", [[1e-12, 0.0, 0.0], [0.5e-12, 0.0, 0.0], [0.0, -0.0, 0.0]])
    def test_degenerate_first_column(self, first):
        b = np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], (3, 5, 1))
        b[1, 2, :3] = first
        b[2, 4, 3:] = [2.0, 0.0, 0.0]  # a collinear block too: the first check wins
        assert_same_error(encoding._ortho6d_to_quats, algebra_oracles.ortho6d_to_quats, b)

    @pytest.mark.parametrize("second", [[2.0, 0.0, 0.0], [-3.0, 1e-13, 0.0], [0.0, 0.0, 0.0]])
    def test_collinear_columns(self, second):
        b = np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], (3, 5, 1))
        b[1, 2, 3:] = second
        assert_same_error(encoding._ortho6d_to_quats, algebra_oracles.ortho6d_to_quats, b)


#: Angles whose sines and cosines are exact zeros or round near them:
#: signed zeros, half and quarter turns both ways, a full turn, and tiny
#: angles (5e-324 halves to an exact zero).
EULER_GRID = (0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 2 * np.pi, 1e-300, 5e-324, 0.3)
#: Angles whose columns pass the stacking bound of both products of
#: `from_euler`, of 4 and 8 terms, by less than one row of 60: both run
#: sum by sum.
SUM_BY_SUM_ANGLES = (quat._STACK_VALUES // (4 * 60) + 1, 60, 3)


@pytest.mark.parametrize("order", oracles.ORDER_POOL)
class TestFromEuler:
    @pytest.mark.parametrize("shape", [(75, 8, 3), (75, 1, 3), (3,), (0, 5, 3), SUM_BY_SUM_ANGLES])
    def test_shapes(self, rng, order, shape):
        angles = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, size=shape)
        assert_same_bits(quat.from_euler(angles, order), algebra_oracles.from_euler(angles, order), angles)

    def test_special_angle_grid(self, order):
        angles = np.array(list(itertools.product(EULER_GRID, repeat=3)))
        want = algebra_oracles.from_euler(angles, order)
        assert np.any(want == 0.0) and np.any(np.all(want != 0.0, axis=-1))
        assert_same_bits(quat.from_euler(angles, order), want, angles)
        grouped = angles.reshape(10, 100, 3)
        assert_same_bits(quat.from_euler(grouped, order), want.reshape(10, 100, 4), angles)

    def test_views_and_lists(self, rng, order):
        x = rng.uniform(-np.pi, np.pi, size=(30, 9, 5))
        for angles in (x[..., 1:4], x[:, [4, 0, 0, 7], ::2], x[::-1, ::-2, 2:], np.asfortranarray(x[..., :3]),
                       np.broadcast_to(x[0, 0, :3], (6, 3)), [0.3, -0.0, np.pi]):
            assert_same_bits(quat.from_euler(angles, order), algebra_oracles.from_euler(angles, order), x)

    def test_nan_and_inf(self, rng, order):
        """NaN in the components where the full product has NaN."""
        for shape in ((60, 2, 3), SUM_BY_SUM_ANGLES):
            angles = rng.uniform(-np.pi, np.pi, size=shape)
            angles[rng.random(angles.shape) < 0.1] = np.nan
            angles[rng.random(angles.shape) < 0.1] = np.inf
            angles[rng.random(angles.shape) < 0.1] = -np.inf
            angles[rng.random(angles.shape) < 0.2] = 0.0
            with np.errstate(invalid="ignore"):  # sin and cos of inf
                got, want = quat.from_euler(angles, order), algebra_oracles.from_euler(angles, order)
            nan = np.isnan(want)
            assert nan.any() and not nan.all()
            assert np.array_equal(np.isnan(got), nan)
            assert_same_bits(np.where(nan, 0.0, got), np.where(nan, 0.0, want))
            assert got.flags.c_contiguous


class TestToEuler:
    @pytest.mark.parametrize("order", oracles.ORDER_POOL)
    def test_pole_rows(self, rng, order):
        q = np.concatenate([pole_quats(rng, order), oracles.random_unit_quat(rng, (40,))])
        assert 0 < np.count_nonzero(on_a_pole(q, order)) < 40
        assert_same_bits(quat.to_euler(q, order), algebra_oracles.to_euler(q, order), q)

    @pytest.mark.parametrize("order", oracles.ORDER_POOL)
    def test_views_and_signed_zeros(self, rng, order):
        x = values(rng, (30, 7, 8), zeros=0.1)
        x[..., 0] += 1.0
        zeros = signed_zeros(rng, (400, 4))
        zeros[np.all(zeros == 0.0, axis=-1), 0] = -1.0
        exact = algebra_oracles.ortho6d_to_quats(six_values(rotation_group()))
        for q in (x[..., :4], x[:, [5, 0, 0, 2], 4:], x[::-1, ::-3, 4:], np.asfortranarray(x[..., 2:6]),
                  np.broadcast_to(x[0, 0, :4], (6, 4)), zeros, exact):
            assert_same_bits(quat.to_euler(q, order), algebra_oracles.to_euler(q, order), x, zeros)

    def test_single_quaternions(self, rng):
        for q in (pole_quats(rng, "ZYX", 2)[0], oracles.random_unit_quat(rng), [1.0, 0.0, -0.0, 0.0]):
            for order in oracles.ORDER_POOL:
                assert_same_bits(quat.to_euler(q, order), algebra_oracles.to_euler(q, order))


def mixed_plan(rng, n: int) -> tuple:
    """n columns of seeded Euler orders, all six among them, and their
    `quat.EulerPlan`, built from the order letters alone."""
    orders = list(oracles.ORDER_POOL) + [oracles.ORDER_POOL[i] for i in rng.integers(6, size=n - 6)]
    orders = [orders[i] for i in rng.permutation(n)]
    axes = np.array([["XYZ".index(axis) for axis in order] for order in orders])
    parity = np.array([1.0 if order in bvh_oracles.CYCLIC_ORDERS else -1.0 for order in orders])
    return orders, quat.EulerPlan(axes, parity)


def mixed_from_euler(angles, plan, rows):
    """`quat._from_euler` of (..., n, 3) angles, each column's (x, y, z),
    into rows `rows` of a NaN-filled (..., J, 4) array."""
    composition = np.moveaxis(np.take_along_axis(angles, np.broadcast_to(plan.axes, angles.shape), axis=-1), -1, 0)
    out = np.full(angles.shape[:-2] + (rows.max() + 2, 4), np.nan)
    assert quat._from_euler(composition, plan, out, rows) is out
    untouched = np.ones(out.shape[-2], dtype=bool)
    untouched[rows] = False
    assert np.isnan(out[..., untouched, :]).all()
    return out[..., rows, :]


def assert_columns(got, want_of_column, orders):
    for c, order in enumerate(orders):
        assert_same_bits(got[..., c, :].copy(), want_of_column(c, order))


class TestMixedOrders:
    """The Euler kernels on plans that mix all six orders, column by column
    against the per-order oracles, bit for bit."""

    @pytest.mark.parametrize("path", PATHS)
    def test_from_euler_on_both_product_paths(self, rng, accumulations, path):
        shape = SUM_BY_SUM_ANGLES if path == "sum by sum" else (75, 8, 3)
        orders, plan = mixed_plan(rng, shape[1])
        angles = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, size=shape)
        got = mixed_from_euler(angles, plan, rng.permutation(shape[1] + 1)[:shape[1]])
        assert bool(accumulations) == (path == "sum by sum")
        assert_columns(got, lambda c, order: algebra_oracles.from_euler(angles[:, c], order), orders)

    def test_special_angle_grid(self, rng):
        grid = np.array(list(itertools.product(EULER_GRID, repeat=3)))
        orders, plan = mixed_plan(rng, 9)
        angles = np.repeat(grid[:, None], 9, axis=1)
        got = mixed_from_euler(angles, plan, rng.permutation(10)[:9])
        assert_columns(got, lambda c, order: algebra_oracles.from_euler(grid, order), orders)
        assert np.any(got == 0.0) and np.any(np.all(got != 0.0, axis=-1))

    @pytest.mark.parametrize("shape", [(60, 12, 3), SUM_BY_SUM_ANGLES])
    def test_nan_and_inf(self, rng, shape):
        orders, plan = mixed_plan(rng, shape[1])
        angles = rng.uniform(-np.pi, np.pi, size=shape)
        angles[rng.random(shape) < 0.1] = np.nan
        angles[rng.random(shape) < 0.1] = np.inf
        angles[rng.random(shape) < 0.1] = -np.inf
        angles[rng.random(shape) < 0.2] = 0.0
        with np.errstate(invalid="ignore"):  # sin and cos of inf
            got = mixed_from_euler(angles, plan, rng.permutation(shape[1]))
            for c, order in enumerate(orders):
                want = algebra_oracles.from_euler(angles[:, c], order)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got[:, c]), nan)
                assert_same_bits(np.where(nan, 0.0, got[:, c]), np.where(nan, 0.0, want))

    def test_to_euler_pole_rows_of_several_orders(self, rng):
        orders, plan = mixed_plan(rng, 10)
        q = np.stack([np.concatenate([pole_quats(rng, order), oracles.random_unit_quat(rng, (40,))])
                      for order in orders], axis=1)
        normalized = quat.normalize(q)
        assert all(0 < np.count_nonzero(on_a_pole(q[:, c], order)) < 40 for c, order in enumerate(orders))
        got = np.moveaxis(quat._to_euler(normalized, plan), 0, -1)
        assert_columns(got, lambda c, order: algebra_oracles.to_euler(q[:, c], order)[:, plan.axes[c]], orders)

    def test_to_euler_signed_zeros_and_exact_rotations(self, rng):
        zeros = signed_zeros(rng, (400, 4))
        zeros[np.all(zeros == 0.0, axis=-1), 0] = -1.0
        exact = algebra_oracles.ortho6d_to_quats(six_values(rotation_group()))
        for q in (zeros, exact):
            orders, plan = mixed_plan(rng, 12)
            columns = np.stack([q[rng.permutation(len(q))] for _ in orders], axis=1)
            got = np.moveaxis(quat._to_euler(quat.normalize(columns), plan), 0, -1)
            assert_columns(got, lambda c, order: algebra_oracles.to_euler(columns[:, c], order)[:, plan.axes[c]],
                           orders)

    @pytest.mark.parametrize("frames", (1, 64))
    def test_each_clip_conversion_reaches_its_kernel_once(self, rng, monkeypatch, frames):
        calls = []
        for name in ("_from_euler", "_to_euler"):
            kernel = getattr(quat, name)
            monkeypatch.setattr(quat, name, lambda *args, name=name, kernel=kernel:
                                calls.append(name) or kernel(*args))
        skeleton = test_pose_oracles.every_order_skeleton(rng, root_positions=True)
        clip = MotionClip(skeleton, 1 / 30, test_pose_oracles.near_pole_frames(rng, skeleton, frames))
        pose = clip_to_local(clip)
        assert calls == ["_from_euler"]
        local_to_clip(pose, skeleton, clip.frame_time)
        assert calls == ["_from_euler", "_to_euler"]


def exact_pole_quats(rng, order, count):
    """Unit quaternions of uniform angles whose middle one is +-pi/2."""
    angles = rng.uniform(-np.pi, np.pi, size=(count, 3))
    angles[:, "XYZ".index(order[1])] = rng.choice([-1.0, 1.0], count) * (np.pi / 2)
    return quat.from_euler(angles, order)


def signed_zero_pole_quats(rng, order, count):
    """Unit quaternions of +-1 and +-0.0 components, scaled, on a pole of
    `order`: their sums (a, b) or (c, d) are exact signed zeros."""
    q = signed_zeros(rng, (40 * count, 4))
    q = quat.normalize(q[np.any(q != 0.0, axis=-1)])
    return q[on_a_pole(q, order)][:count]


def assert_turns_back(angles, q, order):
    """from_euler of each (..., 3) triple gives +-q within 1e-12."""
    back = quat.from_euler(angles, order)
    assert np.all(np.minimum(np.abs(back - q).max(-1), np.abs(back + q).max(-1)) <= 1e-12)


class TestPoleRows:
    """Rows on a pole, where `to_euler` substitutes one pair of sums for
    the other: the first angle is zero and every returned triple turns
    back into +-q, on float64 poles and on exact signed-zero ones."""

    @pytest.mark.parametrize("order", oracles.ORDER_POOL)
    def test_each_order(self, rng, order):
        for make in (exact_pole_quats, signed_zero_pole_quats):
            q = make(rng, order, 400)
            assert len(q) == 400 and on_a_pole(q, order).all()
            got = quat.to_euler(q, order)
            assert np.all(got[:, "XYZ".index(order[0])] == 0.0)
            assert_turns_back(got, q, order)

    def test_mixed_plan_through_local_to_clip(self, rng):
        skeleton = test_pose_oracles.every_order_skeleton(rng, root_positions=True)
        rotations = np.zeros((64, skeleton.num_joints, 4))
        rotations[..., 0] = 1.0
        firsts, column = {}, 0
        for joint, spec in enumerate(skeleton.joints):
            if spec.rotation_order:
                firsts[joint] = column + spec.channels.index(spec.rotation_order[0] + "rotation")
                rotations[:, joint] = np.concatenate([exact_pole_quats(rng, spec.rotation_order, 32),
                                                      signed_zero_pole_quats(rng, spec.rotation_order, 32)])
            column += len(spec.channels)
        clip = local_to_clip(LocalPose(skeleton, np.zeros((64, 3)), rotations), skeleton, 0.1)
        assert np.all(clip.frames[:, list(firsts.values())] == 0.0)
        back = clip_to_local(clip).joint_rotations
        for joint in firsts:
            q = rotations[:, joint]
            assert np.all(np.minimum(np.abs(back[:, joint] - q).max(-1),
                                     np.abs(back[:, joint] + q).max(-1)) <= 1e-12)


class TestOrtho6dOfQuats:
    def test_views_and_signed_zeros(self, rng):
        x = values(rng, (40, 9, 8))
        for q in (x[..., 4:], x[:, [3, 0, 0, 8], :4], x[::-1, ::-2, 4:], np.asfortranarray(x[..., :4]),
                  np.broadcast_to(x[0, 0, :4], (6, 5, 4)), signed_zeros(rng, (500, 4)),
                  quat.normalize(x[..., :4])):
            assert_same_bits(encoding._ortho6d_of_quats(q), algebra_oracles.ortho6d_of_quats(q), x)


class TestDualquatDecodeRotations:
    """The dq decode reads the real part alone: `quat.normalize` of it has the
    bits of the real half of `dualquat.normalize`."""

    def test_values_and_signed_zeros(self, rng):
        x = values(rng, (200, 14, 8), zeros=0.3)
        x[..., 0] += 1.0
        zeros = signed_zeros(rng, (2000, 8))
        zeros[:, 0] = np.where(rng.random(2000) < 0.5, 1.0, -1.0)
        for d in (x, x[:, [4, 0, 0, 7]], x[::-1], zeros, unit_dq(rng, (50, 14))):
            got = quat.normalize(d[..., :4])
            want = dualquat.normalize(d)[..., :4]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_degenerate_real_part(self):
        d = np.tile([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0], (3, 5, 1))
        d[1, 2, :4] = 1e-12
        d[1, 2, 1:4] = 0.0
        for normalize in (lambda d: quat.normalize(d[..., :4]), dualquat.normalize):
            with pytest.raises(DegenerateNormError):
                normalize(d)
