"""The component-major `quat.mul`, `dualquat.mul`, `dualquat.conjugate` and
`dualquat.normalize` against their per-component oracles: equal bits, equal sign of zero and a
fresh C-contiguous result, on broadcast, sliced and gathered operands."""

import numpy as np
import pytest

from dqmotion import dualquat, quat
from dqmotion.errors import DegenerateNormError

import algebra_oracles

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
