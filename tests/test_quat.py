"""Quaternion algebra against hand values and the rotation-matrix oracle."""

import numpy as np
import pytest

from dqmotion import quat
from dqmotion.errors import DegenerateNormError, NonFiniteError, ShapeMismatchError

import oracles

ORDERS = oracles.ORDER_POOL


class TestMul:
    def test_identity_left(self, rng):
        q = oracles.random_unit_quat(rng)
        assert np.allclose(quat.mul(quat.identity(), q), q)

    def test_i_squared_is_minus_one(self):
        i = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(quat.mul(i, i), [-1.0, 0.0, 0.0, 0.0])

    def test_unit_product_stays_unit(self, rng):
        a = oracles.random_unit_quat(rng, (500,))
        b = oracles.random_unit_quat(rng, (500,))
        assert np.all(np.abs(quat.norm(quat.mul(a, b)) - 1.0) < 1e-9)

    def test_norm_is_multiplicative(self, rng):
        a = rng.normal(size=(200, 4)) * 3.0
        b = rng.normal(size=(200, 4)) * 3.0
        got = quat.norm(quat.mul(a, b))
        assert np.all(np.abs(got - quat.norm(a) * quat.norm(b)) < 1e-9 * np.maximum(got, 1))

    def test_matches_matrix_composition(self, rng):
        for _ in range(200):
            a = oracles.random_unit_quat(rng)
            b = oracles.random_unit_quat(rng)
            expected = oracles.quat_matrix(a) @ oracles.quat_matrix(b)
            assert np.allclose(oracles.quat_matrix(quat.mul(a, b)), expected, atol=1e-9)


class TestConjugate:
    def test_identity_self_conjugate(self):
        assert np.allclose(quat.conjugate(quat.identity()), quat.identity())

    def test_sign_flip(self):
        assert np.allclose(quat.conjugate([0.0, 1.0, 2.0, 3.0]), [0.0, -1.0, -2.0, -3.0])

    def test_defining_property(self, rng):
        q = oracles.random_unit_quat(rng, (100,))
        assert np.allclose(quat.mul(q, quat.conjugate(q)), quat.identity(), atol=1e-9)


class TestNormalize:
    def test_scaling(self):
        assert np.allclose(quat.normalize([2.0, 0.0, 0.0, 0.0]), quat.identity())

    def test_idempotent(self, rng):
        q = quat.normalize(rng.normal(size=(100, 4)))
        assert np.max(np.abs(quat.normalize(q) - q)) < 1e-15

    def test_zero_raises(self):
        with pytest.raises(DegenerateNormError):
            quat.normalize(np.zeros(4))

    def test_overflowing_norm_raises(self):
        # finite values whose squares overflow: never a zero quaternion
        with pytest.raises(NonFiniteError):
            quat.normalize([1e200, 0.0, 0.0, 0.0])

    def test_large_finite_norm_keeps_bits(self):
        q = np.array([3e150, -4e150, 0.0, 12e150])
        assert quat.normalize(q).tobytes() == (q / np.linalg.norm(q)).tobytes()


class TestDot:
    def test_self(self, rng):
        q = oracles.random_unit_quat(rng)
        assert np.isclose(quat.dot(q, q), 1.0)

    def test_antipode(self, rng):
        q = oracles.random_unit_quat(rng)
        assert np.isclose(quat.dot(q, -q), -1.0)

    def test_orthogonal(self):
        assert quat.dot(quat.identity(), [0.0, 1.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("length", (4, 8))
    def test_every_layout_gives_the_same_bits(self, rng, length):
        """The terms add in index order whatever the operands' strides:
        C, Fortran, row-strided and gathered operands give one result."""
        a, b = rng.normal(size=(2, 37, 11, length))
        want = a[..., 0] * b[..., 0]
        for i in range(1, length):
            want = want + a[..., i] * b[..., i]
        order = rng.permutation(11)

        def gathered(x):
            # (length, 11, 37) component rows gathered along the joints, viewed as (37, 11, length)
            return np.ascontiguousarray(x.T)[:, np.argsort(order)].take(order, axis=1).T

        layouts = {
            "C": (a, b),
            "Fortran": (np.asfortranarray(a), np.asfortranarray(b)),
            "row-strided": (np.repeat(a, 2, axis=0)[::2], np.repeat(b, 2, axis=0)[::2]),
            "gathered": (gathered(a), gathered(b)),
        }
        for name, (x, y) in layouts.items():
            assert np.array_equal(x, a) and np.array_equal(y, b), name
            assert quat.dot(x, y).tobytes() == want.tobytes(), name

    def test_negative_zero_terms_sum_to_positive_zero(self):
        got = quat.dot([-0.0, 0.0, -0.0, 0.0], [1.0, -0.0, 2.0, -3.0])
        assert got == 0.0 and not np.signbit(got)
        got = quat.dot(np.full((3, 8), -0.0), np.ones(8))
        assert np.all(got == 0.0) and not np.signbit(got).any()

    @pytest.mark.parametrize("shapes", [((4,), (8,)), ((2, 4), (2, 3)), ((4,), ()), ((2, 0), (2, 0))],
                             ids=str)
    def test_mismatched_lengths_raise(self, shapes):
        with pytest.raises(ShapeMismatchError):
            quat.dot(np.ones(shapes[0]), np.ones(shapes[1]))


class TestFromEuler:
    def test_zero_rotation(self):
        for order in ORDERS:
            assert np.allclose(quat.from_euler(np.zeros(3), order), quat.identity())

    def test_half_turn_about_x(self):
        # cos(pi/2) + sin(pi/2) i
        q = quat.from_euler([np.pi, 0.0, 0.0], "ZYX")
        assert np.allclose(q, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_matrix_product(self, rng, order):
        for _ in range(100):
            angles = rng.uniform(-np.pi, np.pi, size=3)
            got = oracles.quat_matrix(quat.from_euler(angles, order))
            assert np.allclose(got, oracles.euler_matrix(angles, order), atol=1e-9)

    def test_batched(self, rng):
        angles = rng.uniform(-np.pi, np.pi, size=(7, 3))
        batched = quat.from_euler(angles, "XZY")
        singles = np.array([quat.from_euler(a, "XZY") for a in angles])
        assert np.allclose(batched, singles)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            quat.from_euler(np.zeros(3), "XXZ")
        with pytest.raises(ValueError):
            quat.from_euler(np.zeros(3), "XYX")


def _same_rotation(a, b, tol):
    return min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < tol


class TestToEuler:
    def test_identity(self):
        for order in ORDERS:
            assert np.allclose(quat.to_euler(quat.identity(), order), np.zeros(3))

    def test_half_turn_inverse(self):
        angles = quat.to_euler(np.array([0.0, 1.0, 0.0, 0.0]), "ZYX")
        # Compare as quaternions; the angle values are only unique mod 2*pi.
        assert _same_rotation(quat.from_euler(angles, "ZYX"), [0.0, 1.0, 0.0, 0.0], 1e-9)
        assert np.isclose(abs(angles[0]), np.pi) and angles[1] == 0.0 and angles[2] == 0.0

    @pytest.mark.parametrize("order", ORDERS)
    def test_round_trip_random(self, rng, order):
        for _ in range(1000):
            q = oracles.random_unit_quat(rng)
            back = quat.from_euler(quat.to_euler(q, order), order)
            assert _same_rotation(back, q, 1e-6)

    @pytest.mark.parametrize("order", ORDERS)
    def test_gimbal_pole(self, rng, order):
        # Compose a rotation whose middle axis sits exactly at +-90 degrees.
        for sign in (1.0, -1.0):
            for _ in range(20):
                angles = rng.uniform(-np.pi, np.pi, size=3)
                angles["XYZ".index(order[1])] = sign * np.pi / 2.0
                q = quat.from_euler(angles, order)
                recovered = quat.to_euler(q, order)
                # First angle in the composition order is folded to zero.
                assert recovered["XYZ".index(order[0])] == 0.0
                back = quat.from_euler(recovered, order)
                assert _same_rotation(back, q, 1e-9)

    @pytest.mark.parametrize("order", ORDERS)
    def test_round_trip_near_pole(self, rng, order):
        # Middle angles just off +-90 degrees, 1e-13 rad to 0.01 degrees,
        # keep their value instead of snapping onto the pole, and turn back
        # into +-q to rounding.
        angles = rng.uniform(-np.pi, np.pi, size=(80, 3))
        middle = "XYZ".index(order[1])
        offsets = np.repeat([1e-13, 1e-6, np.radians(0.001), np.radians(0.01)], 10)
        angles[:40, middle] = np.pi / 2.0 - offsets
        angles[40:, middle] = -np.pi / 2.0 + offsets
        q = quat.from_euler(angles, order)
        recovered = quat.to_euler(q, order)
        assert np.all(np.abs(recovered[:, middle]) != np.pi / 2.0)
        back = quat.from_euler(recovered, order)
        gaps = np.minimum(np.abs(back - q).max(axis=-1), np.abs(back + q).max(axis=-1))
        assert np.max(gaps) <= 1e-12

    def test_arcsin_argument_clamped(self):
        # A slightly denormalized quaternion: to_euler normalizes it, so
        # every angle stays finite.
        q = np.array([0.5, 0.5, 0.5, -0.5]) * (1.0 + 5e-7)
        angles = quat.to_euler(q, "ZYX")
        assert np.all(np.isfinite(angles))

    def test_normalizes_input(self, rng):
        q = oracles.random_unit_quat(rng)
        scaled = q * (1.0 + 1e-7)
        assert np.allclose(quat.to_euler(scaled, "ZYX"), quat.to_euler(q, "ZYX"))


class TestZyxClosedForm:
    """The ZYX extraction must agree with the closed-form two-argument
    arctangent / arcsin expressions in terms of the quaternion components."""

    def test_closed_form(self, rng):
        for _ in range(300):
            q = oracles.random_unit_quat(rng)
            w, x, y, z = q
            if abs(2.0 * (w * y - z * x)) >= 1.0 - 1e-6:
                continue
            alpha = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
            beta = np.arcsin(np.clip(2.0 * (w * y - z * x), -1.0, 1.0))
            gamma = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
            assert np.allclose(quat.to_euler(q, "ZYX"), [alpha, beta, gamma], atol=1e-9)
