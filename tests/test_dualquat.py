"""Dual-quaternion algebra against hand values and the 4x4 matrix oracle."""

import numpy as np
import pytest

from dqmotion import dualquat, quat
from dqmotion.errors import DegenerateNormError, NotUnitError

import algebra_oracles
import oracles


def random_unit_dq(rng, shape=()):
    r = oracles.random_unit_quat(rng, shape)
    t = rng.uniform(-3.0, 3.0, size=shape + (3,))
    return dualquat.from_rotation_translation(r, t)


def pure_translation(t):
    return dualquat.from_rotation_translation(quat.identity(), t)


class TestMul:
    def test_identity(self, rng):
        d = random_unit_dq(rng)
        assert np.allclose(dualquat.mul(dualquat.identity(), d), d)
        assert np.allclose(dualquat.mul(d, dualquat.identity()), d)

    def test_translations_add(self, rng):
        t1 = rng.uniform(-2, 2, size=3)
        t2 = rng.uniform(-2, 2, size=3)
        composed = dualquat.mul(pure_translation(t1), pure_translation(t2))
        assert np.allclose(composed, pure_translation(t1 + t2), atol=1e-12)

    def test_matches_matrix_composition(self, rng):
        for _ in range(200):
            a = random_unit_dq(rng)
            b = random_unit_dq(rng)
            expected = oracles.dq_to_homogeneous(a) @ oracles.dq_to_homogeneous(b)
            assert np.allclose(oracles.dq_to_homogeneous(dualquat.mul(a, b)), expected, atol=1e-9)

    def test_unit_closure_and_associativity(self, rng):
        a, b, c = (random_unit_dq(rng, (300,)) for _ in range(3))
        ab = dualquat.mul(a, b)
        norm_res, ortho_res = dualquat.unitary_residual(ab)
        assert np.max(np.abs(norm_res)) < 1e-9
        assert np.max(np.abs(ortho_res)) < 1e-9
        left = dualquat.mul(ab, c)
        right = dualquat.mul(a, dualquat.mul(b, c))
        assert np.allclose(left, right, atol=1e-9)


class TestConjugate:
    def test_identity(self):
        assert np.allclose(dualquat.conjugate(dualquat.identity()), dualquat.identity())

    def test_inverse_property(self, rng):
        d = random_unit_dq(rng, (100,))
        assert np.allclose(
            dualquat.mul(d, dualquat.conjugate(d)), dualquat.identity(), atol=1e-9
        )

    def test_sign_flips(self):
        d = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0])
        assert np.allclose(
            dualquat.conjugate(d), [0.0, -1.0, 0.0, 0.0, 0.0, 0.0, -2.0, 0.0]
        )


class TestMagnitude:
    def test_unit(self, rng):
        d = random_unit_dq(rng)
        primal, dual_part = dualquat.magnitude(d)
        assert np.isclose(primal, 1.0) and np.isclose(dual_part, 0.0, atol=1e-12)

    def test_orthogonal_parts(self):
        d = np.array([2.0, 0, 0, 0, 0.0, 1.0, 0, 0])
        assert dualquat.magnitude(d) == (2.0, 0.0)

    def test_parallel_parts(self):
        # <q_r, q_d> = 4, divided by the norm 2.
        d = np.array([2.0, 0, 0, 0, 2.0, 0, 0, 0])
        assert dualquat.magnitude(d) == (2.0, 2.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateNormError):
            dualquat.magnitude(np.array([0.0] * 4 + [1.0, 0, 0, 0]))


class TestNormalize:
    def test_unit_unchanged(self, rng):
        d = random_unit_dq(rng, (50,))
        assert np.max(np.abs(dualquat.normalize(d) - d)) < 1e-12

    def test_orthogonal_case_scales(self):
        d = np.array([2.0, 0, 0, 0, 0.0, 1.0, 0, 0])
        assert np.allclose(dualquat.normalize(d), [1, 0, 0, 0, 0, 0.5, 0, 0])

    def test_random_vectors_become_unit(self, rng):
        d = rng.normal(size=(2000, 8))
        d = d[np.linalg.norm(d[:, :4], axis=1) > 0.1]
        normalized = dualquat.normalize(d)
        norm_res, ortho_res = dualquat.unitary_residual(normalized)
        assert np.max(np.abs(norm_res)) < 1e-12
        assert np.max(np.abs(ortho_res)) < 1e-12
        again = dualquat.normalize(normalized)
        assert np.max(np.abs(again - normalized)) < 1e-12

    def test_magnitude_after_normalize(self, rng):
        d = rng.normal(size=(500, 8))
        d = d[np.linalg.norm(d[:, :4], axis=1) > 1e-6]
        primal, dual_part = dualquat.magnitude(dualquat.normalize(d))
        assert np.max(np.abs(primal - 1.0)) < 1e-12
        assert np.max(np.abs(dual_part)) < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateNormError):
            dualquat.normalize(np.zeros(8))


class TestConstruction:
    def test_pure_displacement_form(self):
        d = dualquat.from_rotation_translation(quat.identity(), [3.0, 4.0, 5.0])
        assert np.allclose(d, [1, 0, 0, 0, 0, 1.5, 2.0, 2.5])

    def test_pure_rotation_form(self, rng):
        r = oracles.random_unit_quat(rng)
        d = dualquat.from_rotation_translation(r, np.zeros(3))
        assert np.allclose(d[4:], 0.0)

    def test_rejects_non_unit_rotation(self):
        with pytest.raises(NotUnitError):
            dualquat.from_rotation_translation([2.0, 0, 0, 0], np.zeros(3))

    @pytest.mark.parametrize("w", [np.sqrt(1.0 + 2e-6 + 5e-13), np.nan], ids=("band edge", "NaN"))
    def test_rotation_check_is_the_unit_rule(self, w):
        """The rotation check is `is_unit`'s rule, |r|^2 within 2 tol of 1:
        a rotation just past it, whose |r| is within tol of 1, is rejected,
        and so is a NaN, with the check's message."""
        r = np.array([w, 0.0, 0.0, 0.0])
        assert not dualquat.is_unit(np.concatenate([r, np.zeros(4)]))
        for build in (dualquat.from_rotation_translation, algebra_oracles.from_rotation_translation):
            with pytest.raises(NotUnitError, match="rotation quaternion norm deviates from 1 by more than 1e-06"):
                build(r, np.zeros(3))

    def test_transforms_points_like_matrix(self, rng):
        r = oracles.random_unit_quat(rng)
        t = rng.uniform(-2, 2, size=3)
        d = dualquat.from_rotation_translation(r, t)
        m = oracles.homogeneous(oracles.quat_matrix(r), t)
        points = rng.uniform(-5, 5, size=(100, 3))
        got = dualquat.transform_point(d, points)
        expected = points @ m[:3, :3].T + m[:3, 3]
        assert np.allclose(got, expected, atol=1e-9)


class TestExtraction:
    def test_rotation_of_pure_translation(self):
        assert np.allclose(dualquat.rotation(pure_translation([1, 2, 3])), quat.identity())

    def test_rotation_inverts_constructor(self, rng):
        r = oracles.random_unit_quat(rng)
        d = dualquat.from_rotation_translation(r, rng.uniform(-2, 2, size=3))
        assert np.allclose(dualquat.rotation(d), r, atol=1e-12)

    def test_rotation_direction_survives_scaling(self, rng):
        d = random_unit_dq(rng)
        scaled = d * rng.uniform(0.5, 3.0)
        recovered = dualquat.rotation(dualquat.normalize(scaled))
        assert np.allclose(recovered, d[:4], atol=1e-12)

    def test_translation_pure_displacement(self):
        d = np.array([1.0, 0, 0, 0, 0.0, 1.0, 2.0, 3.0])
        assert np.allclose(dualquat.translation(d), [2.0, 4.0, 6.0])

    def test_translation_of_pure_rotation(self, rng):
        r = oracles.random_unit_quat(rng)
        d = dualquat.from_rotation_translation(r, np.zeros(3))
        assert np.allclose(dualquat.translation(d), np.zeros(3), atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(200):
            r = oracles.random_unit_quat(rng)
            t = rng.uniform(-4, 4, size=3)
            d = dualquat.from_rotation_translation(r, t)
            assert np.allclose(dualquat.translation(d), t, atol=1e-9)

    def test_not_unit_rejected(self):
        with pytest.raises(NotUnitError):
            dualquat.translation(np.array([2.0, 0, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(NotUnitError):
            dualquat.rotation(np.array([2.0, 0, 0, 0, 0, 0, 0, 0]))


class TestUnitaryResidual:
    def test_identity(self):
        assert dualquat.unitary_residual(dualquat.identity()) == (0.0, 0.0)

    def test_scaled_real(self):
        d = np.array([2.0, 0, 0, 0, 0, 0, 0, 0])
        norm_res, ortho_res = dualquat.unitary_residual(d)
        assert norm_res == 3.0 and ortho_res == 0.0

    def test_parallel_dual(self):
        d = np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0])
        norm_res, ortho_res = dualquat.unitary_residual(d)
        assert norm_res == 0.0 and ortho_res == 1.0


class TestTransformPoint:
    def test_identity(self, rng):
        p = rng.uniform(-3, 3, size=3)
        assert np.allclose(dualquat.transform_point(dualquat.identity(), p), p)

    def test_pure_translation(self, rng):
        t = rng.uniform(-3, 3, size=3)
        p = rng.uniform(-3, 3, size=3)
        assert np.allclose(dualquat.transform_point(pure_translation(t), p), p + t)

    def test_matches_matrix(self, rng):
        for _ in range(100):
            d = random_unit_dq(rng)
            p = rng.uniform(-5, 5, size=3)
            expected = oracles.apply_homogeneous(oracles.dq_to_homogeneous(d), p)
            assert np.allclose(dualquat.transform_point(d, p), expected, atol=1e-9)


class TestAntipode:
    def test_involution(self, rng):
        d = random_unit_dq(rng)
        assert np.allclose(dualquat.antipode(dualquat.antipode(d)), d)

    def test_identity_antipode_transforms_identically(self, rng):
        flipped = dualquat.antipode(dualquat.identity())
        assert np.allclose(flipped, [-1, 0, 0, 0, 0, 0, 0, 0])
        p = rng.uniform(-3, 3, size=(10, 3))
        assert np.allclose(dualquat.transform_point(flipped, p), p, atol=1e-12)

    def test_point_images_agree(self, rng):
        for _ in range(20):
            d = random_unit_dq(rng)
            points = rng.uniform(-5, 5, size=(100, 3))
            a = dualquat.transform_point(d, points)
            b = dualquat.transform_point(dualquat.antipode(d), points)
            assert np.max(np.abs(a - b)) < 1e-12
