"""Losses: analytic anchor values, invariances, and gradient checks."""

from pathlib import Path

import numpy as np
import pytest

from dqmotion import bvh, dualquat, quat
from dqmotion.bvh import JointSpec, Skeleton
from dqmotion.encoding import EncodedClip, ReprKind, encode, fit_stats, standardize
from dqmotion.errors import (
    DegenerateNormError, InvalidValueError, NonFiniteError, NotUnitError, ShapeMismatchError,
)
from dqmotion.kinematics import LocalPose, clip_to_local
from dqmotion import losses
from dqmotion.losses import (
    GRAD_LOSSES,
    LossWeights,
    _analytic_gradient,
    grad_check,
    loss_mse,
    loss_offset,
    loss_positional,
    loss_regularization,
    loss_rotational,
    loss_total,
)

import grad_oracles
import oracles

WALK = Path(__file__).parent.parent / "demos" / "data" / "walk.bvh"


def single_joint_skeleton():
    return Skeleton(
        [
            JointSpec(
                name="root",
                parent=None,
                offset=np.zeros(3),
                channels=("Xposition", "Yposition", "Zposition", "Zrotation", "Yrotation", "Xrotation"),
            )
        ]
    )


def clip_from_features(kind, skeleton, features):
    return EncodedClip(kind=kind, skeleton=skeleton, frame_time=1 / 30, features=np.asarray(features, dtype=float))


def single_dq_clip(block, root=(0.0, 0.0, 0.0)):
    features = np.concatenate([np.asarray(root, dtype=float), np.asarray(block, dtype=float)])[None]
    return clip_from_features(ReprKind.DUALQUAT, single_joint_skeleton(), features)


class TestWeights:
    def test_defaults_echo_reference_configuration(self):
        w = LossWeights()
        assert w.regularization == 0.01
        assert w.positional == 1.0 / 3.0
        assert w.rotational == 1.0 / 3.0
        assert w.mse == 1.0 and w.offset == 1.0

    def test_from_mapping(self):
        w = LossWeights.from_mapping({"reg": 0.5, "quat": 2.0})
        assert w.regularization == 0.5 and w.rotational == 2.0
        with pytest.raises(ValueError):
            LossWeights.from_mapping({"bogus": 1.0})

    @pytest.mark.parametrize("pair", (("quat", "rotational"), ("pos", "positional"),
                                      ("reg", "regularization")))
    def test_one_weight_named_twice_rejected(self, pair):
        with pytest.raises(ValueError, match="more than once"):
            LossWeights.from_mapping({pair[0]: 0.5, pair[1]: 2.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(mse=-1.0)


class TestMse:
    def test_zero_at_truth(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 4), ReprKind.DUALQUAT)
        assert loss_mse(clip, clip) == 0.0

    def test_single_joint_unit_difference(self):
        base = dualquat.identity()
        bumped = base.copy()
        bumped[0] += 1.0
        assert np.isclose(loss_mse(single_dq_clip(bumped), single_dq_clip(base)), 1.0 / 8.0)

    def test_symmetry(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        a = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        b = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        assert np.isclose(loss_mse(a, b), loss_mse(b, a))

    def test_root_translation_columns_ignored(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        features = clip.features.copy()
        features[:, :3] += 100.0
        shifted = clip_from_features(clip.kind, skeleton, features)
        assert loss_mse(shifted, clip) == 0.0

    def test_kind_mismatch(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        poses = oracles.random_poses(rng, skeleton, 3)
        with pytest.raises(ShapeMismatchError):
            loss_mse(encode(poses, ReprKind.DUALQUAT), encode(poses, ReprKind.QUATERNIONS))


class TestRotational:
    def test_identical_rotations(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        clip = encode(oracles.random_poses(rng, skeleton, 4), ReprKind.DUALQUAT)
        for space in ("local", "current"):
            assert abs(loss_rotational(clip, clip, space)) < 1e-12

    def test_antipodal_extremes(self, rng):
        q = oracles.random_unit_quat(rng)
        block = dualquat.from_rotation_translation(q, np.zeros(3))
        pred = single_dq_clip(-block)
        truth = single_dq_clip(block)
        assert abs(loss_total(pred, truth, rotation_space="current").rotational_raw - 2.0) < 1e-12
        assert abs(loss_rotational(pred, truth, "current")) < 1e-12

    def test_quarter_turn_anchor(self):
        # 90 degree rotation about a shared axis: dot is cos(45 deg).
        base = quat.identity()
        rotated = quat.from_euler([0, 0, np.pi / 2], "ZYX")
        pred = single_dq_clip(dualquat.from_rotation_translation(rotated, np.zeros(3)))
        truth = single_dq_clip(dualquat.from_rotation_translation(base, np.zeros(3)))
        expected = 1.0 - np.cos(np.pi / 4)
        assert abs(loss_rotational(pred, truth, "local") - expected) < 1e-12

    def test_range_bound(self, rng):
        skeleton = oracles.random_skeleton(rng, 6)
        a = encode(oracles.random_poses(rng, skeleton, 6), ReprKind.QUATERNIONS)
        b = encode(oracles.random_poses(rng, skeleton, 6), ReprKind.QUATERNIONS)
        for space in ("local", "current"):
            raw = loss_total(a, b, rotation_space=space).rotational_raw
            aligned = loss_rotational(a, b, space)
            assert 0.0 <= aligned <= raw <= 2.0

    @pytest.mark.parametrize("kind", losses._ROTATIONAL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("space", ("local", "current"))
    def test_overflowing_block_raises(self, rng, kind, space):
        # a block whose squared norm overflows is not scored as a zero
        # quaternion, neither as pred nor as truth
        skeleton = oracles.random_skeleton(rng, 5)
        clip = encode(oracles.random_poses(rng, skeleton, 3), kind)
        blocks = clip.joint_blocks().copy()
        blocks[1, 2] = 1e200
        bad = clip_from_features(
            kind, skeleton, np.concatenate([clip.root_translation, blocks.reshape(3, -1)], axis=1))
        for pred, truth in ((bad, clip), (clip, bad)):
            with pytest.raises(NonFiniteError):
                loss_rotational(pred, truth, space)

    def test_spaces_agree_between_kinds(self, rng):
        # The same poses encoded as dualquat and as quaternions must yield
        # the same rotational loss in both spaces (up to sign alignment).
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        poses_a = oracles.random_poses(rng, skeleton, 5)
        poses_b = oracles.random_poses(rng, skeleton, 5)
        for space in ("local", "current"):
            dq_val = loss_rotational(
                encode(poses_a, ReprKind.DUALQUAT), encode(poses_b, ReprKind.DUALQUAT), space
            )
            q_val = loss_rotational(
                encode(poses_a, ReprKind.QUATERNIONS), encode(poses_b, ReprKind.QUATERNIONS), space
            )
            assert abs(dq_val - q_val) < 1e-9


class TestPositional:
    def test_zero_at_truth(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 4), ReprKind.DUALQUAT)
        assert loss_positional(clip, clip) == 0.0

    def test_three_four_five(self):
        skeleton = single_joint_skeleton()
        truth = clip_from_features(ReprKind.POSITIONS, skeleton, [[0, 0, 0, 1.0, 1.0, 1.0]])
        pred = clip_from_features(ReprKind.POSITIONS, skeleton, [[0, 0, 0, 4.0, 5.0, 1.0]])
        assert np.isclose(loss_positional(pred, truth), 5.0)

    def test_overflowing_distance_raises(self):
        # a finite distance whose square overflows is not scored as inf
        skeleton = single_joint_skeleton()
        truth = clip_from_features(ReprKind.POSITIONS, skeleton, [[0, 0, 0, 1.0, 1.0, 1.0]])
        pred = clip_from_features(ReprKind.POSITIONS, skeleton, [[0, 0, 0, 1e200, 1.0, 1.0]])
        with pytest.raises(NonFiniteError):
            loss_positional(pred, truth)

    def test_matches_matrix_oracle_positions(self, rng):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        poses_a = oracles.random_poses(rng, skeleton, 4)
        poses_b = oracles.random_poses(rng, skeleton, 4)
        got = loss_positional(encode(poses_a, ReprKind.DUALQUAT), encode(poses_b, ReprKind.DUALQUAT))
        from pose_oracles import matrix_fk

        rows = list(skeleton.encoded_indices)
        dist = []
        for pa, pb in zip(poses_a, poses_b):
            _, pos_a = matrix_fk(pa)
            _, pos_b = matrix_fk(pb)
            dist.append(np.linalg.norm(pos_a[rows] - pos_b[rows], axis=-1))
        assert abs(got - np.mean(dist)) < 1e-9


class TestOffset:
    def test_encoded_clip_is_clean(self, rng):
        skeleton = oracles.random_skeleton(rng, 8, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 5), ReprKind.DUALQUAT)
        assert loss_offset(clip, skeleton) < 1e-9

    def test_single_bone_stretch(self, rng):
        skeleton = oracles.random_skeleton(rng, 6)
        pose = oracles.random_pose(rng, skeleton)
        clip = encode(oracles.repeated(pose), ReprKind.DUALQUAT)
        j = skeleton.num_encoded
        delta = 0.37
        # Stretch a leaf: any descendant's local transform would otherwise
        # also move relative to the perturbed joint.
        target = skeleton.num_joints - 1
        joint = skeleton.joints[target]
        direction = joint.offset / np.linalg.norm(joint.offset)
        stretched = joint.offset + delta * direction

        current = clip.joint_blocks()[0].copy()  # every joint is encoded
        local = dualquat.from_rotation_translation(pose.joint_rotations[target], stretched)
        current[target] = dualquat.mul(current[joint.parent], local)
        blocks = clip.joint_blocks().copy()
        blocks[0] = current[list(skeleton.encoded_indices)]
        features = np.concatenate([clip.root_translation, blocks.reshape(1, -1)], axis=1)
        bad = clip_from_features(ReprKind.DUALQUAT, skeleton, features)

        assert abs(loss_offset(bad, skeleton) - delta / (j - 1)) < 1e-9

    def test_invariant_under_global_rotation(self, rng):
        skeleton = oracles.random_skeleton(rng, 7, end_sites=True)
        pose = oracles.random_pose(rng, skeleton)
        before = loss_offset(encode(oracles.repeated(pose), ReprKind.DUALQUAT), skeleton)

        spun = pose.joint_rotations.copy()
        spun[0] = quat.mul(oracles.random_unit_quat(rng), spun[0])
        after = loss_offset(
            encode(oracles.repeated(LocalPose(skeleton, pose.root_translation, spun)),
                   ReprKind.DUALQUAT),
            skeleton,
        )
        assert abs(before - after) < 1e-9


    @pytest.mark.parametrize("change", ("fewer joints", "other parents"))
    def test_other_topology_is_a_shape_mismatch(self, rng, change):
        # The offset term pairs the clip's joints with the given skeleton's
        # bones, so every entry point rejects a skeleton of another shape.
        skeleton = oracles.random_skeleton(rng, 6)
        clip = encode(oracles.random_poses(rng, skeleton, 2), ReprKind.DUALQUAT)
        joints = list(skeleton.joints)
        if change == "fewer joints":
            joints = joints[:4]
        else:
            last = joints[-1]
            parent = 1 if last.parent == 0 else 0
            joints[-1] = JointSpec(last.name, parent, last.offset, last.channels)
        other = Skeleton(joints)
        for call in (
            lambda: loss_offset(clip, other),
            lambda: loss_total(clip, clip, truth_skeleton=other),
            lambda: grad_check("offset", clip, clip, truth_skeleton=other),
        ):
            with pytest.raises(ShapeMismatchError, match="topology"):
                call()


class TestDualquatChecks:
    """The dq positional and offset terms keep the norm floor of
    `dualquat.normalize` and the unit check of `dualquat.translation`."""

    BLOCKS = {
        # a dual part so large that the normalized block misses the unit
        # tolerance by roundoff; not every block does, so `bad_pair` puts it
        # on a joint whose block does
        "huge dual part": (slice(4, 8), 1e12, NotUnitError),
        "real part under the floor": (slice(0, 4), 1e-13, DegenerateNormError),
        # finite, but its squared norm overflows
        "overflowing real part": (slice(0, 4), 1e200, NonFiniteError),
    }

    @staticmethod
    def bad_pair(rng, block):
        """A clean dualquat clip and a copy with one bad block, at frame 1."""
        columns, value, error = TestDualquatChecks.BLOCKS[block]
        skeleton = oracles.random_skeleton(rng, 5)
        clip = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        blocks = clip.joint_blocks().copy()
        joint = 2
        if error is NotUnitError:
            # the first joint below the root whose normalized block fails
            # the unit check of `dualquat.translation`, so a check that reads
            # the root alone fails here
            trial = blocks[1].copy()
            trial[:, columns] = value

            def misses(block):
                try:
                    dualquat.translation(dualquat.normalize(block))
                except NotUnitError:
                    return True
                return False

            missing = [j for j in range(1, len(trial)) if misses(trial[j])]
            assert missing, "no block of frame 1 misses the unit tolerance"
            joint = missing[0]
        blocks[1, joint, columns] = value
        features = np.concatenate([clip.root_translation, blocks.reshape(3, -1)], axis=1)
        return clip_from_features(ReprKind.DUALQUAT, skeleton, features), clip

    def test_is_unit_agrees_with_translation(self, rng):
        """One residual kernel decides both verdicts: on the clean clip of
        `bad_pair` with frame 1's dual parts at 1e12, normalized, a block
        is unit by `is_unit` exactly when `translation` returns. Their
        orthogonality residuals once summed in two orders and disagreed
        on some of these blocks."""
        skeleton = oracles.random_skeleton(rng, 5)
        blocks = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT).joint_blocks().copy()
        blocks[1, :, 4:] = 1e12
        verdicts = []
        for block in dualquat.normalize(blocks).reshape(-1, 8):
            try:
                dualquat.translation(block)
                translates = True
            except NotUnitError:
                translates = False
            verdicts.append(translates)
            assert dualquat.is_unit(block) is translates
        assert not all(verdicts[5:10])  # some huge block is not unit

    @pytest.mark.parametrize("name", ("positional", "offset"))
    @pytest.mark.parametrize("block", BLOCKS, ids=str)
    def test_bad_block_raises(self, rng, name, block):
        error = self.BLOCKS[block][2]
        bad, clip = self.bad_pair(rng, block)
        with pytest.raises(error):
            losses._loss_value(name, bad, clip, clip.skeleton)
        if name == "positional":
            with pytest.raises(error):
                loss_positional(clip, bad)

    @pytest.mark.parametrize("name", ("rotational_local", "rotational_current"))
    @pytest.mark.parametrize("block", BLOCKS, ids=str)
    def test_rotational_terms_read_the_normalized_blocks(self, rng, name, block):
        """The rotational terms read the real part of the blocks that
        `dualquat.normalize` makes, so its norm floor and its message hold,
        as pred and as truth. They read no translation: a huge dual part
        passes."""
        error = self.BLOCKS[block][2]
        bad, clip = self.bad_pair(rng, block)
        for pred, truth in ((bad, clip), (clip, bad)):
            if error is NotUnitError:
                assert np.isfinite(losses._loss_value(name, pred, truth))
                continue
            with pytest.raises(error) as raised:
                losses._loss_value(name, pred, truth)
            if error is DegenerateNormError:
                assert str(raised.value).startswith("dual-quaternion real part has norm")


class TestSingleJointOffset:
    """With the root as the only encoded joint there is no bone: the offset
    term is 0 with a zero gradient, never NaN or a division by zero."""

    def clip(self, rng):
        block = dualquat.from_rotation_translation(oracles.random_unit_quat(rng), np.zeros(3))
        return single_dq_clip(block + rng.normal(scale=0.05, size=8))

    def test_loss_is_zero(self, rng):
        clip = self.clip(rng)
        assert loss_offset(clip) == 0.0

    def test_total_is_finite(self, rng):
        clip = self.clip(rng)
        report = loss_total(clip, clip)
        assert report.offset == 0.0
        assert report.per_joint["offset"] == []
        assert np.isfinite(report.weighted_total)

    def test_gradient_is_zero(self, rng):
        clip = self.clip(rng)
        grad = _analytic_gradient("offset", clip, clip, clip.skeleton)
        assert grad.shape == clip.features.shape
        assert not np.any(grad)

    def test_grad_check(self, rng):
        clip = self.clip(rng)
        result = grad_check("offset", clip, clip)
        assert result.max_relative_deviation == 0.0
        assert not result.nondifferentiable


class TestRegularization:
    def test_unit_blocks(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        clip = encode(oracles.random_poses(rng, skeleton, 4), ReprKind.DUALQUAT)
        assert loss_regularization(clip) < 1e-18

    def test_scaled_real_part(self):
        block = np.array([2.0, 0, 0, 0, 0, 0, 0, 0])
        assert loss_regularization(single_dq_clip(block)) == 9.0

    def test_orthogonality_violation(self):
        block = np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0])
        assert loss_regularization(single_dq_clip(block)) == 1.0

    def test_positive_for_perturbations(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        noisy = clip_from_features(
            clip.kind, skeleton, clip.features + rng.normal(scale=1e-3, size=clip.features.shape)
        )
        assert loss_regularization(noisy) > 0.0


class TestTotal:
    def test_all_zero_at_truth(self, rng):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 4), ReprKind.DUALQUAT)
        report = loss_total(clip, clip)
        assert report.mse == 0.0
        assert report.rotational < 1e-12
        assert report.positional == 0.0
        assert report.offset < 1e-9
        assert report.regularization < 1e-18
        assert report.weighted_total < 1e-9

    def test_linearity_in_weights(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        a = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        b = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        only_pos = loss_total(a, b, LossWeights(mse=0, rotational=0, positional=2.5, offset=0, regularization=0))
        assert np.isclose(only_pos.weighted_total, 2.5 * only_pos.positional)
        full = loss_total(a, b)
        w = LossWeights()
        expected = (
            w.mse * full.mse
            + w.rotational * full.rotational
            + w.positional * full.positional
            + w.offset * full.offset
            + w.regularization * full.regularization
        )
        assert np.isclose(full.weighted_total, expected)

    def test_inapplicable_components_absent(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        poses = oracles.random_poses(rng, skeleton, 3)
        report = loss_total(encode(poses, ReprKind.POSITIONS), encode(poses, ReprKind.POSITIONS))
        assert report.rotational is None and report.offset is None and report.regularization is None
        assert report.positional is not None
        report = loss_total(encode(poses, ReprKind.ORTHO6D), encode(poses, ReprKind.ORTHO6D))
        assert report.rotational is None and report.positional is None

    def test_standardized_inputs_rejected(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 5), ReprKind.DUALQUAT)
        std = standardize(clip, fit_stats(clip))
        with pytest.raises(ValueError):
            loss_total(std, std)

    def test_json_round_trip(self, rng):
        import json

        skeleton = oracles.random_skeleton(rng, 4)
        a = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        b = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        report = loss_total(a, b)
        assert json.loads(report.to_json()) == report.to_dict()
        assert "weighted_total" in report.to_text()

    @pytest.mark.parametrize("other_skeleton", [False, True])
    @pytest.mark.parametrize("space", ["local", "current"])
    @pytest.mark.parametrize("kind", list(ReprKind))
    def test_components_match_standalone_losses(self, rng, kind, space, other_skeleton):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        truth = encode(oracles.random_poses(rng, skeleton, 4), kind)
        features = truth.features + rng.normal(scale=0.05, size=truth.features.shape)
        pred = clip_from_features(kind, skeleton, features)
        truth_skeleton = None
        if other_skeleton:
            truth_skeleton = Skeleton(
                [JointSpec(j.name, j.parent, j.offset * 1.5, j.channels, j.is_end_site)
                 for j in skeleton.joints]
            )
        report = loss_total(pred, truth, rotation_space=space, truth_skeleton=truth_skeleton)
        standalone = {
            "mse": lambda: loss_mse(pred, truth),
            "rotational": lambda: loss_rotational(pred, truth, space),
            "rotational_raw": lambda: float(np.mean(
                grad_oracles.BATCHED_TERMS[f"rotational_{space}"](pred, truth, None).unaligned)),
            "positional": lambda: loss_positional(pred, truth),
            "offset": lambda: loss_offset(pred, truth_skeleton or truth.skeleton),
            "regularization": lambda: loss_regularization(pred),
        }
        present = {name for name in standalone if getattr(report, name) is not None}
        assert "mse" in present
        assert ("rotational" in present) == (kind in losses._ROTATIONAL_KINDS)
        assert ("rotational_raw" in present) == ("rotational" in present)
        assert ("positional" in present) == kind.has_positions
        assert ("offset" in present) == ("regularization" in present) == (kind is ReprKind.DUALQUAT)
        for name in present:
            assert getattr(report, name) == standalone[name](), name


class TestPerturbationSensitivity:
    """Any block perturbation beyond 1e-6 must register in the suite."""

    def test_weighted_total_detects_every_direction(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        truth = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        for _ in range(50):
            direction = rng.normal(size=truth.features.shape[1] - 3)
            direction /= np.linalg.norm(direction)
            features = truth.features.copy()
            features[1, 3:] += 1e-5 * direction
            pred = clip_from_features(ReprKind.DUALQUAT, skeleton, features)
            report = loss_total(pred, truth)
            assert report.mse > 0.0
            assert report.weighted_total > 0.0

    def test_rotational_detects_rotation_changes(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        pose = oracles.random_pose(rng, skeleton)
        truth = encode(oracles.repeated(pose), ReprKind.DUALQUAT)
        nudged = pose.joint_rotations.copy()
        nudged[2] = quat.mul(nudged[2], quat.from_euler([1e-4, 0, 0], "ZYX"))
        pred = encode(oracles.repeated(LocalPose(skeleton, pose.root_translation, nudged)),
                      ReprKind.DUALQUAT)
        assert loss_rotational(pred, truth, "local") > 0.0
        assert loss_rotational(pred, truth, "current") > 0.0


def perturbed_pair(rng, n_joints=3, frames=1, scale=0.05):
    """A truth clip and a smoothly perturbed prediction off the manifold."""
    skeleton = oracles.random_skeleton(rng, n_joints)
    truth = encode(oracles.random_poses(rng, skeleton, frames), ReprKind.DUALQUAT)
    features = truth.features + rng.normal(scale=scale, size=truth.features.shape)
    pred = clip_from_features(ReprKind.DUALQUAT, skeleton, features)
    return pred, truth


class TestGradCheck:
    @pytest.mark.parametrize("name", GRAD_LOSSES)
    def test_analytic_matches_finite_differences(self, rng, name):
        passed = 0
        attempts = 0
        while passed < 5 and attempts < 20:
            attempts += 1
            pred, truth = perturbed_pair(rng)
            result = grad_check(name, pred, truth)
            if result.nondifferentiable:
                continue
            assert result.max_relative_deviation < 1e-5, name
            passed += 1
        assert passed == 5

    @pytest.mark.parametrize("name", ["mse", "rotational_local", "rotational_current"])
    def test_quaternion_kind_gradients(self, rng, name):
        # The current-space path backpropagates through the whole ancestor
        # chain, so give it a few levels of hierarchy.
        passed = 0
        attempts = 0
        while passed < 3 and attempts < 15:
            attempts += 1
            skeleton = oracles.random_skeleton(rng, 5)
            truth = encode(oracles.random_poses(rng, skeleton, 2), ReprKind.QUATERNIONS)
            features = truth.features + rng.normal(scale=0.05, size=truth.features.shape)
            pred = clip_from_features(ReprKind.QUATERNIONS, skeleton, features)
            result = grad_check(name, pred, truth)
            if result.nondifferentiable:
                continue
            assert result.max_relative_deviation < 1e-5, name
            passed += 1
        assert passed == 3

    def test_sign_boundary_flagged(self, rng):
        # Construct orthogonal pred/truth rotations: the alignment argmin ties.
        axis = np.array([0.0, 0.0, 1.0])
        q_truth = quat.identity()
        q_pred = quat.from_euler([0, 0, np.pi - 1e-7], "ZYX")  # dot almost 0
        truth = single_dq_clip(dualquat.from_rotation_translation(q_truth, np.zeros(3)))
        pred = single_dq_clip(dualquat.from_rotation_translation(q_pred, np.zeros(3)))
        result = grad_check("rotational_current", pred, truth)
        assert result.nondifferentiable

    @pytest.mark.parametrize(
        "name, kind", [("positional", ReprKind.POSITIONS), ("offset", ReprKind.DUALQUAT)]
    )
    def test_zero_distance_flagged(self, rng, name, kind):
        # At pred == truth every distance is (nearly) zero, where |x| kinks.
        # The finite differences there agree across scales (the positions
        # kind is linear in its features), so only the distance test can
        # flag the point.
        skeleton = oracles.random_skeleton(rng, 3)
        truth = encode(oracles.random_poses(rng, skeleton, 1), kind)
        result = grad_check(name, truth, truth)
        assert result.nondifferentiable

    def test_unknown_loss(self, rng):
        pred, truth = perturbed_pair(rng)
        with pytest.raises(ValueError):
            grad_check("bogus", pred, truth)


class TestGradientInputChecks:
    """Gradients refuse the inputs their losses refuse."""

    def std_pair(self, rng):
        """Both clips standardized with the noisy prediction's stats (no column
        of it is constant): one feature space."""
        pred, truth = perturbed_pair(rng, n_joints=4, frames=3)
        stats = fit_stats(pred)
        return standardize(pred, stats), standardize(truth, stats)

    @pytest.mark.parametrize("name", [n for n in GRAD_LOSSES if n != "mse"])
    def test_standardized_rejected(self, rng, name):
        pred, truth = self.std_pair(rng)
        with pytest.raises(ValueError, match="raw features"):
            _analytic_gradient(name, pred, truth, truth.skeleton)
        with pytest.raises(ValueError, match="raw features"):
            grad_check(name, pred, truth)

    def test_standardized_truth_rejected(self, rng):
        pred, truth = perturbed_pair(rng, n_joints=4, frames=3)
        std_truth = standardize(truth, fit_stats(truth))
        for name in ("rotational_local", "rotational_current", "positional"):
            with pytest.raises(ValueError, match="raw features"):
                _analytic_gradient(name, pred, std_truth, truth.skeleton)

    def test_mse_rejects_mixed_feature_spaces(self, rng):
        """A standardized clip against a raw one, either way round, and two
        clips standardized with different stats share no feature space."""
        pred, truth = perturbed_pair(rng, n_joints=4, frames=3)
        std_pred, std_truth = standardize(pred, fit_stats(pred)), standardize(truth, fit_stats(truth))
        for a, b in ((std_pred, truth), (pred, std_truth), (std_pred, std_truth)):
            with pytest.raises(InvalidValueError, match="different stats"):
                loss_mse(a, b)
            with pytest.raises(InvalidValueError, match="different stats"):
                grad_check("mse", a, b)

    def test_identical_motion_in_two_feature_spaces(self):
        clip = bvh.parse_file(WALK)
        raw = encode(clip_to_local(clip), ReprKind.ORTHO6D, clip.frame_time)
        std = standardize(raw, fit_stats(raw))
        for a, b in ((std, raw), (raw, std)):
            with pytest.raises(InvalidValueError, match="different stats"):
                loss_total(a, b)
        assert loss_total(std, std).mse == 0.0
        assert loss_total(raw, raw).mse == 0.0

    def test_mse_accepts_standardized(self, rng):
        pred, truth = self.std_pair(rng)
        result = grad_check("mse", pred, truth)
        assert result.max_relative_deviation < 1e-5

    @pytest.mark.parametrize("name", ["mse", "rotational_local", "rotational_current"])
    def test_kind_mismatch(self, rng, name):
        skeleton = oracles.random_skeleton(rng, 4)
        poses = oracles.random_poses(rng, skeleton, 3)
        dq, q = encode(poses, ReprKind.DUALQUAT), encode(poses, ReprKind.QUATERNIONS)
        with pytest.raises(ShapeMismatchError):
            _analytic_gradient(name, dq, q, skeleton)

    @pytest.mark.parametrize("name", ["offset", "regularization"])
    def test_dualquat_only_terms(self, rng, name):
        skeleton = oracles.random_skeleton(rng, 4)
        q = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.QUATERNIONS)
        with pytest.raises(ShapeMismatchError):
            _analytic_gradient(name, q, q, skeleton)

    @staticmethod
    def three_joint_clip(parents, kind=ReprKind.DUALQUAT):
        """A root and two joints under `parents`, at rest, encoded as `kind`."""
        channels = ("Zrotation", "Yrotation", "Xrotation")
        joints = [JointSpec("root", None, np.zeros(3), ("Xposition", "Yposition", "Zposition") + channels)]
        joints += [JointSpec(f"j{i}", p, np.array([0.0, 1.0, 0.0]), channels)
                   for i, p in enumerate(parents, 1)]
        rotations = np.zeros((4, 3, 4))
        rotations[..., 0] = 1.0
        return encode(LocalPose(Skeleton(joints), np.zeros((4, 3)), rotations), kind)

    def test_every_entry_point_checks_the_truth_topology(self):
        """A 3-joint chain against a 3-joint star: one width, two
        topologies. `_evaluate` resolves the skeleton for every term."""
        chain, star = self.three_joint_clip([0, 1]), self.three_joint_clip([0, 0])
        assert chain.width == star.width
        for call in (loss_mse, loss_positional, loss_total, lambda a, b: grad_check("mse", a, b)):
            with pytest.raises(ShapeMismatchError, match="topology"):
                call(chain, star)

    @pytest.mark.parametrize("kind", (ReprKind.DUALQUAT, ReprKind.QUATERNIONS), ids=lambda k: k.value)
    def test_truth_skeleton_does_not_skip_the_truth_topology(self, kind):
        """Pred's own skeleton as `truth_skeleton` leaves the truth clip's
        topology to check: a pair term still refuses the star."""
        chain, star = self.three_joint_clip([0, 1], kind), self.three_joint_clip([0, 0], kind)
        for name in ("mse", "rotational_local", "rotational_current"):
            with pytest.raises(ShapeMismatchError, match="topology"):
                grad_check(name, chain, star, truth_skeleton=chain.skeleton)
        for space in ("local", "current"):
            with pytest.raises(ShapeMismatchError, match="topology"):
                loss_total(chain, star, rotation_space=space, truth_skeleton=chain.skeleton)
        # a truth of pred's own topology still scores
        assert loss_total(chain, chain, truth_skeleton=chain.skeleton).mse == 0.0

    def test_frame_counts_differ(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 5), ReprKind.DUALQUAT)
        short = clip_from_features(ReprKind.DUALQUAT, skeleton, clip.features[:-1])
        for call in (loss_mse, loss_positional, loss_total, lambda a, b: grad_check("mse", a, b)):
            with pytest.raises(ShapeMismatchError, match="^feature shapes differ$"):
                call(clip, short)

    def test_grad_check_bumps_keep_stats(self, rng, monkeypatch):
        pred, truth = self.std_pair(rng)
        seen = []
        original = losses._evaluate

        def spy(name, bumped, truth_clip, skeleton):
            seen.append(bumped.stats)
            return original(name, bumped, truth_clip, skeleton)

        monkeypatch.setattr(losses, "_evaluate", spy)
        grad_check("mse", pred, truth)
        assert seen and all(stats is pred.stats for stats in seen)
