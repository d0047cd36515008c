"""Kinematics: the dual-quaternion chain (`LocalPose.chain`) against the
matrix oracle, both against an independent homogeneous-matrix
implementation, and its inverses (`decode` of a dualquat clip, and
`relative` for the per-joint local transforms)."""

import numpy as np
import pytest

from dqmotion import bvh, dualquat, quat
from dqmotion.encoding import ReprKind, decode, encode
from dqmotion.kinematics import LocalPose, clip_to_local, local_to_clip, relative

import oracles
from pose_oracles import matrix_fk


def chain_skeleton(offsets, orders=None):
    """A single chain: joint i hangs off joint i-1."""
    joints = [
        bvh.JointSpec(
            name="root",
            parent=None,
            offset=np.zeros(3),
            channels=("Xposition", "Yposition", "Zposition", "Zrotation", "Yrotation", "Xrotation"),
        )
    ]
    for i, off in enumerate(offsets, start=1):
        order = (orders or {}).get(i, "ZYX")
        joints.append(
            bvh.JointSpec(
                name=f"j{i}",
                parent=i - 1,
                offset=np.asarray(off, dtype=float),
                channels=tuple(f"{ax}rotation" for ax in order),
            )
        )
    return bvh.Skeleton(joints)


def identity_pose(skeleton):
    rotations = np.zeros((skeleton.num_joints, 4))
    rotations[:, 0] = 1.0
    return LocalPose(skeleton, np.zeros(3), rotations)


def local_dq(pose):
    """Each joint's parent-relative dual quaternion, recovered from the chain."""
    return relative(pose.skeleton.parent_indices, pose.chain, dualquat.mul, dualquat.conjugate)


def cumulative_offsets(skeleton):
    out = np.zeros((skeleton.num_joints, 3))
    for idx, joint in enumerate(skeleton.joints):
        if joint.parent is not None:
            out[idx] = out[joint.parent] + joint.offset
    return out


class TestLocalToCurrent:
    def test_identity_rotations_accumulate_offsets(self, rng):
        skeleton = oracles.random_skeleton(rng, 8, end_sites=True)
        chain = identity_pose(skeleton).chain
        expected = cumulative_offsets(skeleton)
        for idx in range(skeleton.num_joints):
            assert np.allclose(dualquat.translation(chain[idx]), expected[idx], atol=1e-12)

    def test_half_turn_root_flips_child(self):
        skeleton = chain_skeleton([[1.0, 0.0, 0.0]])
        rotations = np.array([quat.from_euler([0, 0, np.pi], "ZYX"), quat.identity()])
        chain = LocalPose(skeleton, np.zeros(3), rotations).chain
        assert np.allclose(dualquat.translation(chain[1]), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_root_entry_is_pure_rotation(self, rng):
        skeleton = oracles.random_skeleton(rng, 6)
        chain = oracles.random_pose(rng, skeleton).chain
        assert np.allclose(chain[0, 4:], 0.0)
        assert np.allclose(chain[0, :4], quat.normalize(chain[0, :4]))

    def test_matches_matrix_fk(self, rng):
        for _ in range(300):
            skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 21)), end_sites=True)
            pose = oracles.random_pose(rng, skeleton)
            _, positions = matrix_fk(pose)
            got = dualquat.translation(pose.chain)
            assert np.max(np.abs(got - positions)) < 1e-9

    def test_entries_unit(self, rng):
        skeleton = oracles.random_skeleton(rng, 15, end_sites=True)
        chain = oracles.random_pose(rng, skeleton).chain
        norm_res, ortho_res = dualquat.unitary_residual(chain)
        assert np.max(np.abs(norm_res)) < 1e-9
        assert np.max(np.abs(ortho_res)) < 1e-9


class TestMatrixFk:
    def test_identity_pose(self, rng):
        skeleton = oracles.random_skeleton(rng, 10, end_sites=True)
        rotations, positions = matrix_fk(identity_pose(skeleton))
        assert np.allclose(rotations, np.eye(3))
        assert np.allclose(positions, cumulative_offsets(skeleton))

    def test_two_quarter_turns_compose(self):
        skeleton = chain_skeleton([[1.0, 0, 0], [1.0, 0, 0]])
        quarter = quat.from_euler([0, 0, np.pi / 2], "ZYX")
        rotations = np.array([quarter, quarter, quat.identity()])
        mats, _ = matrix_fk(LocalPose(skeleton, np.zeros(3), rotations))
        assert np.allclose(mats[1], oracles.axis_matrix("Z", np.pi), atol=1e-12)

    def test_against_independent_homogeneous_chain(self, rng):
        for _ in range(100):
            skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 15)), end_sites=True)
            pose = oracles.random_pose(rng, skeleton)
            rotations, positions = matrix_fk(pose)
            local_mats = np.array([oracles.quat_matrix(q) for q in pose.joint_rotations])
            exp_rot, exp_pos = oracles.fk_homogeneous(skeleton, local_mats)
            assert np.max(np.abs(rotations - exp_rot)) < 1e-9
            assert np.max(np.abs(positions - exp_pos)) < 1e-9


class TestCurrentToLocal:
    def test_inverse_pair(self, rng):
        for _ in range(200):
            skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 15)), end_sites=True)
            pose = oracles.random_pose(rng, skeleton)
            back = decode(encode([pose], ReprKind.DUALQUAT))[0]
            for idx in range(skeleton.num_joints):
                a, b = pose.joint_rotations[idx], back.joint_rotations[idx]
                assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-9
            assert np.allclose(back.root_translation, pose.root_translation)

    def test_root_maps_to_itself(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        pose = oracles.random_pose(rng, skeleton)
        assert np.allclose(local_dq(pose)[0], pose.chain[0])

    def test_offsets_recovered(self, rng):
        for _ in range(100):
            skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 12)), end_sites=True)
            local = local_dq(oracles.random_pose(rng, skeleton))
            for idx, joint in enumerate(skeleton.joints):
                if joint.parent is not None:
                    extracted = dualquat.translation(local[idx])
                    assert np.max(np.abs(extracted - joint.offset)) < 1e-9

    def test_rejects_non_unit_local_rotations(self, rng):
        from dqmotion.errors import NotUnitError

        skeleton = oracles.random_skeleton(rng, 3)
        pose = oracles.random_pose(rng, skeleton)
        for target in (0, 2):  # root and a child propagate the same way
            rotations = pose.joint_rotations.copy()
            rotations[target] *= 1.5
            with pytest.raises(NotUnitError):
                LocalPose(skeleton, pose.root_translation, rotations).chain


class TestErrorLocalization:
    def test_perturbation_stays_in_subtree(self, rng):
        skeleton = oracles.random_skeleton(rng, 12, end_sites=True)
        pose = oracles.random_pose(rng, skeleton)
        base = pose.chain

        target = 4
        perturbed_rotations = pose.joint_rotations.copy()
        perturbed_rotations[target] = oracles.random_unit_quat(rng)
        perturbed = LocalPose(skeleton, pose.root_translation, perturbed_rotations).chain

        parents = skeleton.parent_indices

        def in_subtree(idx):
            while idx >= 0:
                if idx == target:
                    return True
                idx = parents[idx]
            return False

        for idx in range(skeleton.num_joints):
            changed = not np.allclose(base[idx], perturbed[idx], atol=1e-12)
            assert changed == in_subtree(idx)


class TestClipConversion:
    def test_zero_angles_give_identities(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        zero = bvh.MotionClip(clip.skeleton, clip.frame_time, np.zeros_like(clip.frames[:1]))
        pose = clip_to_local(zero)[0]
        assert np.allclose(pose.joint_rotations, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(pose.root_translation, np.zeros(3))

    def test_hand_computed_quaternions(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        pose = clip_to_local(clip)[0]
        assert np.allclose(pose.root_translation, [1.0, 2.0, 3.0])
        # knee frame 0: ZYX channels read (-15, 0, 45) degrees.
        z, y, x = np.radians([-15.0, 0.0, 45.0])
        qz = np.array([np.cos(z / 2), 0, 0, np.sin(z / 2)])
        qy = np.array([np.cos(y / 2), 0, np.sin(y / 2), 0])
        qx = np.array([np.cos(x / 2), np.sin(x / 2), 0, 0])
        expected = oracles.quat_mul(oracles.quat_mul(qz, qy), qx)
        assert np.allclose(pose.joint_rotations[1], expected, atol=1e-12)

    def test_round_trip_channels(self, fixtures_dir):
        for name in ("two_joint.bvh", "arm_chain.bvh", "humanoid.bvh"):
            clip = bvh.parse_file(fixtures_dir / name)
            poses = clip_to_local(clip)
            back = local_to_clip(poses, clip.skeleton, clip.frame_time)
            delta = np.abs(back.frames - clip.frames)
            delta = np.minimum(delta, np.abs(delta - 360.0))  # angles live mod 360
            assert np.max(delta) < 1e-5

    def test_identity_rotations_write_zero_channels(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        poses = [identity_pose(clip.skeleton)]
        out = local_to_clip(poses, clip.skeleton, clip.frame_time)
        assert np.allclose(out.frames, 0.0)

    def test_frame_count_preserved(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
        poses = clip_to_local(clip)
        out = local_to_clip(poses, clip.skeleton, clip.frame_time)
        assert out.num_frames == clip.num_frames

    def test_reencoded_quaternions_match(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "gimbal_lock.bvh")
        poses = clip_to_local(clip)
        back = clip_to_local(local_to_clip(poses, clip.skeleton, clip.frame_time))
        for before, after in zip(poses, back):
            for a, b in zip(before.joint_rotations, after.joint_rotations):
                assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-6
