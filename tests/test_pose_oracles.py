"""Batched pose code against the scalar and per-joint loop oracles, and the
semantics of the frame-batched LocalPose."""

import dataclasses

import numpy as np
import pytest

from dqmotion import _rotmat, dualquat, quat
from dqmotion.bvh import JointSpec, MotionClip, Skeleton
from dqmotion.encoding import ReprKind, decode, encode
from dqmotion.errors import ShapeMismatchError, TooFewFramesError
from dqmotion.kinematics import (
    LocalPose,
    clip_to_local,
    local_to_clip,
    relative,
    stack_poses,
)
from dqmotion.metrics import metric_report, pose_positions

import oracles
import pose_oracles

FRAME_COUNTS = (1, 16)
INVERTIBLE = [kind for kind in ReprKind if kind.has_rotations]


def branching_skeleton(rng):
    """A random tree with end sites in which some joint has at least three
    children, so a gather or level sweep that drops siblings shows up."""
    while True:
        skeleton = oracles.random_skeleton(rng, 12, end_sites=True)
        if np.bincount(skeleton.parent_indices[1:]).max() >= 3:
            return skeleton


def random_batch(rng, skeleton, frames) -> LocalPose:
    return stack_poses(oracles.random_poses(rng, skeleton, frames))


def assert_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol


class TestShepperd:
    def test_every_branch_matches_scalar(self, rng):
        angles = np.concatenate([rng.uniform(0.0, 0.5, 8), rng.uniform(np.pi - 0.4, np.pi, 24)])
        axes = oracles.random_unit_quat(rng, (32,))[:, 1:]
        axes[8:16] = [1.0, 0.1, -0.2]  # near half turns about x, y and z
        axes[16:24] = [0.1, -1.0, 0.2]
        axes[24:] = [-0.2, 0.1, 1.0]
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        q = np.concatenate([np.cos(angles / 2)[:, None], np.sin(angles / 2)[:, None] * axes], -1)
        mats = _rotmat.quat_to_matrix(np.concatenate([q, oracles.random_unit_quat(rng, (64,))]))
        assert {pose_oracles.shepperd_branch(m) for m in mats} == {0, 1, 2, 3}

        want = np.stack([pose_oracles.matrix_to_quat(m) for m in mats])
        assert_close(_rotmat.matrix_to_quat(mats), want)
        # leading axes broadcast like every other algebra function
        assert_close(_rotmat.matrix_to_quat(mats.reshape(8, 12, 3, 3)), want.reshape(8, 12, 4))


class TestToEuler:
    @pytest.mark.parametrize("order", oracles.ORDER_POOL)
    def test_matches_scalar(self, rng, order):
        angles = rng.uniform(-np.pi, np.pi, size=(240, 3))
        middle = "XYZ".index(order[1])
        # exact poles, then 1e-7 rad, 0.001 deg and 0.01 deg off them
        offsets = np.repeat([0.0, 1e-7, np.radians(0.001), np.radians(0.01)], 20)
        angles[:80, middle] = np.pi / 2.0 - offsets
        angles[80:160, middle] = -np.pi / 2.0 + offsets
        q = quat.from_euler(angles, order)
        want = np.stack([pose_oracles.to_euler(row, order) for row in q])
        assert_close(quat.to_euler(q, order), want)
        assert_close(quat.to_euler(q.reshape(12, 20, 4), order), want.reshape(12, 20, 3))

    def test_single_quaternion_keeps_shape(self, rng):
        q = oracles.random_unit_quat(rng)
        assert quat.to_euler(q, "ZYX").shape == (3,)


@pytest.mark.parametrize("frames", FRAME_COUNTS)
class TestHierarchy:
    def test_positions_match_matrix_fk(self, rng, frames):
        skeleton = branching_skeleton(rng)
        poses = oracles.random_poses(rng, skeleton, frames)
        want = pose_oracles.pose_positions(poses)
        assert_close(pose_positions(stack_poses(poses)), want)
        # rotations are normalized first, as matrix_fk does
        pose = stack_poses(poses)
        scale = rng.uniform(0.5, 2.0, size=(frames, skeleton.num_joints, 1))
        scaled = LocalPose(skeleton, pose.root_translation, pose.joint_rotations * scale)
        assert_close(pose_positions(scaled), want)

    def test_current_to_local_matches_joint_loop(self, rng, frames):
        skeleton = branching_skeleton(rng)
        chain = random_batch(rng, skeleton, frames).chain
        want = np.stack([pose_oracles.current_to_local_dq(skeleton, frame) for frame in chain])
        assert_close(relative(skeleton.parent_indices, chain, dualquat.mul, dualquat.conjugate), want)

    @pytest.mark.parametrize("kind", INVERTIBLE, ids=lambda k: k.value)
    def test_decode_matches_loop(self, rng, frames, kind):
        skeleton = branching_skeleton(rng)
        clip = encode(random_batch(rng, skeleton, frames), kind)
        got = decode(clip)
        want = pose_oracles.decode(clip)
        assert len(got) == len(want) == frames
        assert_close(got.joint_rotations, np.stack([p.joint_rotations for p in want]))
        assert_close(got.root_translation, np.stack([p.root_translation for p in want]), 0.0)


def every_order_skeleton(rng, root_positions: bool) -> Skeleton:
    """A random tree with end sites, joints in all six Euler orders, a
    channel-less joint, and root channels in a shuffled order (with or
    without its position channels)."""
    while True:
        base = oracles.random_skeleton(rng, 40, end_sites=True)
        if {j.rotation_order for j in base.joints[1:]} >= set(oracles.ORDER_POOL):
            break
    root = base.joints[0]
    tags = [t for t in root.channels if root_positions or t.endswith("rotation")]
    root = dataclasses.replace(root, channels=tuple(rng.permutation(tags)))
    fixed = JointSpec("fixed", 0, [0.5, 0.0, 0.0], ())
    return Skeleton([root, *base.joints[1:], fixed])


def near_pole_frames(rng, skeleton: Skeleton, frames: int) -> np.ndarray:
    """(F, C) channel values in degrees. Most joints' Euler middle angle
    sits at +-90 degrees, 1e-7 rad or 0.01 degrees from it; the rest are
    uniform."""
    values = rng.uniform(-180.0, 180.0, size=(frames, skeleton.channel_count))
    gaps = np.array([0.0, np.degrees(1e-7), 0.01])
    column = 0
    for joint in skeleton.joints:
        order = joint.rotation_order
        if order and rng.uniform() < 0.75:
            middle = column + joint.channels.index(order[1] + "rotation")
            sign = rng.choice([-1.0, 1.0], size=frames)
            values[:, middle] = sign * (90.0 - rng.choice(gaps, size=frames))
        column += len(joint.channels)
    return values


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("frames", (1, 64))
@pytest.mark.parametrize("root_positions", (True, False), ids=("root-positions", "root-rotations"))
class TestClipConversion:
    """One gather and one Euler call per order, bit for bit the per-joint loops."""

    def test_clip_to_local_matches_joint_loop(self, rng, frames, root_positions):
        skeleton = every_order_skeleton(rng, root_positions)
        assert {order for order, _, _ in skeleton.channel_table.rotations} == set(oracles.ORDER_POOL)
        clip = MotionClip(skeleton, 1 / 30, near_pole_frames(rng, skeleton, frames))
        got, want = clip_to_local(clip), pose_oracles.clip_to_local(clip)
        assert_same_bits(got.joint_rotations, want.joint_rotations)
        assert_same_bits(got.root_translation, want.root_translation)

    def test_local_to_clip_matches_joint_loop(self, rng, frames, root_positions):
        skeleton = every_order_skeleton(rng, root_positions)
        clip = MotionClip(skeleton, 1 / 30, near_pole_frames(rng, skeleton, frames))
        for pose in (clip_to_local(clip), random_batch(rng, skeleton, frames)):
            got = local_to_clip(pose, skeleton, clip.frame_time)
            want = pose_oracles.local_to_clip(pose, skeleton, clip.frame_time)
            assert_same_bits(got.frames, want.frames)


class TestLocalPose:
    def test_frame_axis(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        pose = random_batch(rng, skeleton, 6)
        assert len(pose) == 6 and pose.batched

        frame = pose[2]
        assert not frame.batched
        assert frame.joint_rotations.shape == (skeleton.num_joints, 4)
        assert frame.root_translation.shape == (3,)
        assert np.array_equal(frame.joint_rotations, pose.joint_rotations[2])
        with pytest.raises(TypeError):
            len(frame)

        window = pose[1:4]
        assert window.batched and len(window) == 3
        assert np.array_equal(window.root_translation, pose.root_translation[1:4])

        frames = list(pose)
        assert len(frames) == 6 and not any(f.batched for f in frames)
        assert np.array_equal(np.stack([f.joint_rotations for f in frames]), pose.joint_rotations)

    def test_bad_shapes_rejected(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        with pytest.raises(ValueError):
            LocalPose(skeleton, np.zeros(3), np.ones((5, 4)))
        with pytest.raises(ValueError):
            LocalPose(skeleton, np.zeros((2, 3)), np.ones((3, 4, 4)))

    def test_list_and_batch_agree(self, rng):
        skeleton = branching_skeleton(rng)
        poses = oracles.random_poses(rng, skeleton, 5)
        batch = stack_poses(poses)
        for kind in ReprKind:
            assert np.array_equal(encode(poses, kind).features, encode(batch, kind).features)
        reports = metric_report(poses, poses[::-1]), metric_report(batch, batch[::-1])
        assert reports[0].to_dict() == reports[1].to_dict()
        assert np.array_equal(
            local_to_clip(poses, skeleton, 0.1).frames, local_to_clip(batch, skeleton, 0.1).frames
        )

    def test_mixed_skeletons_rejected(self, rng):
        a = oracles.random_skeleton(rng, 4)
        b = oracles.random_skeleton(rng, 4)
        mixed = oracles.random_poses(rng, a, 3) + oracles.random_poses(rng, b, 3)
        with pytest.raises(ShapeMismatchError):
            stack_poses(mixed)
        with pytest.raises(ShapeMismatchError):
            encode(mixed, ReprKind.DUALQUAT)
        with pytest.raises(ShapeMismatchError):
            metric_report(mixed, mixed)
        with pytest.raises(ShapeMismatchError):
            local_to_clip(mixed, a, 0.1)

    def test_no_frames_rejected(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        with pytest.raises(TooFewFramesError):
            encode([], ReprKind.DUALQUAT)
        with pytest.raises(TooFewFramesError):
            encode(random_batch(rng, skeleton, 3)[3:], ReprKind.DUALQUAT)
