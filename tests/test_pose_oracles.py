"""Batched pose code against the scalar and per-joint loop oracles, and the
semantics of the frame-batched LocalPose."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dqmotion import bvh, quat
from dqmotion.bvh import JointSpec, MotionClip, Skeleton
from dqmotion.encoding import ReprKind, _ortho6d_to_quats, _seed_signs, antipodal_correct, decode, encode
from dqmotion.errors import NotUnitError, ShapeMismatchError, TooFewFramesError
from dqmotion.kinematics import LocalPose, _from_rows, _to_rows, clip_to_local, local_to_clip, relative
from dqmotion.metrics import metric_report

import algebra_oracles
import oracles
import pose_oracles

WALK = Path(__file__).parent.parent / "demos" / "data" / "walk.bvh"
FRAME_COUNTS = (1, 16)
INVERTIBLE = [kind for kind in ReprKind if kind.has_rotations]


def branching_skeleton(rng):
    """A random tree with end sites in which some joint has at least three
    children, so a gather or level sweep that drops siblings shows up."""
    while True:
        skeleton = oracles.random_skeleton(rng, 12, end_sites=True)
        if np.bincount(skeleton.parent_indices[1:]).max() >= 3:
            return skeleton


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
        mats = algebra_oracles.quat_to_matrix(np.concatenate([q, oracles.random_unit_quat(rng, (64,))]))
        assert {pose_oracles.shepperd_branch(m) for m in mats} == {0, 1, 2, 3}

        want = np.stack([pose_oracles.matrix_to_quat(m) for m in mats])
        blocks = np.concatenate([mats[..., :, 0], mats[..., :, 1]], axis=-1)
        assert_close(_ortho6d_to_quats(blocks), want)
        # leading axes broadcast like every other algebra function
        assert_close(_ortho6d_to_quats(blocks.reshape(8, 12, 6)), want.reshape(8, 12, 4))


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


def with_zero_offsets(rng, skeleton: Skeleton) -> Skeleton:
    """`skeleton` with about half of its offsets, end sites' included, zero."""
    return Skeleton([dataclasses.replace(joint, offset=np.zeros(3)) if rng.random() < 0.5 else joint
                     for joint in skeleton.joints])


@pytest.mark.parametrize("frames", (1, 2, 400))
@pytest.mark.parametrize("zero_offsets", (False, True), ids=("offsets", "zero offsets"))
def test_positions_match_the_chain_translations(rng, frames, zero_offsets):
    """The rotation sweep's positions against the translations of the dual-
    quaternion chain they replaced, within 1e-12 of the largest |position|."""
    for n_joints in (1, 2, 5, 12, 30):
        skeleton = oracles.random_skeleton(rng, n_joints, end_sites=True)
        if zero_offsets:
            skeleton = with_zero_offsets(rng, skeleton)
        pose = oracles.random_poses(rng, skeleton, frames)
        want = pose_oracles.chain_positions(pose)
        got = pose.positions
        assert got.shape == want.shape == (frames, skeleton.num_joints, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert not np.signbit(got[:, 0]).any() and not got[:, 0].any()  # the root at +0.0


@pytest.mark.parametrize("frames", (1, 2, 400))
def test_dual_quaternions_match_the_chain(rng, frames):
    """The dualquat blocks built from the pose's one sweep against the
    sign-corrected dual-quaternion chain they replaced, within 1e-12 of
    max(1, the largest |position|)."""
    for n_joints in (1, 2, 5, 12, 30):
        skeleton = oracles.random_skeleton(rng, n_joints, end_sites=True)
        pose = oracles.random_poses(rng, skeleton, frames)
        chain = pose_oracles.current_chain(skeleton, quat.normalize(pose.joint_rotations))
        want = antipodal_correct(chain[:, list(skeleton.encoded_indices)])
        got = encode(pose, ReprKind.DUALQUAT).joint_blocks()
        assert got.shape == want.shape == (frames, skeleton.num_encoded, 8)
        scale = max(1.0, np.max(np.abs(pose.positions)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_chain_rejects_non_unit_local_rotations(rng):
    """The oracle chain keeps the unit check of the deleted path: a
    rotation of norm 1.5, at the root or at a child, raises."""
    skeleton = oracles.random_skeleton(rng, 3)
    pose = oracles.random_pose(rng, skeleton)
    for target in (0, 2):
        rotations = pose.joint_rotations.copy()
        rotations[target] *= 1.5
        with pytest.raises(NotUnitError):
            pose_oracles.current_chain(skeleton, rotations)


@pytest.mark.parametrize("kind", (ReprKind.POSITIONS, ReprKind.QUATERNIONS_POSITIONS,
                                  ReprKind.ORTHO6D_POSITIONS), ids=lambda k: k.value)
def test_stored_positions_are_the_positions(rng, kind):
    """The positions part of every kind that stores one is
    `pose.positions` at the encoded joints, bit for bit."""
    for frames in (1, 2, 400):
        skeleton = branching_skeleton(rng)
        pose = oracles.random_poses(rng, skeleton, frames)
        stored = encode(pose, kind).joint_blocks()[..., -3:]
        want = pose.positions[:, list(skeleton.encoded_indices)]
        assert stored.shape == want.shape and stored.tobytes() == want.tobytes()


def test_positions_scale_with_the_offsets(rng):
    """The positions check no dual quaternion, so offsets of 1e10, whose
    chain fails its orthogonality check, give the positions scaled."""
    skeleton = branching_skeleton(rng)
    pose = oracles.random_poses(rng, skeleton, 16)
    huge = Skeleton([dataclasses.replace(joint, offset=joint.offset * 1e10) for joint in skeleton.joints])
    scaled = LocalPose(huge, pose.root_translation, pose.joint_rotations).positions
    want = pose.positions * 1e10
    assert np.max(np.abs(scaled - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("frames", FRAME_COUNTS)
class TestHierarchy:
    def test_positions_match_matrix_fk(self, rng, frames):
        skeleton = branching_skeleton(rng)
        pose = oracles.random_poses(rng, skeleton, frames)
        want = pose_oracles.pose_positions(pose)
        assert_close(pose.positions, want)
        # rotations are normalized first, as matrix_fk does
        scale = rng.uniform(0.5, 2.0, size=(frames, skeleton.num_joints, 1))
        scaled = LocalPose(skeleton, pose.root_translation, pose.joint_rotations * scale)
        assert_close(scaled.positions, want)

    def test_current_to_local_matches_joint_loop(self, rng, frames):
        skeleton = branching_skeleton(rng)
        pose = oracles.random_poses(rng, skeleton, frames)
        chain = pose_oracles.current_chain(skeleton, pose.joint_rotations)
        want = np.stack([pose_oracles.current_to_local_dq(skeleton, frame) for frame in chain])
        assert_close(_from_rows(relative(skeleton.parent_indices, _to_rows(chain))), want)

    @pytest.mark.parametrize("kind", INVERTIBLE, ids=lambda k: k.value)
    def test_decode_matches_loop(self, rng, frames, kind):
        skeleton = branching_skeleton(rng)
        clip = encode(oracles.random_poses(rng, skeleton, frames), kind)
        got = decode(clip)
        want = pose_oracles.decode(clip)
        assert len(got) == len(want) == frames
        assert_close(got.joint_rotations, want.joint_rotations)
        assert_close(got.root_translation, want.root_translation, 0.0)


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


class TestSeedSigns:
    """`encoding._seed_signs` picks each block's first nonzero component at
    once; the loop oracle decides only the zero-led blocks one by one."""

    @pytest.mark.parametrize("shape", [(4,), (8,), (3, 4), (6, 8), (2, 3, 4), (5, 5, 8)])
    def test_matches_tie_loop(self, rng, shape):
        for _ in range(50):
            # mostly zeros, so that zero leads, long zero runs and all-zero
            # blocks are common; -0.0 and NaN stand in for some of them
            first = rng.choice([0.0, -0.0, 0.0, 0.0, 1.5, -2.0, np.nan], size=shape)
            first[rng.random(shape) < 0.1] = 0.0
            got, want = _seed_signs(first), pose_oracles.seed_signs(first)
            assert got.shape == want.shape == shape[:-1]
            assert np.array_equal(got, want)

    def test_cases(self):
        first = np.array([
            [0.0, 0.0, 0.0, 0.0],  # all zero: +1
            [-0.0, -0.0, 0.0, -0.0],  # -0.0 is zero: +1
            [0.0, -0.0, -3.0, 1.0],  # first nonzero negative: -1
            [-0.0, 0.0, 0.0, 2.0],  # first nonzero positive: +1
            [np.nan, 1.0, 0.0, 0.0],  # NaN is nonzero and not positive: -1
            [0.0, np.nan, 0.0, 0.0],
            [-1.0, 2.0, 0.0, 0.0],
        ])
        want = [1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0]
        assert np.array_equal(_seed_signs(first), want)
        assert np.array_equal(pose_oracles.seed_signs(first), want)


@pytest.mark.parametrize("frames", (1, 64))
@pytest.mark.parametrize("root_positions", (True, False), ids=("root-positions", "root-rotations"))
class TestClipConversion:
    """One gather and one Euler kernel call, bit for bit the per-joint loops."""

    def test_clip_to_local_matches_joint_loop(self, rng, frames, root_positions):
        skeleton = every_order_skeleton(rng, root_positions)
        orders = {"".join("XYZ"[axis] for axis in axes) for axes in skeleton.channel_table.rotations.axes}
        assert orders == set(oracles.ORDER_POOL)
        clip = MotionClip(skeleton, 1 / 30, near_pole_frames(rng, skeleton, frames))
        got, want = clip_to_local(clip), pose_oracles.clip_to_local(clip)
        assert_same_bits(got.joint_rotations, want.joint_rotations)
        assert_same_bits(got.root_translation, want.root_translation)

    def test_local_to_clip_matches_joint_loop(self, rng, frames, root_positions):
        skeleton = every_order_skeleton(rng, root_positions)
        clip = MotionClip(skeleton, 1 / 30, near_pole_frames(rng, skeleton, frames))
        for pose in (clip_to_local(clip), oracles.random_poses(rng, skeleton, frames)):
            got = local_to_clip(pose, skeleton, clip.frame_time)
            want = pose_oracles.local_to_clip(pose, skeleton, clip.frame_time)
            assert_same_bits(got.frames, want.frames)


class TestLocalPose:
    def test_frame_axis(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        pose = oracles.random_poses(rng, skeleton, 6)
        assert len(pose) == 6 and pose.batched

        frame = pose[2]
        assert not frame.batched
        assert frame.joint_rotations.shape == (skeleton.num_joints, 4)
        assert frame.root_translation.shape == (3,)
        assert np.array_equal(frame.joint_rotations, pose.joint_rotations[2])
        with pytest.raises(ShapeMismatchError):
            len(frame)
        with pytest.raises(ShapeMismatchError):
            frame[0]

        window = pose[1:4]
        assert window.batched and len(window) == 3
        assert np.array_equal(window.root_translation, pose.root_translation[1:4])

        frames = list(pose)
        assert len(frames) == 6 and not any(f.batched for f in frames)
        assert np.array_equal(np.stack([f.joint_rotations for f in frames]), pose.joint_rotations)

    def test_bad_shapes_rejected(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        with pytest.raises(ShapeMismatchError):
            LocalPose(skeleton, np.zeros(3), np.ones((5, 4)))
        with pytest.raises(ShapeMismatchError):
            LocalPose(skeleton, np.zeros((2, 3)), np.ones((3, 4, 4)))
        with pytest.raises(ShapeMismatchError):  # the root path is not one 3-vector per frame
            LocalPose(skeleton, np.zeros((3, 2)), np.ones((3, 4, 4)))

    def test_mixed_skeletons_rejected(self, rng):
        a = oracles.random_skeleton(rng, 4)
        b = oracles.random_skeleton(rng, 4)
        pose_a, pose_b = oracles.random_poses(rng, a, 3), oracles.random_poses(rng, b, 3)
        with pytest.raises(ShapeMismatchError):
            metric_report(pose_a, pose_b)
        with pytest.raises(ShapeMismatchError):
            local_to_clip(pose_b, a, 0.1)

    def test_no_frames_rejected(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        pose = oracles.random_poses(rng, skeleton, 8)
        with pytest.raises(TooFewFramesError):
            pose[5:2]
        with pytest.raises(TooFewFramesError):
            pose[np.array([], dtype=int)]
        with pytest.raises(TooFewFramesError):
            LocalPose(skeleton, np.zeros((0, 3)), np.zeros((0, skeleton.num_joints, 4)))

    @pytest.mark.parametrize("source", ("walk", "three-joint"))
    def test_single_frame_rejected_by_every_layer(self, rng, source):
        if source == "walk":
            pose = clip_to_local(bvh.parse_file(WALK))
            assert pose.skeleton.num_joints == 19
        else:
            pose = oracles.random_poses(rng, oracles.random_skeleton(rng, 3), 4)
        frame = pose[0]
        for kind in ReprKind:
            with pytest.raises(ShapeMismatchError):
                encode(frame, kind)
        with pytest.raises(ShapeMismatchError):
            local_to_clip(frame, pose.skeleton, 0.1)
        for pred, truth in ((frame, pose), (pose, frame), (frame, frame)):
            with pytest.raises(ShapeMismatchError):
                metric_report(pred, truth)
