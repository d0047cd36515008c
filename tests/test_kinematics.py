"""Kinematics: the current dual quaternions that the dualquat encode
builds from the pose's one sweep, and the positions, against the matrix
oracle, both against an independent homogeneous-matrix implementation,
their inverses (`decode` of a dualquat clip, and `relative` for the
per-joint local transforms), and the errors that the positions and every
encode raise on a bad rotation."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmotion import bvh, dualquat, quat
from dqmotion.bvh import Skeleton
from dqmotion.encoding import ReprKind, decode, encode
from dqmotion.errors import DegenerateNormError, MotionError, NonFiniteError, NotUnitError
from dqmotion.kinematics import LocalPose, _from_rows, _to_rows, clip_to_local, local_to_clip, relative
from dqmotion.metrics import metric_report

import oracles
import pose_oracles
from pose_oracles import matrix_fk
from test_pose_oracles import every_order_skeleton


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


def current_dq(pose):
    """(J', 8) current dual quaternions of a single-frame pose at its
    encoded joints: the blocks of its dualquat encode."""
    return encode(oracles.repeated(pose), ReprKind.DUALQUAT).joint_blocks()[0]


def local_dq(pose):
    """Each joint's parent-relative dual quaternion, end sites included,
    recovered by `relative` from the current chain of the oracle."""
    chain = pose_oracles.current_chain(pose.skeleton, pose.joint_rotations)
    return _from_rows(relative(pose.skeleton.parent_indices, _to_rows(chain)))


def cumulative_offsets(skeleton):
    out = np.zeros((skeleton.num_joints, 3))
    for idx, joint in enumerate(skeleton.joints):
        if joint.parent is not None:
            out[idx] = out[joint.parent] + joint.offset
    return out


class TestLocalToCurrent:
    def test_identity_rotations_accumulate_offsets(self, rng):
        skeleton = oracles.random_skeleton(rng, 8, end_sites=True)
        pose = identity_pose(skeleton)
        blocks = current_dq(pose)
        expected = cumulative_offsets(skeleton)
        for row, idx in enumerate(skeleton.encoded_indices):
            assert np.allclose(dualquat.translation(blocks[row]), expected[idx], atol=1e-12)
        for idx in range(skeleton.num_joints):
            assert np.allclose(pose.positions[idx], expected[idx], atol=1e-12)

    def test_half_turn_root_flips_child(self):
        skeleton = chain_skeleton([[1.0, 0.0, 0.0]])
        rotations = np.array([quat.from_euler([0, 0, np.pi], "ZYX"), quat.identity()])
        blocks = current_dq(LocalPose(skeleton, np.zeros(3), rotations))
        assert np.allclose(dualquat.translation(blocks[1]), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_root_entry_is_pure_rotation(self, rng):
        skeleton = oracles.random_skeleton(rng, 6)
        blocks = current_dq(oracles.random_pose(rng, skeleton))
        assert np.allclose(blocks[0, 4:], 0.0)
        assert np.allclose(blocks[0, :4], quat.normalize(blocks[0, :4]))

    def test_matches_matrix_fk(self, rng):
        for _ in range(300):
            skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 21)), end_sites=True)
            pose = oracles.random_pose(rng, skeleton)
            _, positions = matrix_fk(pose)
            got = dualquat.translation(current_dq(pose))
            assert np.max(np.abs(got - positions[list(skeleton.encoded_indices)])) < 1e-9
            assert np.max(np.abs(pose.positions - positions)) < 1e-9

    def test_entries_unit(self, rng):
        skeleton = oracles.random_skeleton(rng, 15, end_sites=True)
        pose = oracles.random_pose(rng, skeleton)
        for blocks in (current_dq(pose), pose_oracles.current_chain(skeleton, pose.joint_rotations)):
            norm_res, ortho_res = dualquat.unitary_residual(blocks)
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
            back = decode(encode(oracles.repeated(pose), ReprKind.DUALQUAT))[0]
            for idx in range(skeleton.num_joints):
                a, b = pose.joint_rotations[idx], back.joint_rotations[idx]
                assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-9
            assert np.allclose(back.root_translation, pose.root_translation)

    def test_root_maps_to_itself(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        pose = oracles.random_pose(rng, skeleton)
        chain = pose_oracles.current_chain(skeleton, pose.joint_rotations)
        assert np.allclose(local_dq(pose)[0], chain[0])

    def test_offsets_recovered(self, rng):
        for _ in range(100):
            skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 12)), end_sites=True)
            local = local_dq(oracles.random_pose(rng, skeleton))
            for idx, joint in enumerate(skeleton.joints):
                if joint.parent is not None:
                    extracted = dualquat.translation(local[idx])
                    assert np.max(np.abs(extracted - joint.offset)) < 1e-9

    def test_non_unit_local_rotations_are_normalized(self, rng):
        """The encode normalizes the rotations first, as the positions do."""
        skeleton = oracles.random_skeleton(rng, 3)
        pose = oracles.random_pose(rng, skeleton)
        for target in (0, 2):  # root and a child propagate the same way
            rotations = pose.joint_rotations.copy()
            rotations[target] *= 1.5
            got = current_dq(LocalPose(skeleton, pose.root_translation, rotations))
            assert np.max(np.abs(got - current_dq(pose))) < 1e-12


class TestErrorLocalization:
    def test_perturbation_stays_in_subtree(self, rng):
        skeleton = oracles.random_skeleton(rng, 12, end_sites=True)
        pose = oracles.random_pose(rng, skeleton)
        encoded = list(skeleton.encoded_indices)

        def current(pose):
            """Each joint's current dual quaternion where it is encoded, its
            position (with its parent's rotation) at an end site."""
            out = np.zeros((skeleton.num_joints, 8))
            out[:, 5:] = pose.positions
            out[encoded] = current_dq(pose)
            return out

        base = current(pose)

        target = 4
        perturbed_rotations = pose.joint_rotations.copy()
        perturbed_rotations[target] = oracles.random_unit_quat(rng)
        perturbed = current(LocalPose(skeleton, pose.root_translation, perturbed_rotations))

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
        poses = oracles.repeated(identity_pose(clip.skeleton))
        out = local_to_clip(poses, clip.skeleton, clip.frame_time)
        assert np.allclose(out.frames, 0.0)

    def test_frame_count_preserved(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
        poses = clip_to_local(clip)
        out = local_to_clip(poses, clip.skeleton, clip.frame_time)
        assert out.num_frames == clip.num_frames

    def test_just_off_the_pole_in_every_order(self, rng):
        """Middle angles 1e-13 and 1e-6 rad from +-90 degrees, in joints of
        all six orders converted by one call of the Euler kernel, keep their
        value and turn back into +-q within 1e-12."""
        skeleton = every_order_skeleton(rng, root_positions=True)
        rotations = np.zeros((80, skeleton.num_joints, 4))
        rotations[..., 0] = 1.0
        middles, column = {}, 0
        for joint, spec in enumerate(skeleton.joints):
            if spec.rotation_order:
                angles = rng.uniform(-np.pi, np.pi, size=(80, 3))
                middle = "XYZ".index(spec.rotation_order[1])
                angles[:, middle] = rng.choice([-1.0, 1.0], 80) * (np.pi / 2.0 - np.repeat([1e-13, 1e-6], 40))
                rotations[:, joint] = quat.from_euler(angles, spec.rotation_order)
                middles[joint] = column + spec.channels.index(spec.rotation_order[1] + "rotation")
            column += len(spec.channels)
        clip = local_to_clip(LocalPose(skeleton, np.zeros((80, 3)), rotations), skeleton, 0.1)
        assert np.all(np.abs(clip.frames[:, list(middles.values())]) != 90.0)
        back = clip_to_local(clip).joint_rotations
        for joint in middles:
            q = rotations[:, joint]
            assert np.all(np.minimum(np.abs(back[:, joint] - q).max(-1),
                                     np.abs(back[:, joint] + q).max(-1)) <= 1e-12)

    def test_reencoded_quaternions_match(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "gimbal_lock.bvh")
        poses = clip_to_local(clip)
        back = clip_to_local(local_to_clip(poses, clip.skeleton, clip.frame_time))
        for before, after in zip(poses, back):
            for a, b in zip(before.joint_rotations, after.joint_rotations):
                assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-6


#: A bad rotation, set in all four components, and what `positions`,
#: `metric_report` and every encode raise on it: the classes and messages
#: of the dual-quaternion chain that the rotation sweep replaced.
BAD_ROTATIONS = {
    "zero": (0.0, DegenerateNormError, "quaternion norm <= 1e-12"),
    "1e200": (1e200, NonFiniteError, "a norm overflows: values too large for float64"),
    "NaN": (np.nan, NotUnitError, "translation requires a unit dual quaternion (tol 1e-06)"),
}


@pytest.mark.parametrize("name", BAD_ROTATIONS)
@pytest.mark.parametrize("where", ("root", "inner", "end site"))
def test_positions_raise_what_the_chain_raised(rng, name, where):
    """Every encode raises what the positions raise, wherever the bad
    rotation sits: each reads the pose's one checked set of rotations."""
    skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
    pose = oracles.random_poses(rng, skeleton, 5)
    joint = {"root": 0, "inner": skeleton.parent_indices[-1], "end site": skeleton.num_joints - 1}[where]
    value, error, message = BAD_ROTATIONS[name]
    rotations = pose.joint_rotations.copy()
    rotations[3, joint] = value
    bad = LocalPose(skeleton, pose.root_translation, rotations)
    calls = [lambda: bad.positions, lambda: metric_report(bad, pose), lambda: metric_report(pose, bad)]
    calls += [lambda kind=kind: encode(bad, kind) for kind in ReprKind]
    for call in calls + calls:  # nothing raised is kept
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    assert "_sweep" not in vars(bad) and "_rotation_rows" not in vars(bad)
    assert not bad._encoded_parts


@pytest.mark.parametrize("present", (("zero", "1e200", "NaN"), ("NaN", "zero"), ("NaN",)), ids=str)
def test_positions_raise_in_error_order(rng, present):
    """With several bad rotations in one pose, `positions` and every
    encode raise the first class of NonFiniteError, DegenerateNormError
    and NotUnitError, wherever the rotations sit."""
    skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
    pose = oracles.random_poses(rng, skeleton, 5)
    rotations = pose.joint_rotations.copy()
    for frame, name in enumerate(present):
        rotations[frame, skeleton.num_joints - 1 - frame] = BAD_ROTATIONS[name][0]
    first = min(present, key=["1e200", "zero", "NaN"].index)
    _, error, message = BAD_ROTATIONS[first]
    bad = LocalPose(skeleton, pose.root_translation, rotations)
    calls = [lambda: bad.positions] + [lambda kind=kind: encode(bad, kind) for kind in ReprKind]
    for call in calls:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


#: Values a bad rotation takes, in all four components or in one.
BAD_COMPONENTS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-13, 1e160, 1e200, 5e-324)


@st.composite
def bad_poses(draw) -> LocalPose:
    """A random tree of 1-8 joints, with or without end sites, over 1-5
    frames, with one or two rotations made bad, whole or in a single
    component, at any joint: the root, an inner joint or an end site."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skeleton = oracles.random_skeleton(rng, draw(st.integers(1, 8)), end_sites=draw(st.booleans()))
    pose = oracles.random_poses(rng, skeleton, draw(st.integers(1, 5)))
    rotations = pose.joint_rotations.copy()
    for _ in range(draw(st.integers(1, 2))):
        frame = draw(st.integers(0, len(pose) - 1))
        joint = draw(st.integers(0, skeleton.num_joints - 1))
        components = draw(st.sampled_from((slice(None), 0, 1, 2, 3)))
        rotations[frame, joint, components] = draw(st.sampled_from(BAD_COMPONENTS))
    return LocalPose(skeleton, pose.root_translation, rotations)


def outcome(call) -> tuple | None:
    """The class and message of what `call` raises, None if nothing."""
    try:
        call()
    except MotionError as error:
        return type(error), str(error)
    return None


@settings(max_examples=200, deadline=None)
@given(pose=bad_poses())
def test_one_rule_for_the_positions_and_every_encode(pose):
    """`positions` and the encodes under all six kinds give one outcome:
    the same class and message, or no raise, wherever the bad rotation
    sits. A raise keeps nothing, so each call raises again."""
    calls = [lambda: pose.positions] + [lambda kind=kind: encode(pose, kind) for kind in ReprKind]
    outcomes = {outcome(call) for call in calls + calls}
    assert len(outcomes) == 1, outcomes
    if outcomes != {None}:
        assert "_rotation_rows" not in vars(pose) and "_sweep" not in vars(pose)
        assert not pose._encoded_parts


def test_huge_offsets_encode_under_every_kind(fixtures_dir):
    """Humanoid offsets x 1e10, whose dual-quaternion chain failed its
    orthogonality check, encode under every kind; the stored positions
    are the positions' bits."""
    pose = clip_to_local(bvh.parse_file(fixtures_dir / "humanoid.bvh"))
    huge = Skeleton([dataclasses.replace(joint, offset=joint.offset * 1e10)
                     for joint in pose.skeleton.joints])
    scaled = LocalPose(huge, pose.root_translation, pose.joint_rotations)
    chain = pose_oracles.current_chain(huge, quat.normalize(pose.joint_rotations))
    with pytest.raises(NotUnitError):
        dualquat.translation(chain)
    want = scaled.positions[:, list(huge.encoded_indices)]
    for kind in ReprKind:
        blocks = encode(scaled, kind).joint_blocks()
        if kind in (ReprKind.POSITIONS, ReprKind.QUATERNIONS_POSITIONS, ReprKind.ORTHO6D_POSITIONS):
            assert blocks[..., -3:].tobytes() == want.tobytes(), kind
