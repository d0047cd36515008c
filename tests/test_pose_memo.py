"""The frozen LocalPose and its three memos: its checked unit rotation
rows (which the sweep and every encoding read), its one forward sweep
(the current rotation rows beside the root-centered positions, which the
metrics and the encodings read), and the blocks that `encode` shares
between kinds (the sign-corrected quaternions, the six-value blocks, the
joint positions and the dual quaternions, each a read-only view into the
features of a clip encoded from the pose).

A slice of a pose inherits the sweep as the same slice of it, so a
window of a pose that was scored in full runs no forward kinematics; it
inherits none of the shared blocks, since the sign correction seeds at
the window's own first frame. Every result must be
bit for bit that of a fresh pose built from copies, and an error must
come out of exactly the calls that raised it before the memo.
"""

import dataclasses

import numpy as np
import pytest

from dqmotion import dualquat, encoding, kinematics, quat
from dqmotion.bvh import MotionClip
from dqmotion.encoding import EncodedClip, NormalizationStats, ReprKind, encode, fit_stats
from dqmotion.errors import DegenerateNormError, InvalidValueError, NotUnitError, TooFewFramesError
from dqmotion.kinematics import LocalPose, clip_to_local, local_to_clip
from dqmotion.metrics import metric_report

import oracles

FRAMES = 160
INDICES = {
    "a:b": slice(40, 110),
    "::7": slice(None, None, 7),
    "150:10:-3": slice(150, 10, -3),
    "17:18": slice(17, 18),
    "int-array": np.array([3, 150, 3, 0, 99, 42]),
}


@pytest.fixture
def skeleton(rng):
    return oracles.random_skeleton(rng, 10, end_sites=True)


@pytest.fixture
def pose(rng, skeleton):
    return oracles.random_poses(rng, skeleton, FRAMES)


def fresh(pose: LocalPose, index) -> LocalPose:
    """The frames `index` of `pose` as a new pose built from copies."""
    return LocalPose(pose.skeleton, pose.root_translation[index].copy(),
                     pose.joint_rotations[index].copy())


def fill(pose: LocalPose):
    pose.positions
    for kind in ReprKind:
        encode(pose, kind)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# Per value type that stores arrays: one valid array for it, built from a
# pose, and the value's stored array when it is built from a given one.
VALUE_ARRAYS = {
    "LocalPose": (
        lambda pose: pose.joint_rotations,
        lambda pose, array: LocalPose(pose.skeleton, np.zeros((len(array), 3)), array).joint_rotations,
    ),
    "MotionClip": (
        lambda pose: local_to_clip(pose, pose.skeleton, 1 / 30).frames,
        lambda pose, array: MotionClip(pose.skeleton, 1 / 30, array).frames,
    ),
    "EncodedClip": (
        lambda pose: encode(pose, ReprKind.DUALQUAT).features,
        lambda pose, array: EncodedClip(ReprKind.DUALQUAT, pose.skeleton, 1 / 30, array).features,
    ),
    "NormalizationStats": (
        lambda pose: fit_stats(encode(pose, ReprKind.DUALQUAT)).std,
        lambda pose, array: NormalizationStats(np.zeros_like(array), array).std,
    ),
}


def no_sweep(*args):
    raise AssertionError("a hierarchy sweep ran")


class TestSlices:
    @pytest.mark.parametrize("filled", (False, True), ids=("empty", "filled"))
    @pytest.mark.parametrize("name", sorted(INDICES))
    def test_bit_identical_to_a_fresh_pose(self, pose, name, filled):
        if filled:
            fill(pose)
        index = INDICES[name]
        window, want = pose[index], fresh(pose, index)
        assert same_bits(window.joint_rotations, want.joint_rotations)
        assert same_bits(window.root_translation, want.root_translation)
        assert same_bits(window.positions, want.positions)
        for kind in ReprKind:
            assert same_bits(encode(window, kind).features, encode(want, kind).features), kind

    def test_single_frame_inherits(self, pose):
        fill(pose)
        frame = pose[17]
        assert not frame.batched
        assert same_bits(frame.positions, fresh(pose, 17).positions)
        assert same_bits(frame._sweep[0], fresh(pose, 17)._sweep[0])

    def test_filled_window_runs_no_fk(self, pose, monkeypatch):
        fill(pose)
        full = pose.positions, encode(pose, ReprKind.POSITIONS).features
        monkeypatch.setattr(kinematics, "compose", no_sweep)
        assert pose.positions is full[0]
        window = pose[30:60]
        assert same_bits(window.positions, full[0][30:60])
        assert same_bits(encode(window, ReprKind.POSITIONS).features, full[1][30:60])
        assert same_bits(pose[::7][2:5].positions, full[0][14:35:7])
        # an unfilled pose still needs the sweep
        with pytest.raises(AssertionError):
            fresh(pose, slice(30, 60)).positions

    @pytest.mark.parametrize("index", (slice(7, 7), slice(50, 10), slice(FRAMES, None)),
                             ids=("a:a", "b:a", "past the end"))
    def test_an_empty_slice_raises(self, pose, index):
        fill(pose)
        with pytest.raises(TooFewFramesError, match="need at least one frame"):
            pose[index]

    def test_arrays_are_read_only_views_of_the_pose(self, pose):
        fill(pose)
        for window in (pose[10:20], pose[::7], pose[150:10:-3], pose[10:20][2:5]):
            assert window.skeleton is pose.skeleton
            for name in ("joint_rotations", "root_translation", "positions", "rotation rows"):
                array, whole = ((window._sweep[0], pose._sweep[0]) if name == "rotation rows"
                                else (getattr(window, name), getattr(pose, name)))
                assert not array.flags.writeable, name
                assert array.base is not None and np.shares_memory(array, whole), name

    def test_only_a_slice_skips_the_checks(self, pose, monkeypatch):
        checks = counting(monkeypatch, LocalPose, "__post_init__")
        pose[10:20], pose[::3][1:4]
        assert checks == []
        pose[5], pose[[1, 2]], pose[np.array([3, 4])]
        assert len(checks) == 3
        with pytest.raises(TooFewFramesError):
            pose[4:4]
        assert len(checks) == 4


KIND_CYCLE = tuple(ReprKind)
#: Each rotation of the kind cycle and of its reverse: every kind comes
#: first once in each direction.
KIND_ORDERS = [cycle[n:] + cycle[:n] for cycle in (KIND_CYCLE, KIND_CYCLE[::-1])
               for n in range(len(KIND_CYCLE))]


def counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSharedParts:
    @pytest.mark.parametrize("order", KIND_ORDERS,
                             ids=["-".join(kind.name.lower() for kind in order) for order in KIND_ORDERS])
    def test_every_order_matches_each_kind_alone(self, pose, order):
        subject = fresh(pose, slice(None))
        clips = [encode(subject, kind) for kind in order]
        for kind, clip in zip(order, clips):
            alone = encode(fresh(pose, slice(None)), kind)
            assert same_bits(clip.features, alone.features), kind

    def test_six_encodes_build_each_part_once(self, pose, monkeypatch):
        built = []
        for name, (width, build) in encoding._PARTS.items():
            def counted(*args, name=name, build=build):
                built.append(name)
                return build(*args)
            monkeypatch.setitem(encoding._PARTS, name, (width, counted))
        blocks = counting(monkeypatch, dualquat, "_from_rotation_translation_rows")
        ortho6d = counting(monkeypatch, encoding, "_ortho6d_of_quats")
        corrected = counting(monkeypatch, encoding, "antipodal_correct")
        for kind in ReprKind:
            encode(pose, kind)
        assert sorted(built) == sorted(encoding._PARTS)
        assert (len(blocks), len(ortho6d), len(corrected)) == (1, 1, 2)

    def test_six_encodes_normalize_once(self, pose, monkeypatch):
        # every encoding and the sweep read the pose's one set of unit rows
        unit_rows = counting(monkeypatch, kinematics, "_unit_rows")
        normalized = counting(monkeypatch, quat, "normalize")
        for kind in ReprKind:
            encode(pose, kind)
        pose.positions
        assert (len(unit_rows), len(normalized)) == (1, 0)

    @pytest.mark.parametrize("order", [
        (ReprKind.QUATERNIONS, ReprKind.ORTHO6D, ReprKind.ORTHO6D_POSITIONS),
        (ReprKind.ORTHO6D_POSITIONS, ReprKind.ORTHO6D, ReprKind.QUATERNIONS),
    ], ids=("quaternions-first", "quaternions-last"))
    def test_six_value_blocks_match_a_fresh_pose(self, pose, order):
        clips = {kind: encode(pose, kind) for kind in order}
        kept = pose._encoded_parts["quaternions"]
        normalized = pose._rotation_rows.take(list(pose.skeleton.encoded_indices), axis=1).T
        # the sign correction flipped some blocks; the six-value blocks read
        # the unflipped rows, and a flip leaves every entry's terms as they are
        assert np.any(kept != normalized)
        for kind in (ReprKind.ORTHO6D, ReprKind.ORTHO6D_POSITIONS):
            alone = encode(fresh(pose, slice(None)), kind)
            assert clips[kind].features.tobytes() == alone.features.tobytes(), kind

    def test_kept_parts_view_encoded_features(self, pose):
        clips = [encode(pose, kind) for kind in ReprKind]
        parts = pose._encoded_parts
        assert sorted(parts) == ["dualquat", "ortho6d", "positions", "quaternions"]
        for part in parts.values():
            assert not part.flags.writeable
            assert any(np.shares_memory(part, clip.features) for clip in clips)

    def test_slices_take_no_parts(self, pose):
        fill(pose)
        assert pose._encoded_parts
        assert not pose[10:20]._encoded_parts
        assert not pose[::3]._encoded_parts

    def test_window_seeds_its_own_signs(self, pose):
        # One encoded joint turns steadily about z through 1.5 turns, so its
        # sign-corrected quaternion keeps w >= 0 only while the angle is
        # under pi: at frame 100 the full clip holds w < 0, which a window
        # starting there flips back to w > 0.
        joint = pose.skeleton.encoded_indices[1]
        angles = np.linspace(0.0, 3.0 * np.pi, FRAMES)
        rotations = pose.joint_rotations.copy()
        rotations[:, joint] = np.stack(
            [np.cos(angles / 2), np.zeros(FRAMES), np.zeros(FRAMES), np.sin(angles / 2)], axis=-1)
        turning = LocalPose(pose.skeleton, pose.root_translation, rotations)
        fill(turning)
        for kind in (ReprKind.QUATERNIONS, ReprKind.QUATERNIONS_POSITIONS):
            full = encode(turning, kind).joint_blocks()[100, 1, :4]
            window = encode(turning[100:], kind)
            assert full[0] < 0.0 and same_bits(window.joint_blocks()[0, 1, :4], -full)
            assert same_bits(window.features, encode(fresh(turning, slice(100, None)), kind).features)


class TestOneSweepEach:
    def test_every_layer_on_a_fresh_pose_runs_one_sweep(self, pose, monkeypatch):
        sweeps = counting(monkeypatch, kinematics, "compose")
        for kind in ReprKind:
            encode(pose, kind)
        metric_report(pose, pose)
        assert len(sweeps) == 1  # the positions and the current rotations
        window = pose[30:60]
        for kind in ReprKind:
            encode(window, kind)
        metric_report(window, window)
        assert len(sweeps) == 1

    def test_a_dual_quaternion_encode_runs_one_sweep(self, pose, monkeypatch):
        sweeps = counting(monkeypatch, kinematics, "compose")
        encode(pose, ReprKind.DUALQUAT)
        assert len(sweeps) == 1
        encode(pose[10:20], ReprKind.DUALQUAT)
        pose.positions
        assert len(sweeps) == 1


class TestErrorsAreNotMemoized:
    """A zero (or NaN) quaternion at frame 100: only the calls that see it
    raise."""

    @staticmethod
    def broken(pose: LocalPose, value: float = 0.0) -> LocalPose:
        rotations = pose.joint_rotations.copy()
        rotations[100, 1] = value
        return LocalPose(pose.skeleton, pose.root_translation, rotations)

    def test_degenerate_norm(self, pose):
        broken = self.broken(pose)
        for _ in range(2):
            with pytest.raises(DegenerateNormError):
                metric_report(broken, pose)
        assert "_rotation_rows" not in vars(broken)
        assert metric_report(broken[0:30], pose[0:30]) == metric_report(
            fresh(broken, slice(0, 30)), fresh(pose, slice(0, 30))
        )
        with pytest.raises(DegenerateNormError):
            metric_report(broken[90:120], pose[90:120])

    def test_not_unit(self, pose):
        broken = self.broken(pose, np.nan)
        for _ in range(2):
            with pytest.raises(NotUnitError):
                encode(broken, ReprKind.DUALQUAT)
        assert "_rotation_rows" not in vars(broken)
        got = encode(broken[0:30], ReprKind.DUALQUAT).features
        assert same_bits(got, encode(fresh(broken, slice(0, 30)), ReprKind.DUALQUAT).features)
        with pytest.raises(NotUnitError):
            encode(broken[90:120], ReprKind.DUALQUAT)

    def test_error_class_per_kind(self, pose):
        # Every kind reads the pose's checked rotations, so every encode
        # raises what the positions raise, and keeps none of them.
        broken = self.broken(pose)
        with pytest.raises(DegenerateNormError) as positions:
            broken.positions
        for kind in ReprKind:
            for _ in range(2):
                with pytest.raises(DegenerateNormError) as raised:
                    encode(broken, kind)
                assert str(raised.value) == str(positions.value), kind
        assert "_rotation_rows" not in vars(broken) and not broken._encoded_parts

    def test_not_unit_with_the_quaternions_shared(self, pose):
        # A rotation of norm 2 normalizes for every kind, with the bits of
        # the unit rotation: halving is exact.
        rotations = pose.joint_rotations.copy()
        rotations[100, pose.skeleton.encoded_indices[1]] *= 2.0
        stretched = LocalPose(pose.skeleton, pose.root_translation, rotations)
        encode(stretched, ReprKind.QUATERNIONS)
        for kind in ReprKind:
            for _ in range(2):
                assert same_bits(encode(stretched, kind).features, encode(pose, kind).features), kind
        assert sorted(stretched._encoded_parts) == ["dualquat", "ortho6d", "positions", "quaternions"]

    def test_a_rejected_clip_keeps_nothing(self, pose):
        for kind in ReprKind:
            with pytest.raises(InvalidValueError):
                encode(pose, kind, frame_time=0.0)
        assert not pose._encoded_parts


class TestFrozen:
    def test_arrays_are_read_only(self, pose):
        fill(pose)
        for array in (pose.joint_rotations, pose.root_translation, pose.positions, pose._rotation_rows,
                      pose._sweep[0], pose[5:9]._sweep[0], pose[[1, 2]].positions):
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(ValueError):
            pose.root_translation += 1.0
        with pytest.raises(ValueError):
            pose.joint_rotations *= 2.0

    def test_fields_cannot_be_reassigned(self, pose):
        for field in ("skeleton", "root_translation", "joint_rotations", "_rotation_rows", "_sweep",
                      "positions"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pose, field, None)

    def test_memo_is_not_a_constructor_argument(self, pose):
        names = {f.name for f in dataclasses.fields(LocalPose) if f.init}
        assert names == {"skeleton", "root_translation", "joint_rotations"}

    def test_caller_arrays_are_copied(self, rng, skeleton):
        rotations = oracles.random_unit_quat(rng, (8, skeleton.num_joints))
        root = rng.normal(size=(8, 3))
        pose = LocalPose(skeleton, root, rotations)
        kept = pose.joint_rotations.copy(), pose.root_translation.copy()
        assert rotations.flags.writeable and root.flags.writeable
        assert not np.shares_memory(pose.joint_rotations, rotations)
        assert not np.shares_memory(pose.root_translation, root)
        rotations[:] = 0.0
        root[:] = 0.0
        assert same_bits(pose.joint_rotations, kept[0])
        assert same_bits(pose.root_translation, kept[1])

    def test_slices_view_the_pose(self, pose):
        window = pose[10:20]
        assert np.shares_memory(window.joint_rotations, pose.joint_rotations)
        assert np.shares_memory(window.root_translation, pose.root_translation)

    @pytest.mark.parametrize("value", VALUE_ARRAYS)
    def test_read_only_views_of_writable_arrays_are_copied(self, pose, value):
        source, stored = VALUE_ARRAYS[value]
        writable = source(pose).copy()
        view = writable[:]
        view.setflags(write=False)
        kept = stored(pose, view)
        assert not np.shares_memory(kept, writable)
        before = kept.tobytes()
        writable[:] = 0.0
        assert kept.tobytes() == before

    @pytest.mark.parametrize("value", VALUE_ARRAYS)
    def test_read_only_arrays_are_not_copied(self, pose, value):
        source, stored = VALUE_ARRAYS[value]
        array = source(pose)
        assert not array.flags.writeable
        assert np.shares_memory(stored(pose, array), array)
        assert np.shares_memory(stored(pose, array[10:20]), array)


class TestPoseUnchangedByEveryLayer:
    def test_rotations_byte_identical(self, skeleton, pose):
        for subject in (pose, clip_to_local(local_to_clip(pose, skeleton, 1 / 30))):
            before = subject.joint_rotations.tobytes(), subject.root_translation.tobytes()
            for kind in ReprKind:
                encode(subject, kind)
                encode(subject[::3], kind)
            metric_report(subject, subject[::-1])
            metric_report(subject[5:40], subject[40:75])
            local_to_clip(subject, skeleton, 1 / 30)
            assert (subject.joint_rotations.tobytes(), subject.root_translation.tobytes()) == before
