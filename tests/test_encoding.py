"""Feature encodings: layout, antipodal correction, round trips, container."""

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from dqmotion import bvh, container, dualquat
from dqmotion.encoding import (
    _KIND_PARTS,
    _PARTS,
    EncodedClip,
    NormalizationStats,
    ReprKind,
    antipodal_correct,
    decode,
    destandardize,
    encode,
    fit_stats,
    standardize,
)
from dqmotion.errors import (
    ContainerError,
    NonFiniteError,
    NotInvertibleError,
    ShapeMismatchError,
    TooFewFramesError,
)
from dqmotion.kinematics import LocalPose, clip_to_local
from dqmotion.losses import _POSITION_COLUMNS

import algebra_oracles
import oracles
from conftest import fixture_corpus
from pose_oracles import matrix_fk

ALL_KINDS = list(ReprKind)
INVERTIBLE = [k for k in ALL_KINDS if k is not ReprKind.POSITIONS]


def identity_pose(skeleton):
    rotations = np.zeros((skeleton.num_joints, 4))
    rotations[:, 0] = 1.0
    return LocalPose(skeleton, np.zeros(3), rotations)


class TestWidthContract:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_width(self, rng, kind):
        for _ in range(10):
            skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 12)), end_sites=True)
            clip = encode(oracles.random_poses(rng, skeleton, 3), kind)
            assert clip.width == 3 + kind.block_dim * skeleton.num_encoded
            assert clip.joint_count == skeleton.num_encoded

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_parts_tile_the_block(self, kind):
        """`_KIND_PARTS` is the one definition of a block: its parts cover
        [0, block_dim) with no gap or overlap, the rotation part starts at
        column 0, and stored positions are the last three columns."""
        parts = _KIND_PARTS[kind]
        spans = sorted((start, start + _PARTS[name][0]) for name, start in parts.items())
        assert spans and spans[0][0] == 0 and spans[-1][1] == kind.block_dim
        assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))
        rotation = [name for name in parts if name != "positions"]
        assert len(rotation) == kind.has_rotations and all(parts[name] == 0 for name in rotation)
        if "positions" in parts:
            columns = range(kind.block_dim)[_POSITION_COLUMNS]
            assert columns == range(parts["positions"], parts["positions"] + 3)

    def test_kind_properties_read_the_parts(self):
        assert {k for k in ALL_KINDS if k.has_positions} == {
            ReprKind.POSITIONS, ReprKind.QUATERNIONS_POSITIONS, ReprKind.DUALQUAT,
            ReprKind.ORTHO6D_POSITIONS}
        assert {k for k in ALL_KINDS if k.sign_sensitive} == {
            ReprKind.QUATERNIONS, ReprKind.QUATERNIONS_POSITIONS, ReprKind.DUALQUAT}
        assert [k.block_dim for k in ALL_KINDS] == [3, 4, 6, 7, 8, 9]

    def test_no_frames_rejected(self, rng):
        pose = oracles.random_poses(rng, oracles.random_skeleton(rng, 3), 2)
        clip = encode(pose, ReprKind.DUALQUAT)
        with pytest.raises(TooFewFramesError):
            EncodedClip(clip.kind, clip.skeleton, clip.frame_time, clip.features[:0])


class TestDualquatBlocks:
    def test_identity_pose_blocks(self, rng):
        skeleton = oracles.random_skeleton(rng, 6)
        clip = encode(oracles.repeated(identity_pose(skeleton)), ReprKind.DUALQUAT)
        blocks = clip.joint_blocks()[0]
        assert np.allclose(blocks[0], [1, 0, 0, 0, 0, 0, 0, 0])
        # With identity rotations the dual part is half the cumulative offset.
        cumulative = np.zeros((skeleton.num_joints, 3))
        for idx, joint in enumerate(skeleton.joints):
            if joint.parent is not None:
                cumulative[idx] = cumulative[joint.parent] + joint.offset
        for row, joint_idx in enumerate(skeleton.encoded_indices):
            expected = np.concatenate([[1, 0, 0, 0, 0], cumulative[joint_idx] / 2.0])
            assert np.allclose(blocks[row], expected, atol=1e-12)

    def test_blocks_unit_and_continuous(self, rng):
        skeleton = oracles.random_skeleton(rng, 10, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 20), ReprKind.DUALQUAT)
        blocks = clip.joint_blocks()
        norm_res, ortho_res = dualquat.unitary_residual(blocks)
        assert np.max(np.abs(norm_res)) < 1e-9
        assert np.max(np.abs(ortho_res)) < 1e-9
        dots = np.sum(blocks[:-1] * blocks[1:], axis=-1)
        assert np.min(dots) >= 0.0

    def test_root_block_zero_dual(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        clip = encode(oracles.random_poses(rng, skeleton, 8), ReprKind.DUALQUAT)
        assert np.allclose(clip.joint_blocks()[:, 0, 4:], 0.0)


class TestOtherKinds:
    def test_identity_pose_ortho6d(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.repeated(identity_pose(skeleton)), ReprKind.ORTHO6D)
        assert np.allclose(clip.joint_blocks()[0], [1, 0, 0, 0, 1, 0])

    def test_positions_match_matrix_fk(self, rng):
        skeleton = oracles.random_skeleton(rng, 9, end_sites=True)
        poses = oracles.random_poses(rng, skeleton, 5)
        clip = encode(poses, ReprKind.POSITIONS)
        for f, pose in enumerate(poses):
            _, positions = matrix_fk(pose)
            expected = positions[list(skeleton.encoded_indices)]
            assert np.max(np.abs(clip.joint_blocks()[f] - expected)) < 1e-9

    def test_hybrid_positions_equal_dualquat_translations(self, rng):
        skeleton = oracles.random_skeleton(rng, 7, end_sites=True)
        poses = oracles.random_poses(rng, skeleton, 6)
        dq = encode(poses, ReprKind.DUALQUAT)
        # Sign correction never moves a block off its rigid transform, so the
        # translations of the corrected blocks are the shared positions.
        translations = dualquat.translation(dq.joint_blocks())
        for kind, start in ((ReprKind.QUATERNIONS_POSITIONS, 4), (ReprKind.ORTHO6D_POSITIONS, 6)):
            hybrid = encode(poses, kind)
            assert np.max(np.abs(hybrid.joint_blocks()[..., start : start + 3] - translations)) < 1e-12

    def test_root_translation_columns(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        poses = oracles.random_poses(rng, skeleton, 5)
        clip = encode(poses, ReprKind.QUATERNIONS)
        assert np.allclose(clip.root_translation, [p.root_translation for p in poses])


class TestAntipodalCorrect:
    def test_flip_removed(self, rng):
        q = oracles.random_unit_quat(rng)
        if q[0] < 0:
            q = -q
        series = np.stack([q, -q, q])
        assert np.allclose(antipodal_correct(series), np.stack([q, q, q]))

    def test_already_continuous_unchanged(self, rng):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 12), ReprKind.DUALQUAT)
        blocks = clip.joint_blocks()
        assert np.array_equal(antipodal_correct(blocks), blocks)

    def test_injected_flips_removed_transforms_unchanged(self, rng):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 30), ReprKind.DUALQUAT)
        blocks = clip.joint_blocks().copy()
        flips = rng.choice(30, size=6, replace=False)
        for f in flips:
            blocks[f] = -blocks[f]
        corrected = antipodal_correct(blocks)
        dots = np.sum(corrected[:-1] * corrected[1:], axis=-1)
        assert np.min(dots) >= 0.0
        points = rng.uniform(-4, 4, size=(100, 3))
        for f in range(30):
            for j in range(blocks.shape[1]):
                before = dualquat.transform_point(blocks[f, j], points)
                after = dualquat.transform_point(corrected[f, j], points)
                assert np.max(np.abs(before - after)) < 1e-12

    def test_seed_rule_makes_leading_component_nonnegative(self, rng):
        q = oracles.random_unit_quat(rng, (5,))
        q[:, 0] = np.abs(q[:, 0])
        series = np.stack([-q, q])  # frame 0 deliberately flipped
        corrected = antipodal_correct(series)
        assert np.all(corrected[0, :, 0] >= 0)

    def test_zero_leading_tiebreak(self):
        block = np.array([[0.0, -1.0, 0.0, 0.0]])
        corrected = antipodal_correct(block[None])
        assert np.allclose(corrected[0], [[0.0, 1.0, 0.0, 0.0]])

    def test_zero_frames(self):
        with pytest.raises(TooFewFramesError, match="^antipodal correction needs at least one frame$"):
            antipodal_correct(np.zeros((0, 3, 8)))


class TestDecode:
    @pytest.mark.parametrize("kind", INVERTIBLE, ids=lambda k: k.value)
    def test_round_trip(self, rng, kind):
        skeleton = oracles.random_skeleton(rng, 8, end_sites=True)
        poses = oracles.random_poses(rng, skeleton, 10)
        decoded = decode(encode(poses, kind))
        for before, after in zip(poses, decoded):
            assert np.allclose(after.root_translation, before.root_translation)
            for a, b in zip(before.joint_rotations, after.joint_rotations):
                assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-6

    def test_positions_not_invertible(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.POSITIONS)
        with pytest.raises(NotInvertibleError):
            decode(clip)

    def test_noisy_ortho6d_decodes_orthonormal(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        clip = encode(oracles.random_poses(rng, skeleton, 4), ReprKind.ORTHO6D)
        noisy = EncodedClip(
            kind=clip.kind,
            skeleton=clip.skeleton,
            frame_time=clip.frame_time,
            features=clip.features + rng.normal(scale=1e-3, size=clip.features.shape),
        )
        for pose in decode(noisy):
            mats = algebra_oracles.quat_to_matrix(pose.joint_rotations)
            gram = mats @ np.swapaxes(mats, -1, -2)
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_degenerate_block_rejected(self, rng):
        from dqmotion.errors import DegenerateNormError

        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 3), ReprKind.DUALQUAT)
        broken = clip.features.copy()
        broken[1, 3 + 8 : 3 + 12] = 0.0  # zero a block's rotation part
        bad = EncodedClip(clip.kind, skeleton, clip.frame_time, broken)
        with pytest.raises(DegenerateNormError):
            decode(bad)

    @pytest.mark.parametrize("kind", INVERTIBLE, ids=lambda k: k.value)
    def test_overflowing_block_rejected(self, rng, kind):
        # finite values whose squared norm overflows: not a zero quaternion
        # or a wrong rotation
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 3), kind)
        blocks = clip.joint_blocks().copy()
        blocks[1, 2] = 1e200
        features = np.concatenate([clip.root_translation, blocks.reshape(3, -1)], axis=1)
        with pytest.raises(NonFiniteError):
            decode(EncodedClip(kind, skeleton, clip.frame_time, features))

    def test_standardized_clip_rejected(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 5), ReprKind.DUALQUAT)
        with pytest.raises(ValueError):
            decode(standardize(clip, fit_stats(clip)))

    def test_full_pipeline_channel_fidelity(self, fixtures_dir):
        # BVH -> dualquat features -> BVH; channel match away from poles.
        for name in ("two_joint.bvh", "arm_chain.bvh", "humanoid.bvh"):
            clip = bvh.parse_file(fixtures_dir / name)
            poses = clip_to_local(clip)
            decoded = decode(encode(poses, ReprKind.DUALQUAT, clip.frame_time))
            from dqmotion.kinematics import local_to_clip

            back = local_to_clip(decoded, clip.skeleton, clip.frame_time)
            delta = np.abs(back.frames - clip.frames)
            delta = np.minimum(delta, np.abs(delta - 360.0))
            assert np.max(delta) < 1e-4


class TestStats:
    def make_clip(self, rng, frames=6):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        return encode(oracles.random_poses(rng, skeleton, frames), ReprKind.DUALQUAT)

    def test_mean_and_std_of_different_widths(self):
        with pytest.raises(ShapeMismatchError, match="^mean and std must have the same width$"):
            NormalizationStats(np.zeros(5), np.ones(4))

    def test_features_of_the_wrong_width(self, rng):
        clip = self.make_clip(rng)
        with pytest.raises(ShapeMismatchError,
                           match="^dualquat features for this skeleton must have width 43$"):
            EncodedClip(clip.kind, clip.skeleton, clip.frame_time, clip.features[:, :-1])

    def test_stats_of_the_wrong_width(self, rng):
        clip = self.make_clip(rng)
        stats = NormalizationStats(np.zeros(clip.width - 1), np.ones(clip.width - 1))
        with pytest.raises(ShapeMismatchError, match="^stats width does not match features$"):
            EncodedClip(clip.kind, clip.skeleton, clip.frame_time, clip.features, stats)

    def test_constant_column_floored(self, rng):
        clip = self.make_clip(rng)
        features = clip.features.copy()
        features[:, 0] = 7.25
        stats = fit_stats(EncodedClip(clip.kind, clip.skeleton, clip.frame_time, features))
        assert stats.mean[0] == 7.25
        assert stats.std[0] == 1e-8

    def test_two_point_column(self, rng):
        clip = self.make_clip(rng, frames=2)
        features = clip.features.copy()
        features[:, 1] = [0.0, 2.0]
        stats = fit_stats(EncodedClip(clip.kind, clip.skeleton, clip.frame_time, features))
        assert np.isclose(stats.mean[1], 1.0)
        assert np.isclose(stats.std[1], 1.0)  # population convention

    def test_standardize_then_fit_is_neutral(self, rng):
        clip = self.make_clip(rng, frames=20)
        out = standardize(clip, fit_stats(clip))
        refit = fit_stats(out)
        moving = fit_stats(clip).std > 1e-8
        assert np.max(np.abs(refit.mean[moving])) < 1e-9
        assert np.max(np.abs(refit.std[moving] - 1.0)) < 1e-9

    def test_round_trip_identity(self, rng):
        clip = self.make_clip(rng, frames=12)
        stats = fit_stats(clip)
        back = destandardize(standardize(clip, stats))
        assert np.max(np.abs(back.features - clip.features)) < 1e-12
        assert back.stats is None

    def test_width_mismatch(self, rng):
        clip = self.make_clip(rng)
        bad = NormalizationStats(np.zeros(4), np.ones(4))
        with pytest.raises(ShapeMismatchError):
            standardize(clip, bad)

    def test_too_few_frames(self, rng):
        clip = self.make_clip(rng)
        single = EncodedClip(clip.kind, clip.skeleton, clip.frame_time, clip.features[:1])
        with pytest.raises(TooFewFramesError):
            fit_stats(single)


class TestContainer:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        skeleton = oracles.random_skeleton(rng, 7, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 9), ReprKind.DUALQUAT)
        path = tmp_path / "clip.dqm"
        container.write_file(path, clip)
        loaded = container.read_file(path)
        assert loaded.kind is clip.kind
        assert loaded.skeleton == clip.skeleton
        assert loaded.frame_time == clip.frame_time
        assert np.array_equal(loaded.features, clip.features)
        assert loaded.stats is None

    def test_stats_round_trip(self, rng, tmp_path):
        skeleton = oracles.random_skeleton(rng, 4)
        clip = encode(oracles.random_poses(rng, skeleton, 6), ReprKind.QUATERNIONS)
        standardized = standardize(clip, fit_stats(clip))
        path = tmp_path / "clip.dqm"
        container.write_file(path, standardized)
        loaded = container.read_file(path)
        assert loaded.standardized
        assert np.array_equal(loaded.stats.mean, standardized.stats.mean)
        assert np.array_equal(loaded.stats.std, standardized.stats.std)
        assert np.array_equal(loaded.features, standardized.features)

    def test_corrupted_magic(self, rng, tmp_path):
        skeleton = oracles.random_skeleton(rng, 3)
        clip = encode(oracles.random_poses(rng, skeleton, 2), ReprKind.DUALQUAT)
        data = bytearray(container.to_bytes(clip))
        data[:4] = b"NOPE"
        with pytest.raises(ContainerError):
            container.from_bytes(bytes(data))

    def test_truncated_payload(self, rng):
        skeleton = oracles.random_skeleton(rng, 3)
        clip = encode(oracles.random_poses(rng, skeleton, 4), ReprKind.DUALQUAT)
        data = container.to_bytes(clip)
        with pytest.raises(ContainerError):
            container.from_bytes(data[:-8])

    def test_tampered_skeleton_digest(self, rng):
        skeleton = oracles.random_skeleton(rng, 3)
        clip = encode(oracles.random_poses(rng, skeleton, 2), ReprKind.DUALQUAT)
        data = bytearray(container.to_bytes(clip))
        data[40] ^= 0xFF  # inside the digest field
        with pytest.raises(ContainerError):
            container.from_bytes(bytes(data))

    def test_header_digest_is_the_sha256_of_the_json_block(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        data = container.to_bytes(encode(oracles.random_poses(rng, skeleton, 3), ReprKind.ORTHO6D))
        start = container._HEADER.size
        (length,) = struct.unpack_from("<I", data, start)
        block = data[start + 4:start + 4 + length]
        assert data[start - 32:start] == hashlib.sha256(block).digest()
        assert data[start - 32:start] == container.skeleton_digest(skeleton)

    @pytest.mark.parametrize("standardized", (False, True))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rewrite_is_identity(self, rng, kind, standardized):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 4), kind)
        if standardized:
            clip = standardize(clip, fit_stats(clip))
        data = container.to_bytes(clip)
        assert container.to_bytes(container.from_bytes(data)) == data

    @pytest.mark.parametrize("standardized", (False, True))
    def test_blocks_are_their_tobytes_copies(self, rng, standardized):
        """The rows after the skeleton block are, byte for byte, the
        `tobytes` of each block's little-endian values, whatever the
        features' memory layout."""
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        clip = encode(oracles.random_poses(rng, skeleton, 8), ReprKind.QUATERNIONS)
        if standardized:
            clip = standardize(clip, fit_stats(clip))
        fortran = np.asfortranarray(clip.features)
        fortran.setflags(write=False)
        for features in (clip.features, clip.features[::3], fortran):
            view = EncodedClip(clip.kind, clip.skeleton, clip.frame_time, features, clip.stats)
            assert view.features is features  # kept as given, not copied
            blocks = [features] if clip.stats is None else [clip.stats.mean, clip.stats.std, features]
            rows = b"".join(np.ascontiguousarray(block, dtype="<f8").tobytes() for block in blocks)
            data = container.to_bytes(view)
            head = container._HEADER.size + 4 + len(skeleton.canonical_json)
            assert len(data) == head + len(rows) and data[head:] == rows
        assert not clip.features[::3].flags.c_contiguous and not fortran.flags.c_contiguous

    def test_skeleton_block_is_serialized_once(self, rng, monkeypatch):
        container._skeleton.cache_clear()
        skeleton = oracles.random_skeleton(rng, 8, end_sites=True)
        poses = oracles.random_poses(rng, skeleton, 3)
        clips = [encode(poses, kind) for kind in ALL_KINDS]
        calls = []
        to_dict = bvh.Skeleton.to_dict
        monkeypatch.setattr(bvh.Skeleton, "to_dict", lambda self: calls.append(self) or to_dict(self))
        blobs = [container.to_bytes(clip) for clip in clips]
        container.skeleton_digest(skeleton)
        assert calls == [skeleton]
        # reading hashes the stored block; every read of it gets the memo's skeleton
        loaded = [container.from_bytes(blob).skeleton for blob in blobs]
        assert calls == [skeleton]
        assert all(other is loaded[0] for other in loaded)
        assert loaded[0] is not skeleton
        assert container._skeleton.cache_info().currsize == 1
        # writing the clips back serializes that one skeleton once
        for _ in range(2):
            assert [container.to_bytes(container.from_bytes(blob)) for blob in blobs] == blobs
        assert calls == [skeleton, loaded[0]]

    def test_digest_is_the_sha256_of_the_sorted_compact_json(self, rng):
        skeletons = [bvh.parse_file(path).skeleton for path in fixture_corpus()]
        skeletons += [oracles.random_skeleton(rng, n, end_sites=True) for n in (1, 5, 40)]
        skeletons.append(bvh.Skeleton([
            dataclasses.replace(j, offset=[-0.0, j.offset[1], -0.0]) for j in skeletons[-1].joints
        ]))
        assert '"offset":[-0.0,' in skeletons[-1].canonical_json.decode()
        for skeleton in skeletons:
            block = json.dumps(skeleton.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")
            assert skeleton.canonical_json == block
            assert container.skeleton_digest(skeleton) == hashlib.sha256(block).digest()

    def test_encode_is_deterministic(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        poses = oracles.random_poses(rng, skeleton, 6)
        first = encode(poses, ReprKind.DUALQUAT)
        second = encode(poses, ReprKind.DUALQUAT)
        assert np.array_equal(first.features, second.features)
        assert container.to_bytes(first) == container.to_bytes(second)
