"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected value is either analytic or produced by an
independent oracle (homogeneous-matrix kinematics, double-loop EMD).
"""

import functools
import time

import numpy as np
import pytest

from dqmotion import bvh, container, dualquat, quat
from dqmotion.cli import main as cli_main
from dqmotion.encoding import (
    EncodedClip,
    ReprKind,
    antipodal_correct,
    decode,
    destandardize,
    encode,
    fit_stats,
    standardize,
)
from dqmotion.errors import BvhSyntaxError
from dqmotion.kinematics import LocalPose, _from_rows, _to_rows, clip_to_local, local_to_clip, relative
from dqmotion.losses import (
    LossWeights,
    grad_check,
    loss_offset,
    loss_regularization,
    loss_rotational,
    loss_total,
)
from dqmotion.metrics import acceleration_of, metric_report, npss_between

import oracles
from pose_oracles import matrix_fk
from conftest import fixture_corpus, malformed_corpus


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS  {title}")

        return run

    return wrap


@criterion(1, "current dual quaternions match matrix FK within 1e-9, 1000 skeletons, < 30 s")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 31)))
        pose = oracles.random_pose(rng, skeleton)
        _, positions = matrix_fk(pose)
        blocks = encode(oracles.repeated(pose), ReprKind.DUALQUAT).joint_blocks()[0]
        deviation = np.max(np.abs(dualquat.translation(blocks) - positions[list(skeleton.encoded_indices)]))
        worst = max(worst, float(deviation))
    elapsed = time.monotonic() - start
    assert worst < 1e-9, f"worst deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


@criterion(2, "decode and relative invert the current dual quaternions within 1e-9, 1000 trials")
def test_criterion_2_inverse_pair():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 16)))
        pose = oracles.random_pose(rng, skeleton)
        clip = encode(oracles.repeated(pose), ReprKind.DUALQUAT)
        back = decode(clip)[0]
        for a, b in zip(pose.joint_rotations, back.joint_rotations):
            assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-9
        local = _from_rows(relative(skeleton.encoded_parents, _to_rows(clip.joint_blocks()[0])))
        for row, idx in enumerate(skeleton.encoded_indices):
            joint = skeleton.joints[idx]
            if joint.parent is not None:
                extracted = dualquat.translation(local[row])
                assert np.max(np.abs(extracted - joint.offset)) < 1e-9


@criterion(3, "normalization restores both unit residuals to < 1e-12 on 1e5 vectors")
def test_criterion_3_unitary_invariant():
    rng = np.random.default_rng(103)
    vectors = rng.normal(size=(150_000, 8)) * 2.0
    vectors = vectors[np.linalg.norm(vectors[:, :4], axis=1) > 0.1][:100_000]
    assert len(vectors) == 100_000
    normalized = dualquat.normalize(vectors)
    norm_res, ortho_res = dualquat.unitary_residual(normalized)
    assert np.max(np.abs(norm_res)) < 1e-12
    assert np.max(np.abs(ortho_res)) < 1e-12
    again = dualquat.normalize(normalized)
    assert np.max(np.abs(again - normalized)) < 1e-12


@criterion(4, "antipodal correction restores continuity without moving any transform")
def test_criterion_4_antipodal():
    rng = np.random.default_rng(104)
    skeleton = oracles.random_skeleton(rng, 8, end_sites=True)
    clip = encode(oracles.random_poses(rng, skeleton, 40), ReprKind.DUALQUAT)
    blocks = clip.joint_blocks().copy()
    for frame in rng.choice(40, size=9, replace=False):
        joints = rng.choice(blocks.shape[1], size=rng.integers(1, blocks.shape[1]), replace=False)
        blocks[frame, joints] *= -1.0
    corrected = antipodal_correct(blocks)
    dots = np.sum(corrected[:-1] * corrected[1:], axis=-1)
    assert np.min(dots) >= 0.0
    points = rng.uniform(-5, 5, size=(100, 3))
    for frame in range(blocks.shape[0]):
        for joint in range(blocks.shape[1]):
            before = dualquat.transform_point(blocks[frame, joint], points)
            after = dualquat.transform_point(corrected[frame, joint], points)
            assert np.max(np.abs(before - after)) < 1e-12


@criterion(5, "BVH -> dualquat -> BVH round trip within 1e-6; cmd roundtrip exits 0")
def test_criterion_5_full_round_trip(capsys):
    corpus = fixture_corpus()
    assert len(corpus) >= 5
    for path in corpus:
        clip = bvh.parse_file(path)
        fps_args = []
        if path.name == "subsample_120fps.bvh":
            clip = bvh.subsample(clip, 30.0)
            fps_args = ["--fps", "30"]
        poses = clip_to_local(clip)
        decoded = decode(encode(poses, ReprKind.DUALQUAT, clip.frame_time))
        reparsed = bvh.parse(bvh.write(local_to_clip(decoded, clip.skeleton, clip.frame_time)))
        final = clip_to_local(reparsed)
        for before, after in zip(poses, final):
            for a, b in zip(before.joint_rotations, after.joint_rotations):
                assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-6, path.name
            _, p_before = matrix_fk(before)
            _, p_after = matrix_fk(after)
            assert np.max(np.linalg.norm(p_before - p_after, axis=-1)) < 1e-6, path.name
        code = cli_main(["roundtrip", str(path), "--repr", "dq", *fps_args])
        capsys.readouterr()
        assert code == 0, path.name


def test_full_round_trip_just_off_the_pole(fixtures_dir):
    """The humanoid file with the spine's middle angle 1e-6 rad from 90
    degrees, through the dq encode, the container bytes, decode, the BVH
    writer and the parser: rotations and FK positions within 1e-6."""
    clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
    spine = clip.skeleton.joints[1]
    assert spine.name == "spine" and spine.rotation_order == "ZYX"
    frames = clip.frames.copy()
    column = len(clip.skeleton.joints[0].channels) + spine.channels.index("Yrotation")
    frames[:, column] = np.degrees(np.pi / 2.0 - 1e-6)
    clip = bvh.parse(bvh.write(bvh.MotionClip(clip.skeleton, clip.frame_time, frames)))
    poses = clip_to_local(clip)
    blob = container.to_bytes(encode(poses, ReprKind.DUALQUAT, clip.frame_time))
    decoded = decode(container.from_bytes(blob))
    final = clip_to_local(bvh.parse(bvh.write(local_to_clip(decoded, clip.skeleton, clip.frame_time))))
    for before, after in zip(poses, final):
        for a, b in zip(before.joint_rotations, after.joint_rotations):
            assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-6
        _, p_before = matrix_fk(before)
        _, p_after = matrix_fk(after)
        assert np.max(np.linalg.norm(p_before - p_after, axis=-1)) < 1e-6


@criterion(6, "loss anchors: clean reg/offset, bone stretch delta/(J-1), rotational anchors")
def test_criterion_6_loss_ground_truths():
    rng = np.random.default_rng(106)
    skeleton = oracles.random_skeleton(rng, 7)
    poses = oracles.random_poses(rng, skeleton, 6)
    clip = encode(poses, ReprKind.DUALQUAT)
    assert loss_regularization(clip) == 0.0 or loss_regularization(clip) < 1e-24
    assert loss_offset(clip, skeleton) < 1e-9

    # constructed single-bone stretch on a leaf joint
    delta = 0.41
    leaf = skeleton.num_joints - 1
    joint = skeleton.joints[leaf]
    direction = joint.offset / np.linalg.norm(joint.offset)
    pose = poses[0]
    current = clip.joint_blocks()[0].copy()  # every joint is encoded
    current[leaf] = dualquat.mul(
        current[joint.parent],
        dualquat.from_rotation_translation(pose.joint_rotations[leaf], joint.offset + delta * direction),
    )
    features = np.concatenate(
        [pose.root_translation, current[list(skeleton.encoded_indices)].reshape(-1)]
    )[None]
    stretched = EncodedClip(ReprKind.DUALQUAT, skeleton, 1 / 30, features)
    expected = delta / (skeleton.num_encoded - 1)
    assert abs(loss_offset(stretched, skeleton) - expected) < 1e-9

    # rotational anchors on a single-joint clip
    single = oracles.random_skeleton(rng, 1)
    q = oracles.random_unit_quat(rng)
    base = LocalPose(single, np.zeros(3), q[None])
    identical = encode(oracles.repeated(base), ReprKind.DUALQUAT)
    assert abs(loss_rotational(identical, identical, "local")) < 1e-12

    features = -identical.features
    features[0, :3] *= -1  # root translation is not part of the flip
    flipped = EncodedClip(ReprKind.DUALQUAT, single, 1 / 30, features)
    assert abs(loss_total(flipped, identical, rotation_space="local").rotational_raw - 2.0) < 1e-12
    assert abs(loss_rotational(flipped, identical, "local")) < 1e-12

    quarter = LocalPose(
        single, np.zeros(3), quat.mul(q, quat.from_euler([np.pi / 2, 0, 0], "ZYX"))[None]
    )
    rotated = encode(oracles.repeated(quarter), ReprKind.DUALQUAT)
    value = loss_rotational(rotated, identical, "local")
    assert abs(value - (1.0 - np.cos(np.pi / 4))) < 1e-12
    assert 0.0 <= value <= 2.0


@criterion(7, "analytic gradients match central differences within 1e-5, 100 points per loss")
def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(107)
    checks = [(ReprKind.DUALQUAT, name) for name in (
        "mse", "positional", "offset", "regularization", "rotational_local", "rotational_current")]
    checks += [(ReprKind.QUATERNIONS, name) for name in ("mse", "rotational_local", "rotational_current")]
    for kind, name in checks:
        checked = 0
        attempts = 0
        while checked < 100:
            attempts += 1
            assert attempts < 300, f"could not find enough smooth points for {kind.value} {name}"
            skeleton = oracles.random_skeleton(rng, 3)
            truth = encode(oracles.random_poses(rng, skeleton, 3), kind)
            features = truth.features + rng.normal(scale=0.05, size=truth.features.shape)
            pred = EncodedClip(kind, skeleton, 1 / 30, features)
            result = grad_check(name, pred, truth)
            if result.nondifferentiable:
                continue
            assert result.max_relative_deviation < 1e-5, (
                f"{kind.value} {name}: {result.max_relative_deviation:.2e}"
            )
            checked += 1


@criterion(8, "metric anchors: accelerations, NPSS vs brute-force EMD, root invariance")
def test_criterion_8_metric_anchors():
    rng = np.random.default_rng(108)

    constant = np.tile(rng.normal(size=(1, 2, 3)), (6, 1, 1))
    assert acceleration_of(constant) == 0.0
    t = np.arange(8, dtype=float)
    linear = np.stack([1.5 * t, -0.2 * t, 0.9 * t], axis=-1).reshape(8, 1, 3)
    assert acceleration_of(linear) < 1e-12
    quadratic = np.zeros((8, 1, 3))
    quadratic[:, 0, 1] = t * t
    assert acceleration_of(quadratic) == 2.0

    from test_metrics import npss_oracle

    for frames in (2, 5, 16, 33, 64):
        a = rng.normal(size=(frames, 3, 3))
        b = rng.normal(size=(frames, 3, 3))
        assert npss_between(a, a) == 0.0
        assert abs(npss_between(a, b) - npss_oracle(a, b)) < 1e-9

    skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
    seq = oracles.random_poses(rng, skeleton, 5)
    moved = LocalPose(skeleton, seq.root_translation + rng.uniform(-50, 50, (5, 3)),
                      seq.joint_rotations)
    assert metric_report(moved, seq).euclidean < 1e-12


@criterion(9, "feature widths for all six kinds, standardization inverse, default weights")
def test_criterion_9_feature_layout():
    rng = np.random.default_rng(109)
    expected_dims = {
        ReprKind.POSITIONS: 3,
        ReprKind.QUATERNIONS: 4,
        ReprKind.ORTHO6D: 6,
        ReprKind.QUATERNIONS_POSITIONS: 7,
        ReprKind.DUALQUAT: 8,
        ReprKind.ORTHO6D_POSITIONS: 9,
    }
    for _ in range(10):
        skeleton = oracles.random_skeleton(rng, int(rng.integers(2, 14)), end_sites=True)
        poses = oracles.random_poses(rng, skeleton, 4)
        for kind, dim in expected_dims.items():
            clip = encode(poses, kind)
            assert kind.block_dim == dim
            assert clip.width == 3 + dim * skeleton.num_encoded

    skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
    clip = encode(oracles.random_poses(rng, skeleton, 10), ReprKind.DUALQUAT)
    stats = fit_stats(clip)
    back = destandardize(standardize(clip, stats))
    assert np.max(np.abs(back.features - clip.features)) < 1e-12

    weights = LossWeights()
    assert weights.regularization == 0.01
    assert weights.positional == 1.0 / 3.0
    assert weights.rotational == 1.0 / 3.0


@criterion(10, "parser fixed point on the corpus; malformed files: line-anchored error, "
               "exit 3, no partial output")
def test_criterion_10_parser_robustness(tmp_path, capsys):
    for path in fixture_corpus():
        clip = bvh.parse_file(path)
        text = bvh.write(clip)
        reparsed = bvh.parse(text)
        assert reparsed.skeleton == clip.skeleton
        assert np.max(np.abs(reparsed.frames - clip.frames)) < 1e-5
        assert bvh.write(reparsed) == text

    malformed = malformed_corpus()
    assert len(malformed) >= 4
    for path in malformed:
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse_file(path)
        assert info.value.line >= 1
        assert f"line {info.value.line}" in str(info.value)

        target = tmp_path / f"{path.stem}.dqm"
        code = cli_main(["encode", str(path), "-o", str(target)])
        capsys.readouterr()
        assert code == 3
        assert not target.exists()
