"""Command-line interface: exit codes, output contracts, schema validity."""

import dataclasses
import json
import struct
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dqmotion import bvh, cli, container, dualquat
from dqmotion.cli import main
from dqmotion.encoding import EncodedClip, ReprKind, destandardize, encode
from dqmotion.errors import NotUnitError
from dqmotion.kinematics import clip_to_local, local_to_clip
from dqmotion.losses import LossWeights, loss_offset, loss_total
from dqmotion.metrics import metric_report

SCHEMAS = Path(__file__).parent.parent / "docs" / "schemas"
WALK = Path(__file__).parent.parent / "demos" / "data" / "walk.bvh"


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def two_joint(fixtures_dir):
    return fixtures_dir / "two_joint.bvh"


@pytest.fixture
def encoded_dq(tmp_path, two_joint, capsys):
    out = tmp_path / "clip.dqm"
    code, _, _ = run(capsys, "encode", two_joint, "--repr", "dq", "-o", out)
    assert code == 0
    return out


class TestInspect:
    def test_summary_line(self, capsys, two_joint):
        code, out, _ = run(capsys, "inspect", two_joint)
        assert code == 0
        assert out.splitlines()[0] == "joints: 2, frames: 2, fps: 120"

    def test_json_schema(self, capsys, two_joint):
        code, out, _ = run(capsys, "inspect", two_joint, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("inspect.schema.json"))
        assert payload["joints"] == 2 and payload["frames"] == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "inspect", tmp_path / "nope.bvh")
        assert code == 3
        assert "error" in err

    def test_malformed_exits_3_with_line(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "inspect", fixtures_dir / "malformed_frames0.bvh")
        assert code == 3
        assert "line 8" in err


class TestEncode:
    def test_width_and_residual(self, capsys, tmp_path, two_joint):
        out = tmp_path / "c.dqm"
        code, text, _ = run(capsys, "encode", two_joint, "--repr", "dq", "-o", out)
        assert code == 0
        assert "width: 19 (3 + 8*2)" in text
        assert "max unit residual" in text
        assert out.exists()

    def test_fps_above_source_is_usage_error(self, capsys, tmp_path, two_joint):
        out = tmp_path / "c.dqm"
        code, _, err = run(capsys, "encode", two_joint, "--fps", "600", "-o", out)
        assert code == 2
        assert "rate" in err
        assert not out.exists()

    def test_standardize_stores_stats(self, capsys, tmp_path, two_joint):
        plain = tmp_path / "plain.dqm"
        std = tmp_path / "std.dqm"
        assert run(capsys, "encode", two_joint, "-o", plain)[0] == 0
        assert run(capsys, "encode", two_joint, "--standardize", "-o", std)[0] == 0
        raw = container.read_file(plain)
        stored = container.read_file(std)
        assert stored.standardized and not raw.standardized
        back = destandardize(stored)
        assert np.max(np.abs(back.features - raw.features)) < 1e-9

    def test_no_partial_output_on_malformed_input(self, capsys, tmp_path, fixtures_dir):
        out = tmp_path / "c.dqm"
        code, _, _ = run(capsys, "encode", fixtures_dir / "malformed_rowwidth.bvh", "-o", out)
        assert code == 3
        assert not out.exists()

    def test_frame_count_beyond_a_zero_width_block(self, capsys, tmp_path):
        """A skeleton with no channels and no rows cannot declare 10**15
        frames: the parse stops at the end of the file, before any
        per-frame array is allocated."""
        source = tmp_path / "still.bvh"
        source.write_text(
            "HIERARCHY\nROOT still\n{\n OFFSET 0 0 0\n CHANNELS 0\n End Site\n {\n"
            "  OFFSET 0 1 0\n }\n}\nMOTION\nFrames: 1000000000000000\nFrame Time: 0.033333\n"
        )
        out = tmp_path / "c.dqm"
        code, _, err = run(capsys, "encode", source, "--repr", "dq", "-o", out)
        assert code == 3
        assert "line 13" in err and "unexpected end of file" in err
        assert not out.exists()


class TestDecode:
    def test_topology_preserved(self, capsys, tmp_path, encoded_dq, two_joint):
        out = tmp_path / "back.bvh"
        code, _, _ = run(capsys, "decode", encoded_dq, "-o", out)
        assert code == 0
        original = bvh.parse_file(two_joint)
        decoded = bvh.parse_file(out)
        assert decoded.skeleton == original.skeleton

    def test_positions_container_not_invertible(self, capsys, tmp_path, two_joint):
        enc = tmp_path / "pos.dqm"
        assert run(capsys, "encode", two_joint, "--repr", "pos", "-o", enc)[0] == 0
        code, _, err = run(capsys, "decode", enc, "-o", tmp_path / "x.bvh")
        assert code == 1
        assert not (tmp_path / "x.bvh").exists()

    def test_corrupted_magic(self, capsys, tmp_path, encoded_dq):
        bad = tmp_path / "bad.dqm"
        data = bytearray(encoded_dq.read_bytes())
        data[:4] = b"JUNK"
        bad.write_bytes(bytes(data))
        code, _, err = run(capsys, "decode", bad, "-o", tmp_path / "y.bvh")
        assert code == 3


#: Byte offset of the frame time in the container header.
FRAME_TIME_AT = struct.calcsize("<4sIBBHIIQ")


def patched(tmp_path, source, at, value):
    """A copy of container `source` with one float64 overwritten; `at`
    counts from the end when negative."""
    data = bytearray(source.read_bytes())
    at = at % len(data)
    data[at : at + 8] = struct.pack("<d", value)
    path = tmp_path / "patched.dqm"
    path.write_bytes(bytes(data))
    return path


class TestNonFiniteContainers:
    """Containers whose payload is not a finite clip are format errors: exit
    3 with an error line, never OK and never a traceback."""

    def test_validate_rejects_nan_feature(self, capsys, tmp_path, encoded_dq):
        bad = patched(tmp_path, encoded_dq, -8, float("nan"))
        code, out, err = run(capsys, "validate", bad)
        assert code == 3
        assert "OK" not in out and err.startswith("error:")

    def test_decode_rejects_nan_feature(self, capsys, tmp_path, encoded_dq):
        bad = patched(tmp_path, encoded_dq, -8, float("nan"))
        target = tmp_path / "back.bvh"
        code, _, err = run(capsys, "decode", bad, "-o", target)
        assert code == 3
        assert err.startswith("error:")
        assert not target.exists()

    @pytest.mark.parametrize("frame_time", [float("nan"), -0.1])
    def test_decode_rejects_bad_frame_time(self, capsys, tmp_path, encoded_dq, frame_time):
        bad = patched(tmp_path, encoded_dq, FRAME_TIME_AT, frame_time)
        target = tmp_path / "back.bvh"
        code, _, err = run(capsys, "decode", bad, "-o", target)
        assert code == 3
        assert err.startswith("error:")
        assert not target.exists()

    def test_decode_rejects_nan_statistics(self, capsys, tmp_path, two_joint):
        std = tmp_path / "std.dqm"
        assert run(capsys, "encode", two_joint, "--standardize", "-o", std)[0] == 0
        width = 3 + 8 * 2
        bad = patched(tmp_path, std, -8 * (2 * width + 1), float("nan"))  # last std entry
        target = tmp_path / "back.bvh"
        code, _, err = run(capsys, "decode", bad, "-o", target)
        assert code == 3
        assert err.startswith("error:")
        assert not target.exists()


SINGLE_JOINT_BVH = """HIERARCHY
ROOT hip
{
  OFFSET 0.000000 0.000000 0.000000
  CHANNELS 6 Xposition Yposition Zposition Zrotation Yrotation Xrotation
  End Site
  {
    OFFSET 0.000000 1.000000 0.000000
  }
}
MOTION
Frames: 3
Frame Time: 0.0333333
1.000000 2.000000 3.000000 10.000000 20.000000 30.000000
1.500000 2.500000 0.000000 0.000000 80.000000 0.000000
0.000000 0.000000 0.000000 -40.000000 5.000000 60.000000
"""


@pytest.fixture
def single_joint(tmp_path):
    path = tmp_path / "single.bvh"
    path.write_text(SINGLE_JOINT_BVH)
    return path


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestSingleJoint:
    """A skeleton whose only encoded joint is the root has no bone to
    violate: the offset term is 0, never NaN."""

    def test_roundtrip_dq(self, capsys, single_joint):
        code, out, err = run(capsys, "roundtrip", single_joint, "--repr", "dq")
        assert code == 0, err
        assert "max offset deviation:     0.000e+00" in out

    def test_loss_output_is_strict_json(self, capsys, tmp_path, single_joint):
        enc = tmp_path / "single.dqm"
        assert run(capsys, "encode", single_joint, "--repr", "dq", "-o", enc)[0] == 0
        code, out, _ = run(capsys, "loss", enc, enc)
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(payload, schema("loss_report.schema.json"))
        assert payload["offset"] == 0.0
        assert abs(payload["weighted_total"]) < 1e-12


class TestRoundtrip:
    @pytest.mark.parametrize("repr_flag", ["dq", "quat", "ortho6d", "quat-pos", "ortho6d-pos"])
    def test_fixture_corpus_under_tolerance(self, capsys, fixtures_dir, repr_flag):
        from conftest import fixture_corpus

        for path in fixture_corpus():
            code, out, _ = run(capsys, "roundtrip", path, "--repr", repr_flag)
            assert code == 0, (path, out)

    def test_tol_zero_fails(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "roundtrip", fixtures_dir / "humanoid.bvh", "--tol", "0")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("tol", ("nan", "-1e-9"))
    def test_tol_not_non_negative_is_usage_error(self, capsys, fixtures_dir, tol):
        code, out, err = run(capsys, "roundtrip", fixtures_dir / "humanoid.bvh", "--tol", tol)
        assert code == 2
        assert "--tol" in err and "OK" not in out

    def test_positions_repr_rejected(self, capsys, two_joint):
        code, _, err = run(capsys, "roundtrip", two_joint, "--repr", "pos")
        assert code == 2

    def test_subsampled_roundtrip(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "roundtrip", fixtures_dir / "subsample_120fps.bvh", "--fps", "30"
        )
        assert code == 0


@pytest.mark.parametrize("command", ["encode", "roundtrip"])
def test_subsampled_frame_time_overflow_is_usage_error(capsys, tmp_path, fixtures_dir, command):
    """A stride of 2 doubles a 1e308 s frame time past the float range."""
    source = tmp_path / "big.bvh"
    text = (fixtures_dir / "humanoid.bvh").read_text()
    source.write_text(text.replace("Frame Time: 0.033333", "Frame Time: 1e308"))
    argv = [command, source, "--fps", "5e-309"]
    if command == "encode":
        argv += ["-o", tmp_path / "out.dqm"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines() == ["error: frame_time and its rate 1/frame_time must be finite"]
    assert "OK" not in out
    assert list(tmp_path.iterdir()) == [source]


class TestValidate:
    def test_fresh_container_ok(self, capsys, encoded_dq):
        code, out, _ = run(capsys, "validate", encoded_dq)
        assert code == 0
        assert "OK" in out

    def test_flipped_frame_detected(self, capsys, tmp_path, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
        encoded = encode(clip_to_local(clip), ReprKind.DUALQUAT, clip.frame_time)
        features = encoded.features.copy()
        features[7, 3:] *= -1.0  # hand-flip one frame's blocks
        path = tmp_path / "flipped.dqm"
        container.write_file(path, EncodedClip(encoded.kind, encoded.skeleton, encoded.frame_time, features))
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "frames 6 and 7" in out or "frames 7 and 8" in out

    def test_header_skeleton_contradicting_blocks_fails(self, capsys, tmp_path):
        """Blocks encoded on a skeleton 1.5 times as large, under the header
        of the original: every unit and continuity check passes, the bone
        offsets do not."""
        clip = bvh.parse_file(WALK)
        joints = [dataclasses.replace(j, offset=1.5 * j.offset) for j in clip.skeleton.joints]
        scaled = bvh.MotionClip(bvh.Skeleton(joints), clip.frame_time, clip.frames)
        encoded = encode(clip_to_local(scaled), ReprKind.DUALQUAT, clip.frame_time)
        forged = tmp_path / "forged.dqm"
        container.write_file(forged, EncodedClip(
            encoded.kind, clip.skeleton, encoded.frame_time, encoded.features))
        assert loss_offset(container.read_file(forged)) > 1.0
        code, out, _ = run(capsys, "validate", forged)
        assert code == 1
        line = next(line for line in out.splitlines() if line.startswith("worst offset deviation:"))
        deviation, where = line.split(":", 1)[1].split(" at ")
        assert float(deviation) > 1.0
        frame, joint = (int(part.split()[-1]) for part in where.split(","))
        assert 0 <= frame < clip.num_frames and 1 <= joint < clip.skeleton.num_encoded
        assert "FAIL" in out and "OK" not in out

    @pytest.mark.parametrize("flags", ([], ["--standardize"]), ids=("raw", "standardized"))
    def test_honest_dq_container_offsets_ok(self, capsys, tmp_path, flags):
        path = tmp_path / "walk.dqm"
        assert run(capsys, "encode", WALK, "--repr", "dq", *flags, "-o", path)[0] == 0
        code, out, _ = run(capsys, "validate", path)
        assert code == 0, out
        line = next(line for line in out.splitlines() if line.startswith("worst offset deviation:"))
        assert float(line.split()[3]) < 1e-12
        assert out.splitlines()[-1] == "OK"

    @pytest.mark.parametrize("flags", ([], ["--standardize"]), ids=("raw", "standardized"))
    def test_quat_pos_container_ok(self, capsys, tmp_path, flags):
        """The quaternion columns of a quat-pos block are checked, not the
        position columns after them."""
        path = tmp_path / "walk.dqm"
        assert run(capsys, "encode", WALK, "--repr", "quat-pos", *flags, "-o", path)[0] == 0
        code, out, _ = run(capsys, "validate", path)
        assert code == 0, out
        assert float(out.splitlines()[0].split()[3]) < 1e-12
        assert out.splitlines()[-1] == "OK"

    def test_root_only_has_no_bones(self, capsys, tmp_path, single_joint):
        path = tmp_path / "single.dqm"
        assert run(capsys, "encode", single_joint, "--repr", "dq", "-o", path)[0] == 0
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert "worst offset deviation: n/a (no bones)" in out

    def test_non_rotational_container_inapplicable(self, capsys, tmp_path, two_joint):
        enc = tmp_path / "pos.dqm"
        assert run(capsys, "encode", two_joint, "--repr", "pos", "-o", enc)[0] == 0
        code, _, err = run(capsys, "validate", enc)
        assert code == 2


class TestLoss:
    def test_identical_files_zero(self, capsys, tmp_path, encoded_dq):
        code, out, _ = run(capsys, "loss", encoded_dq, encoded_dq)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("loss_report.schema.json"))
        assert payload["mse"] == 0.0
        assert payload["weights"]["regularization"] == 0.01

    def test_digest_mismatch(self, capsys, tmp_path, fixtures_dir, encoded_dq):
        other = tmp_path / "other.dqm"
        assert run(capsys, "encode", fixtures_dir / "humanoid.bvh", "-o", other)[0] == 0
        code, _, err = run(capsys, "loss", encoded_dq, other)
        assert code == 2
        assert "digest" in err

    def test_matches_library(self, capsys, tmp_path, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
        poses = clip_to_local(clip)
        a = encode(poses[:-1], ReprKind.DUALQUAT, clip.frame_time)
        b = encode(poses[1:], ReprKind.DUALQUAT, clip.frame_time)
        pa, pb = tmp_path / "a.dqm", tmp_path / "b.dqm"
        container.write_file(pa, a)
        container.write_file(pb, b)
        code, out, _ = run(capsys, "loss", pa, pb, "--weights", "reg=0.5")
        assert code == 0
        payload = json.loads(out)
        expected = loss_total(a, b, LossWeights.from_mapping({"reg": 0.5}))
        assert payload == expected.to_dict()

    def test_bad_weights(self, capsys, encoded_dq):
        code, _, err = run(capsys, "loss", encoded_dq, encoded_dq, "--weights", "bogus=1")
        assert code == 2

    @pytest.mark.parametrize("weights", ("quat=0.5,rotational=2", "reg=1,reg=2"))
    def test_weight_given_twice(self, capsys, encoded_dq, weights):
        code, out, err = run(capsys, "loss", encoded_dq, encoded_dq, "--weights", weights)
        assert code == 2
        assert "more than once" in err and not out


class TestMetrics:
    def test_identical_files_zero(self, capsys, fixtures_dir):
        path = fixtures_dir / "humanoid.bvh"
        code, out, _ = run(capsys, "metrics", path, path)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("metric_report.schema.json"))
        assert payload["euclidean"] == 0.0 and payload["npss"] == 0.0

    def test_length_mismatch(self, capsys, tmp_path, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
        short = bvh.MotionClip(clip.skeleton, clip.frame_time, clip.frames[:-2])
        trimmed = tmp_path / "short.bvh"
        bvh.write_file(trimmed, short)
        code, _, err = run(capsys, "metrics", fixtures_dir / "humanoid.bvh", trimmed)
        assert code == 2

    def test_matches_library(self, capsys, tmp_path, fixtures_dir):
        original = fixtures_dir / "humanoid.bvh"
        clip = bvh.parse_file(original)
        jittered = bvh.MotionClip(
            clip.skeleton, clip.frame_time,
            clip.frames + np.random.default_rng(3).normal(scale=0.5, size=clip.frames.shape),
        )
        other = tmp_path / "jittered.bvh"
        bvh.write_file(other, jittered)
        code, out, _ = run(capsys, "metrics", other, original)
        assert code == 0
        payload = json.loads(out)
        expected = metric_report(
            clip_to_local(bvh.parse_file(other)), clip_to_local(clip), clip.frame_time
        ).to_dict()
        for key, value in expected.items():
            assert payload[key] == value

    def test_windowed_protocol(self, capsys, fixtures_dir):
        path = fixtures_dir / "humanoid.bvh"  # 16 frames
        code, out, _ = run(capsys, "metrics", path, path, "--horizon", "8", "--stride", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["windows"] == 3  # starts 0, 4, 8
        jsonschema.validate(payload, schema("metric_report.schema.json"))

    def test_seed_flag_removed(self, capsys, fixtures_dir):
        path = fixtures_dir / "humanoid.bvh"
        assert run(capsys, "metrics", path, path, "--seed", "3")[0] == 2

    def test_repeated_calls_share_one_parser(self, capsys, fixtures_dir):
        path = fixtures_dir / "humanoid.bvh"
        good = ("metrics", path, path, "--horizon", "6")
        calls = [good, ("metrics", path, path, "--seed", "1"), ("--help",), good]
        first = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 2, 0, 0]
        assert "unrecognized arguments: --seed 1" in first[1][2]
        assert "usage: dqmotion" in first[2][1]
        assert first[3] == first[0]
        assert [run(capsys, *argv) for argv in calls] == first
        assert cli._build_parser() is cli._build_parser()

    def test_determinism(self, capsys, fixtures_dir):
        path = fixtures_dir / "humanoid.bvh"
        first = run(capsys, "metrics", path, path, "--horizon", "6")
        second = run(capsys, "metrics", path, path, "--horizon", "6")
        assert first == second


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_repr_flag(self, capsys, two_joint, tmp_path):
        assert run(capsys, "encode", two_joint, "--repr", "euler", "-o", tmp_path / "x")[0] == 2


class TestUsageErrors:
    """Flag values that only a command can judge: exit 2 with the reason,
    nothing on stdout."""

    @pytest.mark.parametrize("weights, message", [
        ("mse", "bad --weights item 'mse'; expected key=value"),
        ("mse=x", "bad --weights value 'x'"),
    ])
    def test_malformed_weights(self, capsys, encoded_dq, weights, message):
        code, out, err = run(capsys, "loss", encoded_dq, encoded_dq, "--weights", weights)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (("--seeds", "0"), "--seeds and --stride must be positive"),
        (("--stride", "0"), "--seeds and --stride must be positive"),
        (("--horizon", "2"), "--horizon must allow at least 3 frames"),
        (("--horizon", "17"), "--horizon 17 exceeds the shared length 16"),
    ], ids=["seeds", "stride", "short horizon", "horizon beyond the clip"])
    def test_metrics_windows(self, capsys, fixtures_dir, flags, message):
        path = fixtures_dir / "humanoid.bvh"  # 16 frames
        code, out, err = run(capsys, "metrics", path, path, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_metrics_on_two_frames(self, capsys, tmp_path, two_joint):
        # With no --horizon the one window is the whole clip, too short
        # for a second difference.
        clip = bvh.parse_file(two_joint)
        other = tmp_path / "other.bvh"
        bvh.write_file(other, bvh.MotionClip(clip.skeleton, clip.frame_time, clip.frames[::-1]))
        code, out, err = run(capsys, "metrics", other, two_joint)
        assert (code, out, err) == (2, "", "error: acceleration needs at least 3 frames\n")


class TestStandardizedContainers:
    """decode and loss destandardize a container that stores its stats."""

    @pytest.fixture
    def pair(self, capsys, tmp_path, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
        poses = clip_to_local(clip)
        paths = tmp_path / "a.dqm", tmp_path / "b.dqm"
        for path, window in zip(paths, (poses[:-1], poses[1:])):
            bvh.write_file(tmp_path / "in.bvh", local_to_clip(window, clip.skeleton, clip.frame_time))
            argv = ("encode", tmp_path / "in.bvh", "--standardize", "-o", path)
            assert run(capsys, *argv)[0] == 0
        return paths

    def test_decode(self, capsys, tmp_path, pair):
        out = tmp_path / "back.bvh"
        code, text, _ = run(capsys, "decode", pair[0], "-o", out)
        assert code == 0 and f"wrote {out}" in text
        encoded = destandardize(container.read_file(pair[0]))
        back = bvh.parse_file(out)
        assert back.skeleton == encoded.skeleton and back.num_frames == encoded.num_frames
        again = encode(clip_to_local(back), ReprKind.DUALQUAT, back.frame_time)
        assert np.max(np.abs(again.features - encoded.features)) < 1e-5

    def test_loss(self, capsys, pair):
        code, out, _ = run(capsys, "loss", *pair)
        assert code == 0
        a, b = (destandardize(container.read_file(path)) for path in pair)
        assert json.loads(out) == loss_total(a, b).to_dict()


def test_validate_one_frame_container(capsys, tmp_path, two_joint):
    one = tmp_path / "one.bvh"
    clip = bvh.parse_file(two_joint)
    bvh.write_file(one, bvh.MotionClip(clip.skeleton, clip.frame_time, clip.frames[:1]))
    out = tmp_path / "one.dqm"
    assert run(capsys, "encode", one, "-o", out)[0] == 0
    code, text, _ = run(capsys, "validate", out)
    assert code == 0
    assert "worst continuity dot: n/a (single frame)" in text.splitlines()
    assert text.splitlines()[-1] == "OK"


def test_encode_refuses_blocks_off_the_unit_manifold(capsys, tmp_path, fixtures_dir):
    """Offsets of 1e10 leave the dual parts so large that the
    orthogonality residual of the encoded blocks passes the tolerance."""
    clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
    joints = [dataclasses.replace(j, offset=j.offset * 1e10) for j in clip.skeleton.joints]
    huge = tmp_path / "huge.bvh"
    bvh.write_file(huge, dataclasses.replace(clip, skeleton=bvh.Skeleton(joints)))
    out = tmp_path / "huge.dqm"
    code, text, err = run(capsys, "encode", huge, "-o", out)
    assert code == 1
    assert "max unit residual: 3.815e-06" in text
    assert err == "error: encoded blocks violate the unit conditions\n"
    assert not out.exists()


@pytest.mark.parametrize("excess, unit", ((1.5e-6, True), (2.5e-6, False)))
def test_one_unit_rule(capsys, tmp_path, fixtures_dir, monkeypatch, excess, unit):
    """`encode`, `validate`, `dualquat.is_unit` and `translation` agree on
    a block whose |r|^2 exceeds 1 by `excess`: up to 2 * UNIT_TOLERANCE,
    that is |r| within UNIT_TOLERANCE of 1, it is unit everywhere."""
    source = fixtures_dir / "humanoid.bvh"
    clip = bvh.parse_file(source)
    encoded = encode(clip_to_local(clip), ReprKind.DUALQUAT, clip.frame_time)
    features = encoded.features.copy()
    features[0, 3:11] *= np.sqrt(1.0 + excess)  # frame 0's root block
    scaled = EncodedClip(ReprKind.DUALQUAT, encoded.skeleton, encoded.frame_time, features)
    block = scaled.joint_blocks()[0, 0]
    assert dualquat.is_unit(block) is unit
    if unit:
        dualquat.translation(block)
    else:
        with pytest.raises(NotUnitError):
            dualquat.translation(block)

    path = tmp_path / "scaled.dqm"
    container.write_file(path, scaled)
    code, text, _ = run(capsys, "validate", path)
    assert f"worst unit residual: {excess:.3e} at frame 0, joint 0" in text
    assert (code, text.splitlines()[-1] == "OK") == ((0, True) if unit else (1, False))

    monkeypatch.setattr(cli, "encode", lambda *args: scaled)
    out = tmp_path / "encoded.dqm"
    code, text, _ = run(capsys, "encode", source, "--repr", "dq", "-o", out)
    assert f"max unit residual: {excess:.3e}" in text
    assert (code, out.exists()) == ((0, True) if unit else (1, False))
