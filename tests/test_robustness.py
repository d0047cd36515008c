"""Bad input surfaces as a `MotionError` and as a CLI exit code in 0-3,
never as a traceback: the BVH parser's and the container reader's known
holes, then property tests over mutated fixture text and container bytes."""

import contextlib
import hashlib
import io
import json
import re
import string
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmotion import bvh, container
from dqmotion.bvh import JointSpec
from dqmotion.cli import main
from dqmotion.encoding import EncodedClip, ReprKind, encode, fit_stats, standardize
from dqmotion.errors import (
    BvhSyntaxError,
    ChannelMismatchError,
    ContainerError,
    InvalidValueError,
    MotionError,
    UnsupportedChannelError,
)
from dqmotion.kinematics import clip_to_local

import oracles
from conftest import FIXTURES, fixture_corpus

HUMANOID = (FIXTURES / "humanoid.bvh").read_bytes()
EXIT_CODES = {0, 1, 2, 3}


def quiet_main(*argv) -> int:
    """`main` with its output swallowed, for tests that only need the code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def container_bytes(kind: ReprKind, standardized: bool = False) -> bytes:
    clip = bvh.parse(HUMANOID)
    encoded = encode(clip_to_local(clip)[:3], kind, clip.frame_time)
    if standardized:
        encoded = standardize(encoded, fit_stats(encoded))
    return container.to_bytes(encoded)


def with_skeleton_block(data: bytes, block: bytes) -> bytes:
    """Container `data` with its skeleton JSON replaced by `block`."""
    at = container._HEADER.size
    (length,) = struct.unpack_from("<I", data, at)
    return data[:at] + struct.pack("<I", len(block)) + block + data[at + 4 + length :]


def with_digest(data: bytes, digest: bytes) -> bytes:
    """Container `data` with `digest` in its header's skeleton digest field."""
    at = container._HEADER.size
    return data[: at - 32] + digest + data[at:]


MISSING = object()

#: A joint field of a skeleton block with a value of the wrong JSON type.
BAD_JOINT_FIELDS = {
    "end_site a string": ("end_site", "false"),
    "end_site a number": ("end_site", 0),
    "parent a float": ("parent", 0.0),
    "parent a boolean": ("parent", False),
    "parent a string": ("parent", "0"),
    "name a number": ("name", 7),
    "offset strings": ("offset", ["1", "0", "0"]),
    "offset a boolean": ("offset", [True, 0.0, 0.0]),
    "offset not a list": ("offset", "1 0 0"),
    "offset beyond float range": ("offset", [10**400, 0, 0]),
    "channel a number": ("channels", [1, 2, 3]),
    "channels a string": ("channels", "Zrotation"),
    "end_site missing": ("end_site", MISSING),
}


class TestBvhInput:
    @pytest.mark.parametrize("frames", [17, 10**15])
    def test_frame_count_beyond_the_rows(self, tmp_path, frames):
        # humanoid.bvh holds 16 rows; a count the rows cannot fill fails at
        # the last line, however large, and allocates nothing for it.
        text = re.sub(rb"Frames:\s*\d+", b"Frames: %d" % frames, HUMANOID)
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(text)
        assert info.value.message == "unexpected end of file"
        assert info.value.line == len(HUMANOID.splitlines())
        path = tmp_path / "overcount.bvh"
        path.write_bytes(text)
        assert quiet_main("inspect", path) == 3

    def test_invalid_utf8(self, tmp_path):
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(b"HIERARCHY\n\xff\n")
        assert info.value.line == 2
        # mid-line, after a byte-order mark and CRLF line ends
        at = HUMANOID.index(b"JOINT") + 2
        data = b"\xef\xbb\xbf" + HUMANOID[:at].replace(b"\n", b"\r\n") + b"\xc3(" + HUMANOID[at:]
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(data)
        assert info.value.line == HUMANOID[:at].count(b"\n") + 1
        path = tmp_path / "latin1.bvh"
        path.write_bytes(data)
        assert quiet_main("inspect", path) == 3


#: Where humanoid.bvh declares its frame time, and its first joint below
#: the root (columns 6-8, after the root's six).
FRAME_TIME_LINE = HUMANOID.splitlines().index(b"Frame Time: 0.033333") + 1
SPINE_CHANNELS_LINE = 9


def with_frame_time(value: bytes) -> bytes:
    return HUMANOID.replace(b"Frame Time: 0.033333", b"Frame Time: " + value)


def with_spine_channels(tags: list) -> bytes:
    """humanoid.bvh with the spine's rotation channels cut to `tags` (a
    prefix of Z Y X) and the matching columns dropped from every row."""
    lines = HUMANOID.splitlines()
    assert lines[SPINE_CHANNELS_LINE - 1].split()[2:] == [b"Zrotation", b"Yrotation", b"Xrotation"]
    lines[SPINE_CHANNELS_LINE - 1] = b"    CHANNELS %d %s" % (len(tags), b" ".join(tags))
    for i in range(FRAME_TIME_LINE, len(lines)):
        row = lines[i].split()
        lines[i] = b" ".join(row[: 6 + len(tags)] + row[9:])
    return b"\n".join(lines) + b"\n"


class TestFrameTime:
    """A frame time whose rate 1/t is not finite (a subnormal one), or that
    is not finite itself, is a format error wherever a clip is read."""

    @pytest.mark.parametrize("value", [b"1e-320", b"5e-309", b"inf", b"1e400"])
    def test_parse_rejects(self, value):
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(with_frame_time(value))
        assert info.value.line == FRAME_TIME_LINE
        assert "frame time" in info.value.message

    @pytest.mark.parametrize("frame_time", [1e-320, float("inf")])
    def test_motion_clip_rejects(self, frame_time):
        skeleton = bvh.parse(HUMANOID).skeleton
        with pytest.raises(ValueError, match="frame_time"):
            bvh.MotionClip(skeleton, frame_time, np.zeros((1, skeleton.channel_count)))
        with pytest.raises(ValueError, match="frame_time"):
            EncodedClip(ReprKind.QUATERNIONS, skeleton, frame_time,
                        np.zeros((1, 3 + 4 * skeleton.num_encoded)))

    @pytest.mark.parametrize("value", [b"1e-320", b"inf"])
    def test_cli_exits_3(self, tmp_path, capsys, value):
        path = tmp_path / "fast.bvh"
        path.write_bytes(with_frame_time(value))
        out = tmp_path / "out.dqm"
        for argv in (("inspect", path), ("inspect", path, "--json"),
                     ("encode", path, "--fps", "30", "-o", out), ("encode", path, "-o", out),
                     ("roundtrip", path, "--fps", "30"), ("roundtrip", path)):
            capsys.readouterr()
            assert main([str(a) for a in argv]) == 3, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error:"), argv
            assert "Infinity" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("frame_time", [1e-7, 4.9e-7, 5e-7, 5e-324 * 2**60])
    def test_short_frame_time_written_readably(self, tmp_path, frame_time):
        # six decimals print 0.000000, which `parse` would reject
        clip = bvh.parse(HUMANOID)
        clip = bvh.MotionClip(clip.skeleton, frame_time, clip.frames)
        text = bvh.write(clip)
        assert f"Frame Time: {frame_time!r}\n" in text
        assert bvh.parse(text).frame_time == frame_time
        data = bytearray(container_bytes(ReprKind.DUALQUAT))
        at = container._HEADER.size - 32 - 8
        data[at : at + 8] = struct.pack("<d", frame_time)
        path, out = tmp_path / "short.dqm", tmp_path / "out.bvh"
        path.write_bytes(bytes(data))
        assert quiet_main("decode", path, "-o", out) == 0
        assert bvh.parse_file(out).frame_time == frame_time

    @pytest.mark.parametrize("frame_time", [5.000001e-7, 1 / 120, 2.5])
    def test_frame_time_six_decimals(self, frame_time):
        clip = bvh.parse(HUMANOID)
        text = bvh.write(bvh.MotionClip(clip.skeleton, frame_time, clip.frames))
        assert f"Frame Time: {frame_time:.6f}\n" in text

    def test_container_decode_exits_3(self, tmp_path):
        data = bytearray(container_bytes(ReprKind.DUALQUAT))
        at = container._HEADER.size - 32 - 8  # the frame time, before the digest
        data[at : at + 8] = struct.pack("<d", 1e-320)
        path, out = tmp_path / "fast.dqm", tmp_path / "out.bvh"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError):
            container.from_bytes(bytes(data))
        assert quiet_main("decode", path, "-o", out) == 3
        assert not out.exists()

    @pytest.mark.parametrize("field, at", [("stats flag", 9), ("reserved", 10)])
    @pytest.mark.parametrize("value", [2, 7])
    def test_container_header_fields_exit_3(self, tmp_path, field, at, value):
        """A stats flag other than 0 or 1 and a nonzero reserved field
        are rejected, not read as a standardized clip or ignored."""
        data = bytearray(container_bytes(ReprKind.DUALQUAT))
        data[at] = value
        path, out = tmp_path / "field.dqm", tmp_path / "out.bvh"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match=field):
            container.from_bytes(bytes(data))
        assert quiet_main("decode", path, "-o", out) == 3
        assert not out.exists()
        assert quiet_main("validate", path) == 3
        ok = tmp_path / "ok.dqm"
        ok.write_bytes(container_bytes(ReprKind.DUALQUAT))
        assert quiet_main("loss", path, ok) == 3
        assert quiet_main("loss", ok, path) == 3


class TestRotationChannels:
    """A joint rotates about all three axes or not at all: one or two
    rotation channels have no Euler order to convert through."""

    @pytest.mark.parametrize("tags", [[b"Zrotation", b"Yrotation"], [b"Xrotation"]])
    def test_parse_rejects_at_the_channels_line(self, tmp_path, tags):
        text = with_spine_channels(tags)
        with pytest.raises(UnsupportedChannelError) as info:
            bvh.parse(text)
        assert info.value.line == SPINE_CHANNELS_LINE
        path = tmp_path / "two.bvh"
        path.write_bytes(text)
        for argv in (("inspect", path), ("roundtrip", path),
                     ("encode", path, "-o", tmp_path / "out.dqm")):
            assert quiet_main(*argv) == 3, argv

    def test_skeleton_and_container_reject(self, tmp_path):
        data = container_bytes(ReprKind.DUALQUAT)
        block = container.from_bytes(data).skeleton.to_dict()
        block["joints"][1]["channels"] = ["Zrotation", "Yrotation"]
        with pytest.raises(ValueError, match="rotation channels"):
            bvh.Skeleton.from_dict(block)
        canonical = json.dumps(block, sort_keys=True, separators=(",", ":")).encode()
        head = with_digest(with_skeleton_block(data, canonical), hashlib.sha256(canonical).digest())
        with pytest.raises(ContainerError):
            container.from_bytes(head)
        path, out = tmp_path / "two.dqm", tmp_path / "out.bvh"
        path.write_bytes(head)
        assert quiet_main("decode", path, "-o", out) == 3
        assert not out.exists()


HUMANOID_TEXT = HUMANOID.decode()
FRAMES_LINE = FRAME_TIME_LINE - 1
FIRST_ROW_LINE = FRAME_TIME_LINE + 1


def with_first_value(token: str, row: int = 0) -> str:
    """humanoid.bvh with the first value of motion row `row` replaced."""
    lines = HUMANOID_TEXT.split("\n")
    at = FIRST_ROW_LINE - 1 + row
    lines[at] = token + " " + lines[at].split(" ", 1)[1]
    return "\n".join(lines)


class TestNumberSyntax:
    """Numbers are plain ASCII decimal or exponent syntax: no digit-group
    underscores and no non-ASCII digits, in the header and in the motion
    rows. Each error keeps its type, message and line."""

    @pytest.mark.parametrize("token", ["1_0", "１２", "٣", "1_000.5", "-0_1e2"])
    @pytest.mark.parametrize("row", [0, 9])
    def test_motion_value(self, tmp_path, token, row):
        text = with_first_value(token, row)
        with pytest.raises(ChannelMismatchError) as info:
            bvh.parse(text)
        assert info.value.message == "non-numeric channel value"
        assert info.value.line == FIRST_ROW_LINE + row
        path = tmp_path / "digits.bvh"
        path.write_text(text, encoding="utf-8")
        assert quiet_main("inspect", path) == 3
        assert quiet_main("encode", path, "-o", tmp_path / "out.dqm") == 3
        assert not (tmp_path / "out.dqm").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_value(self, token):
        with pytest.raises(ChannelMismatchError) as info:
            bvh.parse(with_first_value(token, 3))
        assert info.value.message == "non-finite channel value"
        assert info.value.line == FIRST_ROW_LINE + 3

    @pytest.mark.parametrize("old, new, line, message", [
        ("Frames: 16", "Frames: 1_6", FRAMES_LINE, "frame count must be an integer"),
        ("Frames: 16", "Frames: １６", FRAMES_LINE, "frame count must be an integer"),
        ("Frame Time: 0.033333", "Frame Time: 0.033_333", FRAME_TIME_LINE,
         "frame time must be numeric"),
        ("Frame Time: 0.033333", "Frame Time: ０.033333", FRAME_TIME_LINE,
         "frame time must be numeric"),
        ("OFFSET 0.000000 2.100000", "OFFSET 0_0 2.100000", SPINE_CHANNELS_LINE - 1,
         "OFFSET values must be numeric"),
        ("OFFSET 0.000000 2.100000", "OFFSET 0.000000 ２.100000", SPINE_CHANNELS_LINE - 1,
         "OFFSET values must be numeric"),
        ("CHANNELS 3 Zrotation Yrotation Xrotation", "CHANNELS ３ Zrotation Yrotation Xrotation",
         SPINE_CHANNELS_LINE, "CHANNELS count must be an integer"),
        ("CHANNELS 3 Zrotation Yrotation Xrotation", "CHANNELS 0_3 Zrotation Yrotation Xrotation",
         SPINE_CHANNELS_LINE, "CHANNELS count must be an integer"),
    ])
    def test_header_numbers(self, tmp_path, old, new, line, message):
        text = HUMANOID_TEXT.replace(old, new, 1)
        assert text != HUMANOID_TEXT
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(text)
        assert (info.value.message, info.value.line) == (message, line)
        path = tmp_path / "header.bvh"
        path.write_text(text, encoding="utf-8")
        assert quiet_main("inspect", path) == 3
        assert quiet_main("encode", path, "-o", tmp_path / "out.dqm") == 3

    @pytest.mark.parametrize("space", ["\xa0", "　", " "], ids=repr)
    def test_unicode_spaces_still_separate(self, space):
        # str.split splits on these, so the tokens between them are plain
        # numbers: the verdict is per token, not per row.
        lines = HUMANOID_TEXT.split("\n")
        lines[FIRST_ROW_LINE + 1] = lines[FIRST_ROW_LINE + 1].replace(" ", space)
        clip = bvh.parse("\n".join(lines))
        assert clip.frames.tobytes() == bvh.parse(HUMANOID_TEXT).frames.tobytes()

    def test_joint_names_keep_underscores(self):
        assert "l_collar" in bvh.parse(HUMANOID_TEXT).skeleton.names


class TestContainerInput:
    def test_deeply_nested_skeleton_block(self, tmp_path):
        # the block's own digest, so that it reaches the JSON parser
        block = b"[" * 200_000
        data = with_skeleton_block(container_bytes(ReprKind.DUALQUAT), block)
        data = with_digest(data, hashlib.sha256(block).digest())
        with pytest.raises(ContainerError, match="bad skeleton block"):
            container.from_bytes(data)
        path = tmp_path / "nested.dqm"
        path.write_bytes(data)
        assert quiet_main("validate", path) == 3

    def test_second_end_site_in_the_skeleton_block(self, tmp_path):
        """A block that `Skeleton` refuses, with its own digest: the
        container is a format error, and `decode` writes no BVH that its
        own parser would reject."""
        data = container_bytes(ReprKind.DUALQUAT)
        skeleton = container.from_bytes(data).skeleton.to_dict()
        end = next(j for j in skeleton["joints"] if j["end_site"])
        skeleton["joints"].append(dict(end, name=end["name"] + "_2"))
        block = json.dumps(skeleton).encode()
        data = with_digest(with_skeleton_block(data, block), hashlib.sha256(block).digest())
        with pytest.raises(ContainerError, match="bad skeleton block: .* more than one end site"):
            container.from_bytes(data)
        path, out = tmp_path / "two_ends.dqm", tmp_path / "two_ends.bvh"
        path.write_bytes(data)
        assert quiet_main("decode", path, "-o", out) == 3
        assert not out.exists()

    def test_reindented_block_with_its_own_digest(self):
        data = container_bytes(ReprKind.DUALQUAT)
        skeleton = container.from_bytes(data).skeleton
        block = json.dumps(skeleton.to_dict(), indent=1).encode()
        assert block != skeleton.canonical_json
        reindented = with_digest(with_skeleton_block(data, block), hashlib.sha256(block).digest())
        loaded = container.from_bytes(reindented)
        # its own memo entry, beside the canonical block's
        assert loaded.skeleton is not skeleton
        assert container.from_bytes(reindented).skeleton is loaded.skeleton
        assert container.from_bytes(data).skeleton is skeleton
        assert loaded.skeleton == skeleton
        # the decoded skeleton serializes itself, not the stored block
        assert loaded.skeleton.canonical_json == skeleton.canonical_json
        assert container.to_bytes(loaded) == data

    def test_non_canonical_block_with_the_canonical_digest(self, tmp_path):
        data = container_bytes(ReprKind.DUALQUAT)
        skeleton = container.from_bytes(data).skeleton
        block = json.dumps(skeleton.to_dict(), indent=1).encode()
        bad = with_skeleton_block(data, block)
        assert bad[container._HEADER.size - 32 : container._HEADER.size] == container.skeleton_digest(skeleton)
        with pytest.raises(ContainerError, match="skeleton digest mismatch"):
            container.from_bytes(bad)
        path, out = tmp_path / "bad.dqm", tmp_path / "out.bvh"
        path.write_bytes(bad)
        assert quiet_main("decode", path, "-o", out) == 3
        assert not out.exists()

    def test_flipped_block_byte(self):
        data = container_bytes(ReprKind.QUATERNIONS)
        skeleton = container.from_bytes(data).skeleton  # the intact block is memoized
        (length,) = struct.unpack_from("<I", data, container._HEADER.size)
        at = container._HEADER.size + 4 + length // 2
        flipped = data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]
        with pytest.raises(ContainerError, match="skeleton digest mismatch"):
            container.from_bytes(flipped)
        assert container.from_bytes(data).skeleton is skeleton

    @pytest.mark.parametrize("field, value", BAD_JOINT_FIELDS.values(), ids=BAD_JOINT_FIELDS.keys())
    def test_mistyped_joint_field(self, tmp_path, field, value):
        skeleton = container.from_bytes(container_bytes(ReprKind.DUALQUAT)).skeleton.to_dict()
        joint = skeleton["joints"][1]
        if value is MISSING:
            del joint[field]
        else:
            joint[field] = value
        with pytest.raises(InvalidValueError):
            bvh.Skeleton.from_dict(skeleton)
        self.assert_rejected(tmp_path, json.dumps(skeleton).encode())

    @pytest.mark.parametrize("data", [[], {}, {"joints": {}}, {"joints": [[]]}], ids=repr)
    def test_not_a_skeleton_mapping(self, tmp_path, data):
        with pytest.raises(InvalidValueError):
            bvh.Skeleton.from_dict(data)
        self.assert_rejected(tmp_path, json.dumps(data).encode())

    def test_utf16_block(self, tmp_path):
        skeleton = container.from_bytes(container_bytes(ReprKind.DUALQUAT)).skeleton
        self.assert_rejected(tmp_path, json.dumps(skeleton.to_dict()).encode("utf-16"))

    @staticmethod
    def assert_rejected(tmp_path, block):
        """A container holding `block` with its own digest fails to read,
        and `validate` and `decode` exit 3 on it, writing nothing."""
        data = with_digest(with_skeleton_block(container_bytes(ReprKind.DUALQUAT), block),
                           hashlib.sha256(block).digest())
        with pytest.raises(ContainerError, match="bad skeleton block"):
            container.from_bytes(data)
        path, out = tmp_path / "bad.dqm", tmp_path / "out.bvh"
        path.write_bytes(data)
        assert quiet_main("validate", path) == 3
        assert quiet_main("decode", path, "-o", out) == 3
        assert not out.exists()

    @staticmethod
    def truncated_at(data: bytes, part: str) -> bytes:
        """`data` cut inside the header, the skeleton block's length field,
        its JSON or the statistics rows."""
        at = container._HEADER.size
        (length,) = struct.unpack_from("<I", data, at)
        cut = {"header": at - 1, "block length": at + 2, "block": at + 4 + length // 2,
               "stats": at + 4 + length + 8}[part]
        return data[:cut]

    @pytest.mark.parametrize("part, message", [
        ("header", "truncated header"),
        ("block length", "truncated skeleton block"),
        ("block", "truncated skeleton block"),
        ("stats", "truncated statistics rows"),
    ])
    def test_truncated(self, tmp_path, part, message):
        data = self.truncated_at(container_bytes(ReprKind.DUALQUAT, standardized=True), part)
        with pytest.raises(ContainerError) as info:
            container.from_bytes(data)
        assert type(info.value) is ContainerError and str(info.value) == message
        path = tmp_path / "cut.dqm"
        path.write_bytes(data)
        assert quiet_main("validate", path) == 3

    def test_joint_count_beyond_the_skeleton(self):
        data = container_bytes(ReprKind.DUALQUAT)
        at = struct.calcsize("<4sIBBH")  # the header's joint count
        (joints,) = struct.unpack_from("<I", data, at)
        assert joints == container.from_bytes(data).joint_count
        bad = data[:at] + struct.pack("<I", joints + 1) + data[at + 4:]
        with pytest.raises(ContainerError) as info:
            container.from_bytes(bad)
        assert type(info.value) is ContainerError
        assert str(info.value) == "joint count disagrees with skeleton"

    @pytest.mark.parametrize("kind", list(ReprKind))
    @pytest.mark.parametrize("standardized", [False, True])
    def test_written_containers_read_back(self, rng, kind, standardized):
        skeletons = [bvh.parse(HUMANOID).skeleton] + [
            oracles.random_skeleton(rng, n, end_sites=True) for n in (1, 2, 9)]
        for skeleton in skeletons:
            frames = rng.uniform(-90.0, 90.0, (4, skeleton.channel_count))
            clip = bvh.MotionClip(skeleton, 1 / 30, frames)
            encoded = encode(clip_to_local(clip), kind, clip.frame_time)
            if standardized:
                encoded = standardize(encoded, fit_stats(encoded))
            data = container.to_bytes(encoded)
            loaded = container.from_bytes(data)
            assert loaded.skeleton == skeleton
            assert container.to_bytes(loaded) == data


class TestSkeletonMemo:
    """`from_bytes` builds one skeleton per distinct verified block."""

    def test_reads_of_one_block_share_one_skeleton(self):
        dq, quat = container_bytes(ReprKind.DUALQUAT), container_bytes(ReprKind.QUATERNIONS)
        skeleton = container.from_bytes(dq).skeleton
        assert container.from_bytes(dq).skeleton is skeleton
        assert container.from_bytes(quat).skeleton is skeleton

    def test_memo_is_bounded(self, rng):
        container._skeleton.cache_clear()
        size = container.SKELETON_MEMO_SIZE
        skeletons = [oracles.random_skeleton(rng, 3) for _ in range(size + 1)]
        blobs = [container.to_bytes(encode(oracles.random_poses(rng, s, 2), ReprKind.DUALQUAT))
                 for s in skeletons]
        assert len({s.canonical_json for s in skeletons}) == size + 1
        first = container.from_bytes(blobs[0]).skeleton
        for blob in blobs[1:]:
            container.from_bytes(blob)
        assert container._skeleton.cache_info().currsize <= size
        again = container.from_bytes(blobs[0]).skeleton
        assert again is not first
        assert again == first

    def test_bad_block_raises_on_every_read(self):
        block = json.dumps({"joints": {}}).encode()
        data = with_digest(with_skeleton_block(container_bytes(ReprKind.DUALQUAT), block),
                           hashlib.sha256(block).digest())
        misses = container._skeleton.cache_info().misses
        for _ in range(2):
            with pytest.raises(ContainerError, match="bad skeleton block"):
                container.from_bytes(data)
        assert container._skeleton.cache_info().misses == misses + 2


class TestNumericRange:
    """Finite values whose squares overflow are a format error (exit 3),
    not an inf or NaN written out under exit 0."""

    @pytest.mark.parametrize("kind", list(ReprKind))
    def test_huge_container_features(self, tmp_path, kind):
        clip = container.from_bytes(container_bytes(kind))
        features = clip.features.copy()
        features[:, 3:] *= 1e200
        path, out, ok = tmp_path / "huge.dqm", tmp_path / "out.bvh", tmp_path / "ok.dqm"
        container.write_file(path, EncodedClip(kind, clip.skeleton, clip.frame_time, features))
        ok.write_bytes(container_bytes(kind))
        if kind.has_rotations:
            assert quiet_main("decode", path, "-o", out) == 3
            assert not out.exists()
        if kind.sign_sensitive:
            assert quiet_main("validate", path) == 3
        assert quiet_main("loss", path, ok) == 3
        assert quiet_main("loss", ok, path) == 3
        if kind.sign_sensitive:  # one frame: no continuity dot, only the unit residuals overflow
            container.write_file(path, EncodedClip(kind, clip.skeleton, clip.frame_time, features[:1]))
            assert quiet_main("validate", path) == 3

    def test_huge_offsets(self, tmp_path):
        path = tmp_path / "huge.bvh"
        path.write_bytes(re.sub(rb"OFFSET \S+", b"OFFSET 1e300", HUMANOID))
        assert quiet_main("inspect", path) == 0
        assert quiet_main("encode", path, "-o", tmp_path / "out.dqm") == 3
        assert quiet_main("roundtrip", path) == 3


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

#: Fragments that reach past the first syntax check more often than
#: random bytes do.
BVH_FRAGMENTS = [
    b"\n", b" ", b"{", b"}", b"ROOT r", b"JOINT j", b"End Site", b"OFFSET 0 0 0",
    b"CHANNELS 3 Zrotation Yrotation Xrotation", b"CHANNELS 1 Xposition", b"MOTION",
    b"Frames: 99999999999", b"Frames: -1", b"Frame Time: 0", b"1e400", b"nan", b"-",
    b"\xff", b"\xef\xbb\xbf", b"\r", b"\t",
]

EDITS = st.lists(
    st.tuples(
        st.integers(0, 1 << 20),  # where, wrapped to the data length
        st.integers(0, 12),  # bytes removed there
        st.one_of(  # bytes put in
            st.sampled_from(BVH_FRAGMENTS),
            st.text(string.printable, max_size=8).map(str.encode),
            st.binary(max_size=8),
        ),
    ),
    min_size=1,
    max_size=3,
)


def mutated(data: bytes, edits) -> bytes:
    for at, cut, insert in edits:
        at %= len(data) + 1
        data = data[:at] + insert + data[at + cut :]
    return data


BVH_SOURCES = [path.read_bytes() for path in fixture_corpus()]
CONTAINER_SOURCES = [
    container_bytes(ReprKind.DUALQUAT),
    container_bytes(ReprKind.QUATERNIONS, standardized=True),
    container_bytes(ReprKind.ORTHO6D_POSITIONS),
]


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(BVH_SOURCES), edits=EDITS)
def test_parse_raises_only_motion_errors(source, edits):
    try:
        bvh.parse(mutated(source, edits))
    except MotionError:
        pass


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(CONTAINER_SOURCES), edits=EDITS)
def test_from_bytes_raises_only_motion_errors(source, edits):
    try:
        container.from_bytes(mutated(source, edits))
    except MotionError:
        pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda values: st.lists(values, max_size=4) | st.dictionaries(st.text(max_size=4), values, max_size=4),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(joint=st.integers(0, 3), field=st.sampled_from(sorted(bvh._JOINT_FIELDS)), value=JSON_VALUES)
def test_skeleton_block_values(joint, field, value):
    # any JSON value in any joint field reads as a skeleton or fails as a
    # ContainerError, with the block's own digest
    data = CONTAINER_SOURCES[0]
    skeleton = container.from_bytes(data).skeleton.to_dict()
    skeleton["joints"][joint][field] = value
    block = json.dumps(skeleton).encode()
    try:
        container.from_bytes(with_digest(with_skeleton_block(data, block), hashlib.sha256(block).digest()))
    except ContainerError:
        pass


#: Python values for a `JointSpec` field: JSON's, and the tuples, numpy
#: values, sets and generators a Python caller may pass.
PYTHON_VALUES = (
    JSON_VALUES
    | st.tuples(JSON_VALUES, JSON_VALUES, JSON_VALUES)
    | st.builds(np.int64, st.integers(-2, 2))
    | st.builds(np.bool_, st.booleans())
    | st.builds(np.array, st.lists(st.floats(), max_size=4))
    | st.frozensets(st.sampled_from(sorted(bvh._CHANNEL_TAGS)), max_size=3)
    | st.builds(iter, st.lists(st.text(max_size=4), max_size=3))
)
CHILD = {"name": "child", "parent": 0, "offset": [0.0, 1.0, 0.0],
         "channels": ("Zrotation", "Xrotation", "Yrotation"), "is_end_site": False}


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(sorted(CHILD)), value=PYTHON_VALUES)
def test_joint_spec_values(field, value):
    # any value in any field of the child either builds a two-joint
    # skeleton or fails as a MotionError
    root = JointSpec("root", None, [0.0, 0.0, 0.0], ("Xposition", "Yposition", "Zposition"))
    try:
        skeleton = bvh.Skeleton([root, JointSpec(**{**CHILD, field: value})])
    except MotionError:
        return
    assert skeleton.num_joints == 2


@settings(max_examples=25, deadline=None)
@given(
    bvh_source=st.sampled_from(BVH_SOURCES),
    container_source=st.sampled_from(CONTAINER_SOURCES),
    edits=EDITS,
)
def test_cli_exit_codes(bvh_source, container_source, edits):
    with tempfile.TemporaryDirectory() as tmp:
        text, data = Path(tmp) / "in.bvh", Path(tmp) / "in.dqm"
        text.write_bytes(mutated(bvh_source, edits))
        data.write_bytes(mutated(container_source, edits))
        for argv in (
            ("inspect", text, "--json"),
            ("roundtrip", text),
            ("encode", text, "--repr", "quat", "-o", Path(tmp) / "out.dqm"),
            ("validate", data),
            ("decode", data, "-o", Path(tmp) / "out.bvh"),
            ("loss", data, data),
        ):
            assert quiet_main(*argv) in EXIT_CODES, argv
