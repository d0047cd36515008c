"""BVH parser/writer against the hand-built fixture corpus."""

import dataclasses
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dqmotion import bvh, container
from dqmotion.encoding import ReprKind, encode
from dqmotion.kinematics import clip_to_local
from dqmotion.errors import (
    BadRateError,
    BvhSyntaxError,
    ChannelMismatchError,
    InvalidValueError,
    UnsupportedChannelError,
)

import oracles
from conftest import fixture_corpus, malformed_corpus

WALK = Path(__file__).parent.parent / "demos" / "data" / "walk.bvh"


class TestParseTwoJoint:
    """The fixture values below were transcribed from the file by hand."""

    def test_skeleton(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        skeleton = clip.skeleton
        assert skeleton.names == ["hip", "knee"]
        assert skeleton.joints[0].parent is None
        assert skeleton.joints[1].parent == 0
        assert skeleton.joints[0].channels == (
            "Xposition", "Yposition", "Zposition", "Zrotation", "Yrotation", "Xrotation",
        )
        assert skeleton.joints[1].channels == ("Zrotation", "Yrotation", "Xrotation")
        assert skeleton.joints[1].rotation_order == "ZYX"
        assert np.allclose(skeleton.joints[1].offset, [0.0, -4.5, 0.0])
        assert skeleton.channel_count == 9

    def test_frames(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        assert clip.frames.shape == (2, 9)
        assert np.allclose(
            clip.frames[0], [1.0, 2.0, 3.0, 10.0, 20.0, 30.0, -15.0, 0.0, 45.0]
        )
        assert np.allclose(
            clip.frames[1], [-1.5, 2.5, 0.0, 0.0, 80.0, 0.0, 5.0, -5.0, 60.0]
        )
        assert np.isclose(clip.frame_time, 0.00833333)
        assert np.isclose(clip.fps, 120.0, atol=1e-3)


class TestParseCorpus:
    @pytest.mark.parametrize("path", fixture_corpus(), ids=lambda p: p.name)
    def test_topological_order(self, path):
        skeleton = bvh.parse_file(path).skeleton
        for idx, joint in enumerate(skeleton.joints):
            if idx == 0:
                assert joint.parent is None
            else:
                assert joint.parent < idx

    def test_end_sites_retained(self, fixtures_dir):
        skeleton = bvh.parse_file(fixtures_dir / "gimbal_lock.bvh").skeleton
        ends = [j for j in skeleton.joints if j.is_end_site]
        assert len(ends) == 1
        assert ends[0].channels == ()
        assert np.allclose(ends[0].offset, [0.0, 0.8, 0.0])

    def test_whitespace_tolerance(self, fixtures_dir):
        # arm_chain.bvh mixes CRLF line endings, tabs and double spaces.
        clip = bvh.parse_file(fixtures_dir / "arm_chain.bvh")
        assert clip.skeleton.names[:3] == ["shoulder", "elbow", "wrist"]
        assert clip.frames.shape == (3, 12)
        assert np.allclose(clip.frames[2, 3:6], [0.7, 1.2, -0.15])

    def test_root_channel_order_honored(self, fixtures_dir):
        skeleton = bvh.parse_file(fixtures_dir / "arm_chain.bvh").skeleton
        assert skeleton.joints[0].channels == (
            "Zrotation", "Xrotation", "Yrotation", "Xposition", "Yposition", "Zposition",
        )
        assert skeleton.joints[0].rotation_order == "ZXY"


class TestParseErrors:
    def test_zero_frames(self, fixtures_dir):
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse_file(fixtures_dir / "malformed_frames0.bvh")
        assert "at least 1" in str(info.value)
        assert info.value.line == 8

    def test_unknown_channel(self, fixtures_dir):
        with pytest.raises(UnsupportedChannelError) as info:
            bvh.parse_file(fixtures_dir / "malformed_channel.bvh")
        assert "Wrotation" in str(info.value)

    def test_row_width(self, fixtures_dir):
        with pytest.raises(ChannelMismatchError) as info:
            bvh.parse_file(fixtures_dir / "malformed_rowwidth.bvh")
        assert info.value.line == 11  # the short second motion row

    def test_missing_hierarchy(self, fixtures_dir):
        with pytest.raises(BvhSyntaxError):
            bvh.parse_file(fixtures_dir / "malformed_nohierarchy.bvh")

    def test_truncated_motion(self, fixtures_dir):
        with pytest.raises(BvhSyntaxError):
            bvh.parse_file(fixtures_dir / "malformed_truncated.bvh")

    def test_line_numbers_are_anchored(self, fixtures_dir):
        for path in malformed_corpus():
            with pytest.raises(BvhSyntaxError) as info:
                bvh.parse_file(path)
            assert info.value.line >= 1
            assert f"line {info.value.line}" in str(info.value)

    def test_non_finite_channel_value(self):
        text = (
            "HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Yrotation Xrotation\n}\n"
            "MOTION\nFrames: 1\nFrame Time: 0.04\n0 nan 0\n"
        )
        with pytest.raises(ChannelMismatchError) as info:
            bvh.parse(text)
        assert info.value.line == 10

    def test_two_rotation_channels_on_child(self):
        text = (
            "HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Yrotation Xrotation\n"
            " JOINT b\n {\n  OFFSET 1 0 0\n  CHANNELS 3 Xposition Yrotation Xrotation\n }\n}\n"
            "MOTION\nFrames: 1\nFrame Time: 0.04\n0 0 0 0 0 0\n"
        )
        with pytest.raises(UnsupportedChannelError) as info:
            bvh.parse(text)
        assert type(info.value) is UnsupportedChannelError
        assert (info.value.message, info.value.line) == (
            "a joint needs zero or three rotation channels, not 2", 9)

    ZYX = " CHANNELS 3 Zrotation Yrotation Xrotation\n"
    MOTION = "MOTION\nFrames: 1\nFrame Time: 0.04\n"

    @pytest.mark.parametrize("text, line, message", [
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Xrotation Zrotation\n}\n"
         + MOTION + "0 0 0\n", 5, "duplicate channel tag on joint 'a'"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 nan\n" + ZYX + "}\n" + MOTION + "0 0 0\n",
         4, "non-finite offset on joint 'a'"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + " End Site\n {\n  OFFSET 0 1e400 0\n }\n}\n"
         + MOTION + "0 0 0\n", 8, "non-finite offset on joint 'a_end'"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + " JOINT b\n {\n  OFFSET 1 0 0\n " + ZYX
         + " }\n JOINT a\n {\n  OFFSET 1 0 0\n " + ZYX + " }\n}\n" + MOTION + "0 0 0 0 0 0 0 0 0\n",
         11, "duplicate joint name 'a'"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + " JOINT a_end\n {\n  OFFSET 1 0 0\n " + ZYX
         + " }\n End Site\n {\n  OFFSET 0 1 0\n }\n}\n" + MOTION + "0 0 0 0 0 0\n",
         11, "duplicate joint name 'a_end'"),
    ], ids=["duplicate channel", "non-finite offset", "non-finite end-site offset",
            "duplicate joint", "end site named like a joint"])
    def test_skeleton_faults_at_their_line(self, text, line, message):
        # the faults Skeleton checks are reported at the line that holds them
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(text)
        assert (info.value.message, info.value.line) == (message, line)

    @pytest.mark.parametrize("text, line, message", [
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + " JOINT b\n {\n  OFFSET 1 0 0\n"
         "  CHANNELS 4 Xposition Zrotation Yrotation Xrotation\n }\n}\n" + MOTION + "0 0 0 0 0 0 0\n",
         9, "position channels are only allowed on the root"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + " End Site\n {\n  OFFSET 0 1 0\n }\n"
         " End Site\n {\n  OFFSET 0 2 0\n }\n}\n" + MOTION + "0 0 0\n",
         10, "multiple End Site blocks in one joint"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + "}\nMOTION\nFrames: 1\nFrame Time: 0\n0 0 0\n",
         9, "frame time must be positive"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + "}\nMOTION\nFrames: 1\nFrame Time: -0.5\n0 0 0\n",
         9, "frame time must be positive"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + "}\nROOT b\n{\n OFFSET 0 0 0\n" + ZYX + "}\n"
         + MOTION + "0 0 0 0 0 0\n", 7, "multiple ROOT joints are not supported"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + "}\nJOINT b\n{\n OFFSET 0 0 0\n" + ZYX + "}\n"
         + MOTION + "0 0 0 0 0 0\n", 7, "expected 'MOTION'"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + " Joint b\n {\n  OFFSET 1 0 0\n " + ZYX
         + " }\n}\n" + MOTION + "0 0 0 0 0 0\n", 6, "unexpected token 'Joint' in joint block"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + "\n\n", 5, "unexpected end of file"),
        ("", 0, "expected 'HIERARCHY'"),
        ("  \n\t\n \r\n", 0, "expected 'HIERARCHY'"),
        ("HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n" + ZYX + "}\n" + MOTION + "0 0 0\n\n\n1 2 3\n",
         13, "trailing content after declared frames"),
    ], ids=["position channel on a joint", "two end sites", "zero frame time", "negative frame time",
            "second root", "joint after the root block", "unknown keyword", "end inside the root block",
            "empty text", "whitespace-only text", "row after the declared frames"])
    def test_parser_faults_at_their_line(self, text, line, message):
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(text)
        assert type(info.value) is BvhSyntaxError
        assert (info.value.message, info.value.line) == (message, line)

    def test_blank_lines_split_to_nothing(self):
        # `_Tokens.eof` skips the lines `str.strip` empties, which are the lines `str.split` empties
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        assert [c for c in chars if not c.strip()] == [c for c in chars if not c.split()]

    def test_second_root_rejected(self):
        text = (
            "HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Yrotation Xrotation\n}\n"
            "ROOT b\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Yrotation Xrotation\n}\n"
            "MOTION\nFrames: 1\nFrame Time: 0.04\n0 0 0\n"
        )
        with pytest.raises(BvhSyntaxError):
            bvh.parse(text)

    def test_trailing_rows_rejected(self):
        text = (
            "HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Yrotation Xrotation\n}\n"
            "MOTION\nFrames: 1\nFrame Time: 0.04\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(BvhSyntaxError):
            bvh.parse(text)


class TestEdgeCases:
    def test_channelless_joint_accepted(self):
        text = (
            "HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Yrotation Xrotation\n"
            " JOINT fixed\n {\n  OFFSET 1 0 0\n  CHANNELS 0\n }\n}\n"
            "MOTION\nFrames: 1\nFrame Time: 0.04\n10 20 30\n"
        )
        clip = bvh.parse(text)
        assert clip.skeleton.joints[1].channels == ()
        assert not clip.skeleton.joints[1].is_end_site
        assert clip.frames.shape == (1, 3)
        # Fixed joints survive the write path with an explicit CHANNELS 0.
        assert "CHANNELS 0" in bvh.write(clip)
        assert bvh.parse(bvh.write(clip)).skeleton == clip.skeleton

    def test_duplicate_channel_rejected(self):
        text = (
            "HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Zrotation Xrotation\n}\n"
            "MOTION\nFrames: 1\nFrame Time: 0.04\n0 0 0\n"
        )
        with pytest.raises(BvhSyntaxError):
            bvh.parse(text)

    def test_rotation_only_root(self):
        text = (
            "HIERARCHY\nROOT a\n{\n OFFSET 0 0 0\n CHANNELS 3 Zrotation Yrotation Xrotation\n}\n"
            "MOTION\nFrames: 2\nFrame Time: 0.04\n10 20 30\n11 21 31\n"
        )
        clip = bvh.parse(text)
        assert clip.skeleton.channel_count == 3
        poses = clip_to_local(clip)
        assert np.allclose(poses[0].root_translation, np.zeros(3))

    ZERO_WIDTH = bvh.Skeleton([bvh.JointSpec("still", None, [0.0, 0.0, 0.0], ()),
                               bvh.JointSpec("still_end", 0, [0.0, 1.0, 0.0], (), is_end_site=True)])

    def test_zero_channel_clip_round_trips(self):
        clip = bvh.MotionClip(self.ZERO_WIDTH, 1 / 30, np.zeros((3, 0)))
        text = bvh.write(clip)
        assert text.endswith("Frame Time: 0.033333\n\n\n\n")  # one blank row a frame
        back = bvh.parse(text)
        assert back.skeleton == clip.skeleton
        assert back.frames.shape == (3, 0)
        assert back.frame_time == pytest.approx(clip.frame_time, abs=1e-6)

    @pytest.mark.parametrize("frames", [4, 10**15])
    def test_zero_width_block_needs_a_line_a_frame(self, frames):
        """The blank rows bound the frame count: a block of three lines
        cannot hold more than three frames, however many are declared."""
        text = bvh.write(bvh.MotionClip(self.ZERO_WIDTH, 1 / 30, np.zeros((3, 0))))
        text = text.replace("Frames: 3\n", f"Frames: {frames}\n")
        with pytest.raises(BvhSyntaxError) as info:
            bvh.parse(text)
        assert info.value.message == "unexpected end of file"
        assert info.value.line == text.split("\n").index("Frame Time: 0.033333") + 1

    def test_stray_row_in_a_zero_width_block(self):
        text = bvh.write(bvh.MotionClip(self.ZERO_WIDTH, 1 / 30, np.zeros((3, 0))))
        lines = text.split("\n")
        lines[-3] = "0.5"  # the second of the three blank rows
        with pytest.raises(ChannelMismatchError) as info:
            bvh.parse("\n".join(lines))
        assert info.value.message == "motion row has 1 values, 0 channels declared"
        assert info.value.line == len(lines) - 2

    def test_byte_order_mark_on_text_and_bytes(self, fixtures_dir):
        text = (fixtures_dir / "humanoid.bvh").read_text()
        clips = [bvh.parse(text), bvh.parse("\ufeff" + text), bvh.parse(("\ufeff" + text).encode())]
        for clip in clips[1:]:
            assert clip.skeleton == clips[0].skeleton
            assert clip.frame_time == clips[0].frame_time
            assert clip.frames.tobytes() == clips[0].frames.tobytes()


class TestMotionBlock:
    """Which path `_read_motion` takes: the bulk read for plain text, the
    row loop for anything else, with the same frames either way."""

    @pytest.fixture
    def numbers(self, monkeypatch):
        """Counts the calls of `bvh._number`, which the row loop makes per
        value and the header per number."""
        calls = []
        number = bvh._number

        def counted(token, kind=float):
            calls.append(token)
            return number(token, kind)

        monkeypatch.setattr(bvh, "_number", counted)
        return calls

    def test_plain_text_takes_the_bulk_read(self, fixtures_dir, numbers):
        text = (fixtures_dir / "humanoid.bvh").read_text()
        bvh.parse(text)  # memoizes the header
        numbers.clear()
        bvh.parse(text)
        assert len(numbers) == 2  # the frame count and the frame time

    @pytest.fixture
    def reads(self, monkeypatch):
        """Counts the calls of `_Tokens.next`: one per header line the
        memo misses, two for the timing lines and one per row the row
        loop reads."""
        calls = []
        read = bvh._Tokens.next

        def counted(tokens):
            calls.append(tokens.pos)
            return read(tokens)

        monkeypatch.setattr(bvh._Tokens, "next", counted)
        return calls

    @pytest.mark.parametrize("name", [path.name for path in fixture_corpus()] + ["generated"])
    def test_well_formed_text_reads_no_row(self, fixtures_dir, rng, reads, name):
        """Without this, a bulk read that always fell back to the row loop
        would still give every clip right."""
        if name == "generated":
            skeleton = bvh.parse((fixtures_dir / "humanoid.bvh").read_text()).skeleton
            frames = np.round(rng.uniform(-180.0, 180.0, (300, skeleton.channel_count)), 6)
            text = bvh.write(bvh.MotionClip(skeleton, 1 / 120, frames))
        else:
            text = (fixtures_dir / name).read_text()
        first = bvh.parse(text)  # memoizes the header
        reads.clear()
        clip = bvh.parse(text)
        assert len(reads) == 2  # the 'Frames:' and the 'Frame Time:' line
        assert clip.frames.tobytes() == first.frames.tobytes()
        if name == "generated":
            assert clip.frames.tobytes() == frames.tobytes()

    @pytest.mark.parametrize("rest", ["", "\n", "\n   \n\t\n", "\n\n\n\n"], ids=repr)
    def test_blank_block_ends_the_file(self, fixtures_dir, rest):
        # `np.loadtxt` warns on a text with no data; the warning must not escape
        header, _ = split_motion((fixtures_dir / "humanoid.bvh").read_text())
        text = header + "Frames: 1\nFrame Time: 0.033333" + rest
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BvhSyntaxError) as info:
                bvh.parse(text)
        assert info.value.message == "unexpected end of file"
        assert info.value.line == text.split("\n").index("Frame Time: 0.033333") + 1

    def test_one_frame_block(self, fixtures_dir, reads):
        text = (fixtures_dir / "humanoid.bvh").read_text()
        full = bvh.parse(text)
        header, rest = split_motion(text)
        rows = rest.split("\n")[2:]
        reads.clear()  # the header is memoized
        one = bvh.parse(header + "Frames: 1\nFrame Time: 0.033333\n" + rows[0] + "\n")
        assert len(reads) == 2
        assert one.frames.shape == (1, full.skeleton.channel_count)
        assert one.frames.tobytes() == full.frames[:1].tobytes()

    @pytest.mark.parametrize("frames", [1, 3])
    def test_one_column_block(self, reads, frames):
        skeleton = bvh.Skeleton([bvh.JointSpec("slider", None, [0.0, 0.0, 0.0], ("Xposition",))])
        values = np.arange(frames, dtype=float).reshape(frames, 1) - 0.5
        text = bvh.write(bvh.MotionClip(skeleton, 1 / 30, values))
        bvh.parse(text)
        reads.clear()
        clip = bvh.parse(text)
        assert len(reads) == 2
        assert clip.frames.shape == (frames, 1)
        assert clip.frames.tobytes() == values.tobytes()

    def test_non_ascii_spaces_take_the_row_loop(self, fixtures_dir, numbers):
        text = (fixtures_dir / "humanoid.bvh").read_text()
        plain = bvh.parse(text)
        header, rows = split_motion(text)
        numbers.clear()
        spaced = bvh.parse(header + rows.replace(" ", "\u00a0"))
        assert len(numbers) == 2 + plain.frames.size
        assert spaced.skeleton is plain.skeleton
        assert spaced.frames.tobytes() == plain.frames.tobytes()


def with_joint(skeleton, index, **changes):
    """`skeleton` with one field of joint `index` changed."""
    joints = list(skeleton.joints)
    joints[index] = dataclasses.replace(joints[index], **changes)
    return bvh.Skeleton(joints)


class TestSkeletonValue:
    """A skeleton is immutable, and equal to another one exactly when the
    two list the same joints with numerically equal offsets."""

    def test_joints_cannot_be_reassigned(self):
        skeleton = bvh.parse_file(WALK).skeleton
        parents = skeleton.parent_indices
        with pytest.raises(dataclasses.FrozenInstanceError):
            skeleton.joints = skeleton.joints[:3]
        assert skeleton.num_joints == len(skeleton.parent_indices) == len(parents) == 19

    def test_equality(self):
        text = WALK.read_text()
        skeleton = bvh.parse(text).skeleton
        assert bvh.parse(text).skeleton == skeleton
        assert bvh.Skeleton.from_dict(skeleton.to_dict()) == skeleton
        offset = skeleton.joints[2].offset.copy()
        offset[2] = np.nextafter(offset[2], 1.0)
        for changed in (
            with_joint(skeleton, 3, name="throat"),
            with_joint(skeleton, 5, parent=1),
            with_joint(skeleton, 2, channels=("Xrotation", "Yrotation", "Zrotation")),
            with_joint(skeleton, 4, is_end_site=False),
            with_joint(skeleton, 2, offset=offset),
        ):
            assert changed != skeleton and skeleton != changed
        assert bvh.Skeleton(skeleton.joints[:-1]) != skeleton
        assert skeleton != "x" and not skeleton == "x"

    def test_one_end_site_per_joint(self):
        """BVH holds one End Site block per joint, so a skeleton with a
        second one, which `write` could not round-trip, is refused."""
        data = bvh.parse_file(WALK).skeleton.to_dict()
        end = next(j for j in data["joints"] if j["end_site"])
        data["joints"].append(dict(end, name=end["name"] + "_2", offset=[0.0, 1.0, 0.0]))
        parent = data["joints"][end["parent"]]["name"]
        with pytest.raises(InvalidValueError, match=f"joint '{parent}' has more than one end site"):
            bvh.Skeleton.from_dict(data)

    def test_negative_zero_offset_is_zero(self):
        skeleton = bvh.parse_file(WALK).skeleton
        assert skeleton.joints[1].offset[0] == 0.0
        flipped = with_joint(skeleton, 1, offset=[-0.0, 2.1, 0.0])
        assert np.signbit(flipped.offsets[1, 0])
        assert flipped == skeleton


class TestWrite:
    @pytest.mark.parametrize("path", fixture_corpus(), ids=lambda p: p.name)
    def test_round_trip_fixed_point(self, path):
        clip = bvh.parse_file(path)
        text = bvh.write(clip)
        reparsed = bvh.parse(text)
        assert reparsed.skeleton == clip.skeleton
        assert np.max(np.abs(reparsed.frames - clip.frames)) < 1e-5
        assert abs(reparsed.frame_time - clip.frame_time) < 1e-5
        # A second write/parse cycle is byte-identical: a true fixed point.
        assert bvh.write(reparsed) == text

    def test_single_frame_clip_writes_one_row(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        single = bvh.MotionClip(clip.skeleton, clip.frame_time, clip.frames[:1])
        text = bvh.write(single)
        motion = text.split("MOTION\n", 1)[1].splitlines()
        assert motion[0] == "Frames: 1"
        assert len(motion) == 3  # Frames, Frame Time, one data row

    def test_channel_order_verbatim(self, fixtures_dir):
        text = bvh.write(bvh.parse_file(fixtures_dir / "arm_chain.bvh"))
        assert "CHANNELS 6 Zrotation Xrotation Yrotation Xposition Yposition Zposition" in text

    def test_uses_lf_and_two_space_indent(self, fixtures_dir):
        text = bvh.write(bvh.parse_file(fixtures_dir / "two_joint.bvh"))
        assert "\r" not in text
        assert "\t" not in text
        assert "\n  JOINT knee\n" in text

    def test_hierarchy_is_built_once_per_skeleton(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
        skeleton = clip.skeleton
        clips = [clip, bvh.MotionClip(skeleton, 0.125, clip.frames[3:5] + 1.0)]
        texts = [bvh.write(c) for c in clips]
        header = skeleton._hierarchy_text
        assert all(text.startswith(header + "MOTION\n") for text in texts)
        assert bvh.write(clips[1]) == texts[1] and skeleton._hierarchy_text is header
        for text, c in zip(texts, clips):  # the same text from a skeleton with nothing cached
            uncached = bvh.Skeleton(skeleton.joints)
            assert "_hierarchy_text" not in vars(uncached)
            assert text == bvh.write(bvh.MotionClip(uncached, c.frame_time, c.frames))
        assert texts[1].split("MOTION\n", 1)[1].startswith("Frames: 2\nFrame Time: 0.125000\n")


def split_motion(text: str) -> tuple[str, str]:
    """`text` cut after its MOTION line: the hierarchy, then the rest."""
    at = text.index("\nMOTION\n") + len("\nMOTION\n")
    return text[:at], text[at:]


class TestSkeletonMemo:
    """`parse` builds one skeleton per distinct hierarchy text."""

    def test_texts_of_one_hierarchy_share_one_skeleton(self, fixtures_dir):
        text = (fixtures_dir / "humanoid.bvh").read_text()
        first = bvh.parse(text)
        row = " ".join(["1.5"] * first.skeleton.channel_count)
        header, _ = split_motion(text)
        second = bvh.parse(f"{header}Frames: 2\nFrame Time: 0.25\n{row}\n{row}\n")
        assert second.skeleton is first.skeleton
        assert (second.num_frames, second.frame_time) == (2, 0.25)
        assert np.all(second.frames == 1.5)

    def test_whitespace_variant_gets_its_own_entry(self, fixtures_dir):
        text = (fixtures_dir / "humanoid.bvh").read_text()
        header, rest = split_motion(text)
        tabbed = header.replace("  ", "\t")
        assert tabbed != header
        first = bvh.parse(text)
        misses = bvh._memo_skeleton.cache_info().misses
        again = bvh.parse(tabbed + rest)
        assert bvh._memo_skeleton.cache_info().misses == misses + 1
        assert again.skeleton == first.skeleton
        assert again.skeleton is not first.skeleton

    @pytest.mark.parametrize("line", ["MOTION ", "\tMOTION"], ids=repr)
    def test_motion_line_with_blanks_is_memoized(self, fixtures_dir, line):
        text = (fixtures_dir / "humanoid.bvh").read_text().replace("\nMOTION\n", f"\n{line}\n")
        first = bvh.parse(text)
        assert bvh.parse(text).skeleton is first.skeleton

    def test_memo_is_bounded(self, rng):
        bvh._memo_skeleton.cache_clear()
        size = bvh.SKELETON_MEMO_SIZE
        assert container.SKELETON_MEMO_SIZE == size  # one bound for both memos
        texts = [bvh.write(bvh.MotionClip(s, 1 / 30, np.zeros((1, s.channel_count))))
                 for s in (oracles.random_skeleton(rng, 3) for _ in range(size + 1))]
        assert len({split_motion(text)[0] for text in texts}) == size + 1
        first = bvh.parse(texts[0]).skeleton
        for text in texts[1:]:
            bvh.parse(text)
        assert bvh._memo_skeleton.cache_info().currsize <= size
        again = bvh.parse(texts[0]).skeleton
        assert again is not first
        assert again == first

    def test_header_fault_raises_on_every_parse(self, fixtures_dir):
        text = (fixtures_dir / "humanoid.bvh").read_text()
        bad = text.replace("OFFSET 0.000000 2.100000", "OFFSET zero 2.100000", 1)
        assert bad != text
        misses = bvh._memo_skeleton.cache_info().misses
        errors = []
        for _ in range(2):
            with pytest.raises(BvhSyntaxError) as info:
                bvh.parse(bad)
            errors.append((type(info.value), info.value.message, info.value.line))
        assert errors[0] == errors[1] == (BvhSyntaxError, "OFFSET values must be numeric", 8)
        assert bvh._memo_skeleton.cache_info().misses == misses + 2


class TestWriteFile:
    """Atomic writes give files the mode `open` would give them."""

    @pytest.fixture
    def umask(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_new_file_gets_the_open_mode(self, tmp_path, fixtures_dir, umask):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        reference = tmp_path / "open.txt"
        with open(reference, "w"):
            pass
        bvh.write_file(tmp_path / "clip.bvh", clip)
        container.write_file(tmp_path / "clip.dqm", encode(clip_to_local(clip), ReprKind.DUALQUAT))
        modes = {path.name: path.stat().st_mode for path in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["open.txt", "clip.bvh", "clip.dqm"], reference.stat().st_mode)

    @pytest.mark.parametrize("mode", [0o640, 0o600, 0o666])
    def test_replaced_file_keeps_its_mode(self, tmp_path, fixtures_dir, umask, monkeypatch, mode):
        """The temporary file is created no more open than the old file, so
        no one who could not read the old file can open the new one."""
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        path = tmp_path / "clip.bvh"
        path.write_text("old")
        path.chmod(mode)
        created, real_open = [], os.open

        def recording_open(name, flags, *args):
            fd = real_open(name, flags, *args)
            created.append(os.fstat(fd).st_mode & 0o777)
            return fd

        monkeypatch.setattr(os, "open", recording_open)
        bvh.write_file(path, clip)
        monkeypatch.undo()
        assert len(created) == 1 and created[0] & ~mode == 0
        assert path.stat().st_mode & 0o777 == mode
        assert bvh.parse_file(path).skeleton == clip.skeleton
        assert list(tmp_path.iterdir()) == [path]


    def test_failed_replace_leaves_the_target_alone(self, tmp_path, fixtures_dir, monkeypatch):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        path = tmp_path / "clip.bvh"
        path.write_text("old")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            bvh.write_file(path, clip)
        monkeypatch.undo()
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]


class TestSubsample:
    def test_120_to_30_keeps_every_fourth(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "subsample_120fps.bvh")
        out = bvh.subsample(clip, 30.0)
        assert out.num_frames == 3
        assert np.allclose(out.frames, clip.frames[[0, 4, 8]])
        assert np.isclose(out.frame_time, clip.frame_time * 4)

    def test_identity_at_source_rate(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "two_joint.bvh")
        out = bvh.subsample(clip, clip.fps)
        assert np.array_equal(out.frames, clip.frames)
        assert out.frame_time == clip.frame_time

    def test_seven_frames_stride_four(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "subsample_120fps.bvh")
        seven = bvh.MotionClip(clip.skeleton, clip.frame_time, clip.frames[:7])
        out = bvh.subsample(seven, 30.0)
        assert out.num_frames == 2
        assert np.allclose(out.frames, clip.frames[[0, 4]])

    def test_bad_rate(self, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "gimbal_lock.bvh")  # 30 fps
        with pytest.raises(BadRateError):
            bvh.subsample(clip, 60.0)
        with pytest.raises(BadRateError):
            bvh.subsample(clip, 0.0)
