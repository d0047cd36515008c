"""The bulk BVH text paths against the row-by-row oracles: `bvh.write`
byte for byte, and `bvh.parse` outcome for outcome on mutated fixture
text (an equal clip, or the same error type, message and line). Then the
skeleton checks against their per-joint form, error for error on
malformed joint lists, and the channel table's rotation entries."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dqmotion import bvh
from dqmotion.bvh import JointSpec, MotionClip
from dqmotion.errors import BvhSyntaxError, ChannelMismatchError, MotionError

import bvh_oracles
import oracles
import test_topology
from conftest import fixture_corpus

CORPUS = {path.name: path.read_text() for path in fixture_corpus()}
HUMANOID = CORPUS["humanoid.bvh"]

#: Values whose six-decimal text is easy to get wrong: signed zeros, values
#: that round to zero or to the last digit, and a large one.
EDGE_VALUES = [-0.0, 0.0, 1e-7, -1e-7, 5e-7, -5e-7, 1e15, -1e15, 0.0000005, 179.9999995]


def edge_frames(rng, skeleton, frames: int) -> np.ndarray:
    values = rng.uniform(-180.0, 180.0, size=(frames, skeleton.channel_count))
    picks = rng.uniform(size=values.shape) < 0.5
    values[picks] = rng.choice(EDGE_VALUES, size=picks.sum())
    return values


class TestWriter:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fixtures(self, name):
        clip = bvh.parse(CORPUS[name])
        assert bvh.write(clip) == bvh_oracles.write(clip)

    @pytest.mark.parametrize("frames", (1, 32))
    def test_edge_values(self, rng, frames):
        skeleton = bvh.parse(HUMANOID).skeleton
        clip = MotionClip(skeleton, 1 / 120, edge_frames(rng, skeleton, frames))
        text = bvh.write(clip)
        assert text == bvh_oracles.write(clip)
        assert "-0.000000" in text and "1000000000000000.000000" in text

    def test_not_depth_first(self, rng):
        skeleton = test_topology.not_depth_first_skeleton(rng)
        clip = MotionClip(skeleton, 1 / 30, edge_frames(rng, skeleton, 8))
        assert bvh.write(clip) == bvh_oracles.write(clip)

    def test_channelless_and_single_joint(self, rng):
        skeleton = bvh.Skeleton([bvh.JointSpec("only", None, [0.0, 1.0, 0.0], ())])
        clip = MotionClip(skeleton, 0.5, np.zeros((3, 0)))
        assert bvh.write(clip) == bvh_oracles.write(clip)
        tree = oracles.random_skeleton(rng, 6, end_sites=True)
        joints = [*tree.joints, bvh.JointSpec("fixed", 2, [1.0, 0.0, 0.0], ())]
        clip = MotionClip(bvh.Skeleton(joints), 1 / 30, edge_frames(rng, tree, 4))
        assert bvh.write(clip) == bvh_oracles.write(clip)


#: One root with six channels and a child with three: nine columns a row.
NINE_CHANNELS = bvh.Skeleton([
    JointSpec("root", None, [0.0, 0.0, 0.0],
              ("Xposition", "Yposition", "Zposition", "Zrotation", "Yrotation", "Xrotation")),
    JointSpec("child", 0, [0.0, 1.0, 0.0], ("Zrotation", "Xrotation", "Yrotation")),
])


def assert_written_as_oracle(values):
    """`bvh.write` of a clip holding `values` (any count, row-major, padded
    with zeros to whole rows) gives the oracle's bytes."""
    values = np.asarray(values, dtype=float).ravel()
    frames = np.zeros(-(-max(values.size, 1) // 9) * 9)
    frames[: values.size] = values
    clip = MotionClip(NINE_CHANNELS, 1 / 30, frames.reshape(-1, 9))
    assert bvh.write(clip) == bvh_oracles.write(clip)


class TestFixedPointWriter:
    """The writer's fixed-point motion rows against `%.6f` value by value:
    the values it formats from integers, and those it hands back to `%`
    (ties, near ties and magnitudes beyond 2**52 / 1e6)."""

    @settings(max_examples=200, deadline=None)
    @given(frames=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(9)),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_finite_double(self, frames):
        clip = MotionClip(NINE_CHANNELS, 1 / 30, frames)
        assert bvh.write(clip) == bvh_oracles.write(clip)

    def test_half_grid_ties(self, rng):
        k = np.concatenate([np.arange(40), rng.integers(0, 2**40, 400)])
        ties = (k + 0.5) / 1e6
        assert_written_as_oracle(np.concatenate([ties, -ties]))

    def test_binary_ties_and_tiny_values(self):
        assert_written_as_oracle([0.0078125, -0.0078125, 0.0, -0.0, -1e-9, 1e-9, 5e-324,
                                  -5e-324, 5e-7, -5e-7, 1.5e-6, 2.5e-6, 0.0000005, 179.9999995])

    def test_both_sides_of_the_fixed_point_range(self):
        limit = 2.0**52 / 1e6
        near = [np.nextafter(limit, 0.0), limit, np.nextafter(limit, np.inf), limit / 2,
                np.nextafter(limit / 2, 0.0), np.nextafter(limit / 2, np.inf)]
        near += [limit - 1e-6 * k for k in range(1, 6)] + [limit + 1e-6 * k for k in range(1, 6)]
        assert_written_as_oracle(np.concatenate([near, np.negative(near)]))

    @pytest.mark.parametrize("digits", range(1, 17))
    def test_integer_part_digits(self, rng, digits):
        whole = rng.integers(10 ** (digits - 1), 10**digits, 18, dtype=np.int64)
        values = (whole + rng.uniform(0.0, 1.0, 18)) * rng.choice([-1.0, 1.0], 18)
        assert_written_as_oracle(np.concatenate([values, whole, whole + 0.9999995]))

    def test_fast_and_fallback_rows_mixed(self, rng):
        frames = np.round(rng.uniform(-180.0, 180.0, (40, 9)), 6)
        frames[::3, 4] = 0.0078125  # a tie: these rows go through `%`
        frames[1::7, 8] = -1e15  # beyond the fixed-point range
        frames[2::5, 0] = (123 + 0.5) / 1e6
        clip = MotionClip(NINE_CHANNELS, 1 / 30, frames)
        assert bvh.write(clip) == bvh_oracles.write(clip)

    @pytest.mark.parametrize("rows", [1, bvh._BLOCK_VALUES // 9, bvh._BLOCK_VALUES // 9 + 1,
                                      2 * (bvh._BLOCK_VALUES // 9) + 5])
    def test_one_frame_and_several_blocks(self, rng, rows):
        frames = np.round(rng.uniform(-1000.0, 1000.0, (rows, 9)), 6)
        frames[rows // 2, 3] = 0.0078125  # one fallback row, in the middle block
        clip = MotionClip(NINE_CHANNELS, 1 / 30, frames)
        assert bvh.write(clip) == bvh_oracles.write(clip)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 2.0**52])
    def test_grid_values_read_back_bit_for_bit(self, rng, scale):
        # k / 1e6 prints as k's digits, so the parser's correctly rounded
        # read gives back the same double
        k = rng.integers(-scale, scale, (50, 9), dtype=np.int64, endpoint=True)
        clip = MotionClip(NINE_CHANNELS, 1 / 30, k / 1e6)
        assert bvh.parse(bvh.write(clip)).frames.tobytes() == clip.frames.tobytes()


# ---------------------------------------------------------------------------
# the differential parser test
# ---------------------------------------------------------------------------

def outcome(parser, text):
    """What a parser makes of `text`: the clip's parts, or the error's
    type, message and line."""
    try:
        clip = parser(text)
    except BvhSyntaxError as exc:
        return type(exc), exc.message, exc.line
    return clip.skeleton.to_dict(), clip.frame_time, clip.frames.shape, clip.frames.tobytes()


def motion_rows(lines: list) -> range:
    """Indices from the line after 'Frame Time' to the last non-blank
    line; empty when an earlier edit broke the 'Frame Time' line."""
    start = next((i + 1 for i, line in enumerate(lines) if line.startswith("Frame Time:")), len(lines))
    end = max((i + 1 for i, line in enumerate(lines) if line.strip()), default=0)
    return range(start, end)


def width_pair(text, k):
    """One row a value longer and another one shorter: the total token
    count stays right."""
    lines = text.split("\n")
    rows = motion_rows(lines)
    if len(rows) < 2:
        return text
    wide = k % len(rows)
    narrow = (wide + 1 + (k // len(rows)) % (len(rows) - 1)) % len(rows)
    lines[rows[wide]] += " 0.5"
    lines[rows[narrow]] = lines[rows[narrow]].rsplit(" ", 1)[0]
    return "\n".join(lines)


def row_width(text, k):
    lines = text.split("\n")
    rows = motion_rows(lines)
    if rows:
        row = rows[k % len(rows)]
        lines[row] = lines[row] + " 1" if k % 2 else lines[row].rsplit(" ", 1)[0]
    return "\n".join(lines)


def blank_line(text, k):
    lines = text.split("\n")
    lines.insert(k % (len(lines) + 1), ["", "   ", "\t \t"][k % 3])
    return "\n".join(lines)


def tabs(text, k):
    lines = text.split("\n")
    row = k % len(lines)
    lines[row] = lines[row].replace(" ", "\t" if k % 2 else " \t ")
    return "\n".join(lines)


def crlf(text, k):
    return text.replace("\n", "\r\n")


#: Line breaks to `str.splitlines` and nothing else in this parser.
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


def separator(text, k):
    at = (k // len(SEPARATORS)) % len(text)
    sep = SEPARATORS[k % len(SEPARATORS)]
    # in place of a space or a line break, or put in between two characters
    if text[at] in " \n" and k % 3:
        return text[:at] + sep + text[at + 1 :]
    return text[:at] + sep + text[at:]


#: Appended to, never reordered: `OUTCOMES` pins tokens by index. From `#1`
#: on, the syntax `np.loadtxt` has of its own (a comment character, a
#: quote, a comma) and spellings that `float` reads.
TOKENS = ["nan", "inf", "-inf", "1_000", "abc", "1e400", "0x1p3", "-0",
          "#1", '"1"', "1,5", "Infinity", "1e-400", "+.5"]


def token(text, k):
    lines = text.split("\n")
    rows = motion_rows(lines)
    if rows:
        row = rows[k % len(rows)]
        values = lines[row].split(" ")
        values[(k // len(rows)) % len(values)] = TOKENS[k % len(TOKENS)]
        lines[row] = " ".join(values)
    return "\n".join(lines)


def frame_count(text, k):
    lines = text.split("\n")
    for at, line in enumerate(lines):
        if line.startswith("Frames: ") and line[8:].isdigit():
            count = int(line[8:])
            lines[at] = "Frames: " + str([count - 1, count + 1, 10**15, "1e15", 1][k % 5])
    return "\n".join(lines)


def trailing(text, k):
    return text + ["0 0 0\n", "junk\n", "\n\n1", "MOTION\n"][k % 4]


def drop_row(text, k):
    lines = text.split("\n")
    rows = motion_rows(lines)
    if rows:
        del lines[rows[k % len(rows)]]
    return "\n".join(lines)


#: Lines whose tokens are exactly MOTION: each ends the memo key.
MOTION_LINES = ["MOTION", " MOTION", "MOTION\t", "\t MOTION "]


MUTATIONS = [width_pair, row_width, blank_line, tabs, crlf, separator, token, frame_count,
             trailing, drop_row]


#: (mutation, k, the error it must raise or None) on the humanoid fixture.
OUTCOMES = [
    (width_pair, 5, ChannelMismatchError),
    (row_width, 3, ChannelMismatchError),
    (row_width, 4, ChannelMismatchError),
    (blank_line, 100, None),
    (tabs, 100, None),
    (crlf, 0, None),
    (token, 0, ChannelMismatchError),  # nan
    (token, 1, ChannelMismatchError),  # inf
    (token, 3, ChannelMismatchError),  # 1_000: no digit-group underscores
    (token, 4, ChannelMismatchError),  # abc
    (token, 7, None),  # -0
    (token, 8, ChannelMismatchError),  # #1: no comments
    (token, 9, ChannelMismatchError),  # "1": no quotes
    (token, 10, ChannelMismatchError),  # 1,5
    (token, 11, ChannelMismatchError),  # Infinity
    (token, 12, None),  # 1e-400: underflows to zero
    (token, 13, None),  # +.5
    (frame_count, 0, BvhSyntaxError),  # one short: trailing content
    (frame_count, 1, BvhSyntaxError),  # one over: end of file
    (frame_count, 2, BvhSyntaxError),  # 1e15 as an integer
    (frame_count, 3, BvhSyntaxError),  # 1e15 as text
    (trailing, 1, BvhSyntaxError),
    (drop_row, 2, BvhSyntaxError),
]


def memo_key(text: str) -> tuple:
    """The lines of `text` through its first line whose tokens are exactly
    MOTION, or every line if there is none."""
    lines = text.splitlines()
    end = next((i + 1 for i, line in enumerate(lines) if line.split() == ["MOTION"]), len(lines))
    return tuple(lines[:end])


class TestParseOutcomes:
    """Each mutation on the humanoid fixture, with the outcome it must have."""

    @pytest.mark.parametrize("mutation, k, error", OUTCOMES)
    def test_same_outcome(self, mutation, k, error):
        text = mutation(HUMANOID, k)
        got = outcome(bvh.parse, text)
        assert got == outcome(bvh_oracles.parse, text)
        if error is None:
            assert not isinstance(got[0], type)
        else:
            assert issubclass(got[0], error), got

    @pytest.mark.parametrize("mutation, k, error", OUTCOMES)
    def test_same_outcome_after_a_memo_hit(self, mutation, k, error):
        """The corpus again with the pristine header memoized: a text that
        keeps it resumes after MOTION from the memo, and every fault past
        that line keeps its type, message and line."""
        bvh.parse(HUMANOID)
        text = mutation(HUMANOID, k)
        hits = bvh._memo_skeleton.cache_info().hits
        assert outcome(bvh.parse, text) == outcome(bvh_oracles.parse, text)
        shared = memo_key(text) == memo_key(HUMANOID)
        assert bvh._memo_skeleton.cache_info().hits == hits + shared
        assert shared or mutation in (blank_line, tabs)

    @pytest.mark.parametrize("k", [8, 9], ids=lambda k: TOKENS[k])
    def test_loadtxt_syntax_fails_at_its_line(self, k):
        """A comment character or a quote is a bad value, on its own row."""
        text = token(HUMANOID, k)
        lines = text.split("\n")
        got = outcome(bvh.parse, text)
        assert got[0] is ChannelMismatchError and got[1] == "non-numeric channel value"
        assert TOKENS[k] in lines[got[2] - 1].split(" ")
        assert got[2] - 1 == motion_rows(lines)[k % len(motion_rows(lines))]

    @pytest.mark.parametrize("tail", [" #1", " # note", ' "1"'], ids=repr)
    def test_same_tail_on_every_row(self, tail):
        """A comment or a quoted value ending every row: a reader that
        dropped it would find every row of the right width."""
        lines = HUMANOID.split("\n")
        rows = motion_rows(lines)
        for row in rows:
            lines[row] += tail
        text = "\n".join(lines)
        got = outcome(bvh.parse, text)
        assert got == outcome(bvh_oracles.parse, text)
        assert got[0] is ChannelMismatchError and got[2] == rows[0] + 1

    def test_motion_line_anywhere_in_the_header(self):
        """A MOTION line before every line through the real one: the key
        ends there, and the outcome is the oracle's, fresh and from the memo."""
        lines = HUMANOID.split("\n")
        for at, line in itertools.product(range(lines.index("MOTION") + 1), MOTION_LINES):
            text = "\n".join(lines[:at] + [line] + lines[at:])
            expected = outcome(bvh_oracles.parse, text)
            assert outcome(bvh.parse, text) == expected
            assert outcome(bvh.parse, text) == expected

    @pytest.mark.parametrize("rest", ["MOTION\n", "Frames: 1\nMOTION\n"])
    def test_keyword_line_before_the_memo_key(self, rest):
        """' MOTION' holds the keyword, so the key ends there and the parse
        resumes after it, not after the later line that is exactly MOTION."""
        text = HUMANOID.replace("\nMOTION\n", "\n MOTION\n") + rest
        bvh._memo_skeleton.cache_clear()
        got = outcome(bvh.parse, text)
        assert got == outcome(bvh_oracles.parse, text)
        assert got[0] is BvhSyntaxError and got[1] == "trailing content after declared frames"
        assert got == outcome(bvh.parse, text)
        # the key ends at ' MOTION', so the memo keeps one entry for it
        assert bvh._memo_skeleton.cache_info().currsize == 1

    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_separators_break_lines(self, sep):
        # in place of the line break after MOTION: the same file
        text = HUMANOID.replace("MOTION\n", "MOTION" + sep)
        assert outcome(bvh.parse, text) == outcome(bvh.parse, HUMANOID)
        assert outcome(bvh_oracles.parse, text) == outcome(bvh.parse, HUMANOID)
        # in place of the first space of the first row: two short rows
        first = HUMANOID.index("\n", HUMANOID.index("Frame Time:")) + 1
        at = HUMANOID.index(" ", first)
        text = HUMANOID[:at] + sep + HUMANOID[at + 1 :]
        got = outcome(bvh.parse, text)
        assert got == outcome(bvh_oracles.parse, text)
        assert got[0] is ChannelMismatchError and got[2] == HUMANOID[:first].count("\n") + 1

    def test_bytes_and_text_agree(self):
        data = crlf(HUMANOID, 0).encode()
        assert outcome(bvh.parse, data) == outcome(bvh_oracles.parse, data)
        assert outcome(bvh.parse, data) == outcome(bvh.parse, HUMANOID)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(CORPUS)),
    edits=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 1 << 16)),
                   min_size=1, max_size=3),
)
def test_parse_matches_row_loop(name, edits):
    text = CORPUS[name]
    for mutation, k in edits:
        text = mutation(text, k)
    assert outcome(bvh.parse, text) == outcome(bvh_oracles.parse, text)


# ---------------------------------------------------------------------------
# the skeleton checks
# ---------------------------------------------------------------------------

ZXY = ("Zrotation", "Xrotation", "Yrotation")
VALID_JOINTS = (
    JointSpec("hips", None, [0.0, 0.0, 0.0], ("Xposition", "Yposition", "Zposition") + ZXY),
    JointSpec("spine", 0, [0.0, 1.0, 0.0], ZXY),
    JointSpec("head", 1, [0.0, 1.0, -0.0], ("Xrotation", "Yrotation", "Zrotation")),
    JointSpec("head_end", 2, [0.0, 0.5, 0.0], (), is_end_site=True),
    JointSpec("leg", 0, [1.0, -1.0, 0.0], ZXY),
)

#: label -> (joint, field changes): one fault each on a valid joint list.
FAULTS = {
    "root with a parent": (0, {"parent": 0}),
    "infinite offset": (0, {"offset": [math.inf, 0.0, 0.0]}),
    "parent none": (1, {"parent": None}),
    "negative parent": (1, {"parent": -1}),
    "nan offset": (1, {"offset": [0.0, math.nan, 0.0]}),
    "unknown tag": (1, {"channels": ("Zrotation", "Xrotation", "Wrotation")}),
    "duplicate tag": (1, {"channels": ("Zrotation", "Zrotation", "Xrotation")}),
    "position off the root": (1, {"channels": ("Xposition",) + ZXY}),
    "parent after": (2, {"parent": 3}),
    "own parent": (2, {"parent": 2}),
    "duplicate name": (2, {"name": "spine"}),
    "one rotation": (2, {"channels": ("Yrotation",)}),
    "end site with channels": (3, {"channels": ZXY}),
    "end site with a position": (3, {"channels": ("Yposition",)}),
    "two rotations": (4, {"channels": ("Yrotation", "Xrotation")}),
    "end site with a child": (4, {"parent": 3}),
    "second end site": (4, {"parent": 2, "channels": (), "is_end_site": True}),
}


def with_faults(*labels) -> list:
    joints = list(VALID_JOINTS)
    for label in labels:
        index, changes = FAULTS[label]
        joints[index] = dataclasses.replace(joints[index], **changes)
    return joints


def verdict(check, joints):
    """The error type and message `check(joints)` raises, or None."""
    try:
        check(joints)
    except MotionError as exc:
        return type(exc), str(exc)
    return None


class TestSkeletonChecks:
    def test_valid_lists_pass_both(self, rng):
        skeletons = [VALID_JOINTS, *(bvh.parse(text).skeleton.joints for text in CORPUS.values())]
        skeletons += [oracles.random_skeleton(rng, n, end_sites=True).joints for n in (1, 2, 9, 40)]
        for joints in skeletons:
            assert verdict(bvh.Skeleton, joints) is None
            assert verdict(bvh_oracles.validate_skeleton, joints) is None

    @pytest.mark.parametrize("label", FAULTS)
    def test_one_fault(self, label):
        joints = with_faults(label)
        got = verdict(bvh.Skeleton, joints)
        assert got is not None and got == verdict(bvh_oracles.validate_skeleton, joints)

    def test_empty_list(self):
        assert verdict(bvh.Skeleton, []) == verdict(bvh_oracles.validate_skeleton, [])

    def test_two_faults(self):
        # on one joint the check order decides, on two the first joint wins
        for labels in itertools.permutations(FAULTS, 2):
            joints = with_faults(*labels)
            got = verdict(bvh.Skeleton, joints)
            assert got is not None and got == verdict(bvh_oracles.validate_skeleton, joints), labels
        for first, second in [("infinite offset", "duplicate name"), ("nan offset", "two rotations"),
                              ("position off the root", "end site with a child")]:
            assert verdict(bvh.Skeleton, with_faults(second, first)) == verdict(
                bvh.Skeleton, with_faults(first))
            assert verdict(bvh.Skeleton, with_faults(second)) != verdict(
                bvh.Skeleton, with_faults(first))


class TestRotationGroups:
    """The channel table's rotation plan, array for array, against the
    per-joint `bvh_oracles.rotation_plan`."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_fixtures(self, name):
        skeleton = bvh.parse(CORPUS[name]).skeleton
        self.assert_same(skeleton)

    @pytest.mark.parametrize("n_joints", (1, 3, 30, 258))
    def test_random_trees(self, rng, n_joints):
        self.assert_same(oracles.random_skeleton(rng, n_joints, end_sites=True))
        self.assert_same(test_topology.not_depth_first_skeleton(rng))

    @staticmethod
    def assert_same(skeleton):
        plan = skeleton.channel_table.rotations
        got = (plan.joints, plan.columns, plan.axes, plan.parity)
        for array, expected in zip(got, bvh_oracles.rotation_plan(skeleton.joints), strict=True):
            assert array.dtype == expected.dtype and array.shape == expected.shape
            assert array.tobytes() == expected.tobytes()
