"""BVH motion-capture file model: parse, write, subsample.

The parser is a faithful file model: channel values stay in file units
(degrees for rotations), channel order is preserved verbatim per joint,
and End Site blocks are retained as channel-less joints so end-effector
offsets survive. Degrees/radians conversion happens exactly once, in the
kinematics layer, never here.

Accepted input is tolerant about whitespace (spaces, tabs, CRLF); output
is canonical: LF newlines, two-space indentation, six decimal places.

Every value the package passes is immutable: a frozen dataclass whose
arrays are read-only, so each constructor's checks are the only validation
any layer needs. Here that is `JointSpec`, `Skeleton`, `ChannelTable`,
`RotationPlan` and `MotionClip`. One rule, `_frozen`, stores every such
array: a read-only array whose bases are read-only down to their owner is
kept, anything else copied once. That holds while nobody else has the owner, who could make it
writable again; the layers hand over fresh owners, so they never copy.

A `Skeleton` equals another with the same joints and offsets. It owns
the topology every layer walks (parents, offsets, encoded joints, depth
levels) and its canonical JSON block, which the .dqm container stores and
hashes; each view is built once and read-only. Its channel table says
where each joint's channels sit in a frame row: one rotation plan, every
rotating joint's columns in composition order with their axes and the
parity of its Euler order; the root's position columns; and every column
in the depth-first order the writer lists joints in, whatever order the
skeleton lists them in. The clip conversions in `kinematics` and the
writer read it, so neither loops over joints or Euler orders.

The writer prints each motion value as `%.6f` does, byte for byte, but in
fixed point: a block of rows at a time, |v|·1e6 is rounded to an integer
with numpy and its digits gathered from tables of three-digit words. That
rounding is exact unless the product lies within its own roundoff of a
half-integer (a tie such as 0.0078125, or |v| of about 2.25e9 or more);
a row holding such a value is formatted by `%` instead.

The parser reads the text forward and never steps back. It walks the
hierarchy with a stack, skips blank lines, and splits each other line
once, when it reads it: the header, the two timing lines, and the rows
of a motion block that the bulk read refuses. A leading byte order mark
is dropped, from text and bytes alike. A motion block of plain
ASCII is read in bulk by one `np.loadtxt` call, numpy's compiled text
reader (numpy 1.23 on): it splits rows on whitespace, with comments and
quotes off, and converts each value with CPython's correctly rounded
`PyOS_string_to_double`, the routine `float` uses, so a value reads to
the same bits either way. Its result is kept if it has the declared
frames, each of the channel count, all finite. A block the bulk read
cannot take whole, or one `loadtxt` rejects, goes to the row loop, from
its first row, so that every error keeps its type, message and line
number.

A process builds one `Skeleton` per distinct hierarchy text: the lines
through the first line that is `MOTION`, whitespace around it allowed
(every line if none is), are the key of a memo bounded to
`SKELETON_MEMO_SIZE` (16) headers, so clips that share a header share one
skeleton and its derived views. A header fault is never memoized; it
raises on every parse, at the same line. The frame count, frame time and
motion rows are read per clip.
"""

import json
import math
import numbers
import operator
import os
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import quat
from .errors import (
    BadRateError,
    BvhSyntaxError,
    ChannelMismatchError,
    InvalidValueError,
    NonFiniteError,
    UnsupportedChannelError,
)
from .quat import _read_only

POSITION_CHANNELS = ("Xposition", "Yposition", "Zposition")
ROTATION_CHANNELS = ("Xrotation", "Yrotation", "Zrotation")
_CHANNEL_TAGS = set(POSITION_CHANNELS) | set(ROTATION_CHANNELS)
_ROTATION_COUNT_MESSAGE = "a joint needs zero or three rotation channels, not {}"

#: Distinct headers whose `Skeleton` a process keeps, per memo: BVH
#: hierarchy texts here, skeleton blocks in `container`.
SKELETON_MEMO_SIZE = 16


def finite_rate(frame_time: float) -> bool:
    """Whether a positive frame time and its rate 1/frame_time are both
    finite; a subnormal frame time has an infinite rate."""
    return math.isfinite(frame_time) and math.isfinite(1.0 / frame_time)


def _frozen(values) -> np.ndarray:
    """`values` as it is if it is a read-only float array whose bases are
    read-only down to their owner, else a read-only copy. The kept array is
    fixed only while nobody else holds that owner."""
    if isinstance(values, np.ndarray) and values.dtype == float:
        base = values
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return values
    return _read_only(np.array(values, dtype=float))


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One node of the hierarchy, end sites included. Frozen, so that the
    views a `Skeleton` builds from its joints stay true."""

    name: str
    parent: int | None
    offset: np.ndarray
    channels: tuple[str, ...]
    is_end_site: bool = False

    def __post_init__(self):
        """The one check of each field's type; an integer parent is stored as int."""
        name, parent = self.name, self.parent
        if not isinstance(name, str):
            raise InvalidValueError(f"joint name {name!r} is not a string")
        # builtin types first in each tuple: an ABC check alone costs more than the rest
        integer = isinstance(parent, (int, numbers.Integral)) and not isinstance(parent, bool)
        if not (parent is None or integer):
            raise InvalidValueError(f"joint {name!r} parent {parent!r} is not an integer or null")
        try:
            offset = np.array(self.offset, dtype=float).reshape(3)
        except (TypeError, ValueError, OverflowError):  # overflow: an integer beyond float range
            raise InvalidValueError(f"joint {name!r} offset must be three numbers") from None
        iterable = isinstance(self.channels, (tuple, Iterable)) and not isinstance(self.channels, str)
        channels = tuple(self.channels) if iterable else ()
        if not iterable or not all(isinstance(tag, str) for tag in channels):
            raise InvalidValueError(f"joint {name!r} channels must be a list of strings")
        if not isinstance(self.is_end_site, bool):
            raise InvalidValueError(f"joint {name!r} end_site {self.is_end_site!r} is not a boolean")
        object.__setattr__(self, "parent", None if parent is None else int(parent))
        object.__setattr__(self, "offset", _read_only(offset))
        object.__setattr__(self, "channels", channels)

    @property
    def rotation_order(self) -> str:
        """Composition order of the rotation channels, e.g. 'ZYX'."""
        return "".join(tag[0] for tag in self.channels if tag in ROTATION_CHANNELS)


@dataclass(frozen=True, eq=False)
class RotationPlan(quat.EulerPlan):
    """Every joint's rotation channels as one plan of the Euler kernels of
    `quat`, whatever mix of orders the joints use.

    `joints` lists the n joints that have rotation channels, in skeleton
    order, and `columns` (n, 3) each one's rotation columns in composition
    order; `axes` (n, 3) holds the axis each of those columns turns about
    (0 x, 1 y, 2 z), and `parity` (n,) is 1.0 where the joint's order is
    cyclic and -1.0 where it is not (`quat.EulerPlan`).
    """

    joints: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True, eq=False)
class ChannelTable:
    """Where each joint's channels sit in a frame row.

    `rotations` is the `RotationPlan` of the joints' rotation channels.
    `position_axes` and `position_columns` pair each root position channel
    with its axis. `depth_first` lists (joint, depth) in the order BVH text
    lists joints, siblings in index order, and `depth_first_columns` every
    channel column in that order.
    """

    rotations: RotationPlan
    position_axes: np.ndarray
    position_columns: np.ndarray
    depth_first: tuple
    depth_first_columns: np.ndarray


def _channel_table(joints: tuple) -> ChannelTable:
    starts = np.cumsum([0] + [len(j.channels) for j in joints]).tolist()
    rows, columns, axes, parity = [], [], [], []
    for index, joint in enumerate(joints):
        # axis -> column of its rotation channel, in composition order
        by_axis = {tag[0]: column for column, tag in enumerate(joint.channels, starts[index])
                   if tag in ROTATION_CHANNELS}
        if by_axis:
            order_axes, order_parity = quat._order_axes("".join(by_axis))
            rows.append(index)
            columns += by_axis.values()
            axes += order_axes
            parity.append(order_parity)
    positions = [(i, tag) for i, tag in enumerate(joints[0].channels) if tag in POSITION_CHANNELS]

    children = [[] for _ in joints]
    for index in range(len(joints) - 1, 0, -1):  # so siblings pop in index order
        children[joints[index].parent].append(index)
    depth_first, stack = [], [(0, 0)]
    while stack:
        index, depth = stack.pop()
        depth_first.append((index, depth))
        stack.extend((child, depth + 1) for child in children[index])

    def array(values, shape=(-1,)):
        return _read_only(np.array(values, dtype=np.intp).reshape(shape))

    return ChannelTable(
        rotations=RotationPlan(axes=array(axes, (-1, 3)), parity=_read_only(np.array(parity)),
                               joints=array(rows), columns=array(columns, (-1, 3))),
        position_axes=array(["XYZ".index(tag[0]) for _, tag in positions]),
        position_columns=array([i for i, _ in positions]),
        depth_first=tuple(depth_first),
        depth_first_columns=array(
            [c for index, _ in depth_first for c in range(starts[index], starts[index + 1])]
        ),
    )


def _levels(parents: np.ndarray) -> tuple:
    """(rows, parent rows) per depth level below the root of a parent
    array (-1 for the root), shallowest first."""
    levels, in_level = [], parents < 0
    while True:
        rows = np.flatnonzero(in_level[parents] & (parents >= 0))
        if rows.size == 0:
            return tuple(levels)
        levels.append((_read_only(rows), _read_only(parents[rows])))
        in_level = np.bincount(rows, minlength=parents.size) > 0


def _rank_groups(parents: np.ndarray) -> tuple:
    """(positions, parents[positions]) per child rank of a parent array:
    group k holds the k-th child of each parent with more than k children,
    so no parent repeats within a group. Adding group 0, then group 1, and
    so on sums each parent's children in the order `np.add.at` does."""
    ranks, children = [], {}
    for parent in parents.tolist():
        ranks.append(children.get(parent, 0))
        children[parent] = ranks[-1] + 1
    ranks = np.array(ranks, dtype=int)
    groups = []
    for k in range(max(children.values(), default=0)):
        positions = np.flatnonzero(ranks == k)
        groups.append((_read_only(positions), _read_only(parents[positions])))
    return tuple(groups)


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Joint hierarchy in topological order; joint 0 is the single root.
    An immutable value: the joints are a tuple of frozen `JointSpec`s, and
    each derived view is built on first use and read-only."""

    joints: tuple[JointSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        if not self.joints:
            raise InvalidValueError("skeleton needs at least one joint")
        if self.joints[0].parent is not None:
            raise InvalidValueError("joint 0 must be the root (parent None)")
        names, with_end_site = set(), set()
        finite = np.isfinite(self.offsets).all(axis=1).tolist()
        for idx, joint in enumerate(self.joints):
            if idx > 0 and (joint.parent is None or not 0 <= joint.parent < idx):
                raise InvalidValueError(f"joint {joint.name!r} breaks topological parent order")
            if joint.name in names:
                raise InvalidValueError(f"duplicate joint name {joint.name!r}")
            names.add(joint.name)
            if not finite[idx]:
                raise InvalidValueError(f"non-finite offset on joint {joint.name!r}")
            for tag in joint.channels:
                if tag not in _CHANNEL_TAGS:
                    raise InvalidValueError(f"unknown channel tag {tag!r}")
            if len(set(joint.channels)) != len(joint.channels):
                raise InvalidValueError(f"duplicate channel tag on joint {joint.name!r}")
            rotations = len(joint.rotation_order)
            if rotations not in (0, 3):
                raise InvalidValueError(_ROTATION_COUNT_MESSAGE.format(rotations))
            if joint.is_end_site and joint.channels:
                raise InvalidValueError("end sites carry no channels")
            if idx > 0 and not joint.is_end_site:
                if any(tag in POSITION_CHANNELS for tag in joint.channels):
                    raise InvalidValueError("position channels are only allowed on the root")
            if idx > 0 and self.joints[joint.parent].is_end_site:
                raise InvalidValueError("end sites cannot have children")
            if joint.is_end_site:
                if joint.parent in with_end_site:
                    # BVH holds one End Site block per joint: `write` could not round-trip it
                    raise InvalidValueError(
                        f"joint {self.joints[joint.parent].name!r} has more than one end site")
                with_end_site.add(joint.parent)

    # -- derived views -----------------------------------------------------

    @property
    def num_joints(self) -> int:
        return len(self.joints)

    @property
    def names(self) -> list[str]:
        return [j.name for j in self.joints]

    @cached_property
    def parent_indices(self) -> np.ndarray:
        """Parent index per joint, -1 for the root."""
        return _read_only(np.array([-1 if j.parent is None else j.parent for j in self.joints]))

    @cached_property
    def offsets(self) -> np.ndarray:
        return _read_only(np.array([j.offset for j in self.joints]))

    @cached_property
    def levels(self) -> tuple:
        """(joints, their parents) per depth level below the root."""
        return _levels(self.parent_indices)

    @cached_property
    def canonical_json(self) -> bytes:
        """`to_dict` as key-sorted, compact UTF-8 JSON: the skeleton block
        of a .dqm container and the input of its digest."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")

    @cached_property
    def _hierarchy_text(self) -> str:
        """The HIERARCHY block of `write`, newline-terminated: the joints
        depth-first, siblings in index order."""
        table, out, open_blocks = self.channel_table, ["HIERARCHY"], 0
        for index, depth in table.depth_first:
            while open_blocks > depth:  # close the blocks this joint is not in
                open_blocks -= 1
                out.append("  " * open_blocks + "}")
            joint, pad = self.joints[index], "  " * depth
            offset = f"{pad}  OFFSET {joint.offset[0]:.6f} {joint.offset[1]:.6f} {joint.offset[2]:.6f}"
            if joint.is_end_site:
                out.extend([f"{pad}End Site", f"{pad}{{", offset, f"{pad}}}"])
                continue
            keyword = "ROOT" if joint.parent is None else "JOINT"
            tags = "".join(" " + tag for tag in joint.channels)
            out.extend([f"{pad}{keyword} {joint.name}", f"{pad}{{", offset,
                        f"{pad}  CHANNELS {len(joint.channels)}{tags}"])
            open_blocks += 1
        out.extend("  " * depth + "}" for depth in range(open_blocks - 1, -1, -1))
        return "\n".join(out) + "\n"

    @cached_property
    def channel_count(self) -> int:
        return sum(len(j.channels) for j in self.joints)

    @cached_property
    def channel_table(self) -> ChannelTable:
        """Where each joint's channels sit in a frame row."""
        return _channel_table(self.joints)

    @cached_property
    def encoded_indices(self) -> tuple[int, ...]:
        """Joints that enter feature vectors: everything but end sites."""
        return tuple(i for i, j in enumerate(self.joints) if not j.is_end_site)

    @cached_property
    def num_encoded(self) -> int:
        return len(self.encoded_indices)

    @cached_property
    def encoded_parents(self) -> np.ndarray:
        """Parent row per encoded joint, rows in `encoded_indices` order,
        -1 for the root. Parents of encoded joints are never end sites, so
        every parent has a row, and it precedes its children's rows."""
        rows = {joint: row for row, joint in enumerate(self.encoded_indices)}
        return _read_only(np.array([rows.get(self.joints[joint].parent, -1) for joint in rows]))

    @cached_property
    def encoded_levels(self) -> tuple:
        """(rows, parent rows) per depth level of the encoded joints."""
        return _levels(self.encoded_parents)

    @cached_property
    def _encoded_child_ranks(self) -> tuple:
        """`_rank_groups` of the non-root encoded rows (positions counted
        from row 1), then of each of `encoded_levels` (positions within the
        level): the parent scatters of the reverse sweeps."""
        return (
            _rank_groups(self.encoded_parents[1:]),
            tuple(_rank_groups(parent_rows) for _, parent_rows in self.encoded_levels),
        )

    @cached_property
    def _topology(self) -> tuple:
        """(name, parent, channels, end-site flag) per joint."""
        return tuple((j.name, j.parent, j.channels, j.is_end_site) for j in self.joints)

    def __eq__(self, other) -> bool:
        """The same joints in the same order, offsets equal as numbers."""
        if not isinstance(other, Skeleton):
            return NotImplemented
        return self is other or (
            self._topology == other._topology and np.array_equal(self.offsets, other.offsets)
        )

    def to_dict(self) -> dict:
        return {
            "joints": [
                {
                    "name": j.name,
                    "parent": j.parent,
                    "offset": [float(v) for v in j.offset],
                    "channels": list(j.channels),
                    "end_site": j.is_end_site,
                }
                for j in self.joints
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Skeleton":
        """The skeleton of a `to_dict` mapping, as JSON reads it back. Each
        field must already have its JSON type: a string name, an integer or
        null parent, three numbers, a list of channel strings and a boolean
        end-site flag. Nothing is coerced; any other value raises
        InvalidValueError."""
        joints = data.get("joints") if isinstance(data, dict) else None
        if not isinstance(joints, list):
            raise InvalidValueError("a skeleton mapping needs a list of joints")
        return cls([_joint_from_dict(entry) for entry in joints])


_JOINT_FIELDS = frozenset(("name", "parent", "offset", "channels", "end_site"))


def _joint_from_dict(entry) -> JointSpec:
    """One joint of `Skeleton.from_dict`. Only what JSON adds is checked here (every
    field, JSON lists, offset numbers that are not bools); `JointSpec` checks the rest."""
    if not isinstance(entry, dict) or not _JOINT_FIELDS <= entry.keys():
        raise InvalidValueError(f"a joint needs the fields {', '.join(sorted(_JOINT_FIELDS))}")
    name, offset, channels = entry["name"], entry["offset"], entry["channels"]
    if not (isinstance(offset, list)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in offset)):
        raise InvalidValueError(f"joint {name!r} offset must be a list of numbers")
    if not isinstance(channels, list):
        raise InvalidValueError(f"joint {name!r} channels must be a list of strings")
    return JointSpec(name, entry["parent"], offset, channels, is_end_site=entry["end_site"])


@dataclass(frozen=True, eq=False)
class MotionClip:
    """Raw motion: a skeleton plus the frame matrix exactly as stored."""

    skeleton: Skeleton
    frame_time: float
    frames: np.ndarray  # (F, C), rotations in degrees, root translation in file units

    def __post_init__(self):
        object.__setattr__(self, "frames", _frozen(self.frames))
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise InvalidValueError("frames must be a (F >= 1, C) matrix")
        if self.frames.shape[1] != self.skeleton.channel_count:
            raise InvalidValueError(
                f"frame width {self.frames.shape[1]} != declared channel count "
                f"{self.skeleton.channel_count}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise NonFiniteError("non-finite channel values")
        if not (self.frame_time > 0):
            raise InvalidValueError("frame_time must be positive")
        if not finite_rate(self.frame_time):
            raise InvalidValueError("frame_time and its rate 1/frame_time must be finite")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def fps(self) -> float:
        return 1.0 / self.frame_time


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Tokens:
    """Forward reader over a sequence of lines (`str.splitlines` of a text),
    from line index `start` on: blank lines are skipped, and each other line
    is split once, when `next` returns it. Remembers line numbers for errors."""

    def __init__(self, lines, start: int = 0):
        self.lines = lines
        self.pos = start  # index of the next line to read
        self.last_line = start  # 1-based number of the line `next` last returned

    def eof(self) -> bool:
        """Skips blank lines and tells whether no other line is left.
        `str.strip` strips exactly the whitespace `str.split` splits on."""
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.pos == len(self.lines)

    def next(self) -> list[str]:
        if self.eof():
            raise BvhSyntaxError(self.last_line, "unexpected end of file")
        self.pos += 1
        self.last_line = self.pos
        return self.lines[self.pos - 1].split()

    def error(self, message: str) -> BvhSyntaxError:
        return BvhSyntaxError(self.last_line, message)


def _number(token: str, kind=float):
    """`kind(token)`, but a ValueError for the digit-group underscores and
    non-ASCII digits that Python's `int` and `float` also read."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not a plain number: {token!r}")
    return kind(token)


def _parse_offset(tokens: _Tokens, name: str) -> np.ndarray:
    row = tokens.next()
    if row[0] != "OFFSET" or len(row) != 4:
        raise tokens.error("expected 'OFFSET x y z'")
    try:
        offset = [_number(v) for v in row[1:]]
    except ValueError:
        raise tokens.error("OFFSET values must be numeric") from None
    if not all(map(math.isfinite, offset)):
        raise tokens.error(f"non-finite offset on joint {name!r}")
    return np.array(offset)


def _parse_channels(tokens: _Tokens, name: str) -> tuple[str, ...]:
    row = tokens.next()
    if row[0] != "CHANNELS" or len(row) < 2:
        raise tokens.error("expected 'CHANNELS n tags...'")
    try:
        count = _number(row[1], int)
    except ValueError:
        raise tokens.error("CHANNELS count must be an integer") from None
    tags = tuple(row[2:])
    if len(tags) != count:
        raise tokens.error(f"CHANNELS declares {count} tags but lists {len(tags)}")
    unique = set(tags)
    if not unique <= _CHANNEL_TAGS:
        unknown = next(tag for tag in tags if tag not in _CHANNEL_TAGS)
        raise UnsupportedChannelError(tokens.last_line, f"unknown channel tag {unknown!r}")
    if len(unique) != len(tags):
        raise tokens.error(f"duplicate channel tag on joint {name!r}")
    rotations = len(unique.intersection(ROTATION_CHANNELS))
    if rotations not in (0, 3):
        raise UnsupportedChannelError(tokens.last_line, _ROTATION_COUNT_MESSAGE.format(rotations))
    return tags


def _expect(tokens: _Tokens, literal: str):
    row = tokens.next()
    if row != [literal]:
        raise tokens.error(f"expected {literal!r}")


def _parse_hierarchy(tokens: _Tokens) -> list[JointSpec]:
    """The joints of the ROOT block in file order. `open_joints` is the
    stack of joints whose blocks are open, innermost last. Every fault
    `Skeleton` would find is raised here, at the line that holds it."""
    joints: list[JointSpec] = []
    open_joints: list[int] = []
    with_end_site = set()
    names = set()

    def new_name(name: str) -> str:
        if name in names:
            raise tokens.error(f"duplicate joint name {name!r}")
        names.add(name)
        return name

    while open_joints or not joints:
        parent = open_joints[-1] if open_joints else None
        row = tokens.next()
        if not joints or row[0] == "JOINT":
            keyword = "ROOT" if parent is None else "JOINT"
            if row[0] != keyword or len(row) < 2:
                raise tokens.error(f"expected '{keyword} name'")
            name = new_name("_".join(row[1:]))
            _expect(tokens, "{")
            offset = _parse_offset(tokens, name)
            channels = _parse_channels(tokens, name)
            if parent is not None and any(tag in POSITION_CHANNELS for tag in channels):
                raise tokens.error("position channels are only allowed on the root")
            open_joints.append(len(joints))
            joints.append(JointSpec(name, parent, offset, channels))
        elif row[:2] == ["End", "Site"]:
            if parent in with_end_site:
                raise tokens.error("multiple End Site blocks in one joint")
            with_end_site.add(parent)
            name = new_name(f"{joints[parent].name}_end")
            _expect(tokens, "{")
            offset = _parse_offset(tokens, name)
            joints.append(JointSpec(name, parent, offset, (), is_end_site=True))
            _expect(tokens, "}")
        elif row == ["}"]:
            open_joints.pop()
        else:
            raise tokens.error(f"unexpected token {row[0]!r} in joint block")
    return joints


def _parse_skeleton(tokens) -> Skeleton:
    """HIERARCHY through MOTION: the skeleton."""
    if tokens.eof() or tokens.next() != ["HIERARCHY"]:
        raise tokens.error("expected 'HIERARCHY'")
    joints = _parse_hierarchy(tokens)
    row = tokens.next()
    if row[0] == "ROOT":
        raise tokens.error("multiple ROOT joints are not supported")
    if row != ["MOTION"]:
        raise tokens.error("expected 'MOTION'")
    return Skeleton(joints)


@lru_cache(maxsize=SKELETON_MEMO_SIZE)
def _memo_skeleton(header: tuple[str, ...]) -> Skeleton:
    """`_parse_skeleton` of the lines of a text through its first line that
    is MOTION, whitespace around it allowed, or of every line if none is. The
    hierarchy raises on that line, and once the hierarchy is complete
    `_parse_skeleton` reads the first line that is not blank, so the parse either
    raises with the line and message a read of the whole text gives or
    ends on the key's last line. `Skeleton` is immutable, so parses share
    it; `lru_cache` keeps no exception, so a fault leaves no entry."""
    return _parse_skeleton(_Tokens(header))


def _parse_timing(tokens) -> tuple[int, float]:
    """'Frames:' and 'Frame Time:': the declared frame count and the frame
    time."""
    row = tokens.next()
    if row[0] != "Frames:" or len(row) != 2:
        raise tokens.error("expected 'Frames: n'")
    try:
        num_frames = _number(row[1], int)
    except ValueError:
        raise tokens.error("frame count must be an integer") from None
    if num_frames < 1:
        raise tokens.error("frame count must be at least 1")

    row = tokens.next()
    if row[:2] != ["Frame", "Time:"] or len(row) != 3:
        raise tokens.error("expected 'Frame Time: t'")
    try:
        frame_time = _number(row[2])
    except ValueError:
        raise tokens.error("frame time must be numeric") from None
    if not frame_time > 0:
        raise tokens.error("frame time must be positive")
    if not finite_rate(frame_time):
        raise tokens.error("frame time and its rate 1/t must be finite")
    return num_frames, frame_time


def _read_motion(tokens: _Tokens, num_frames: int, width: int) -> np.ndarray:
    """The (num_frames, width) motion rows, which must end the text.

    A text that is plain ASCII with no underscore is read in bulk. Rows of
    `width` > 0 values go to one `np.loadtxt` call, which splits them on
    whitespace and converts each value with CPython's correctly rounded
    `float` parser; its result is taken if it has `num_frames` rows of
    `width` values, all finite (a text that is blank throughout never
    reaches it: `loadtxt` warns on one). A zero-width block instead holds
    no rows that are not blank in at least `num_frames` lines (`write`
    emits one blank row a frame), so the file bounds the frame count.
    Anything else goes to the row loop from row 0, which raises the first
    fault with its type, message and line, or reads a text that is well
    formed after all: `str.split` also splits on non-ASCII spaces, and the
    loop judges each token.
    """
    lines = tokens.lines[tokens.pos :]
    text = "".join(lines)
    blank = not text or text.isspace()
    if text.isascii() and "_" not in text:
        if not width:
            if blank and len(lines) >= num_frames:
                return _read_only(np.empty((num_frames, 0)))
        elif not blank:
            try:  # a ValueError is a token that is not a number, or a ragged row
                frames = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if frames.shape == (num_frames, width) and np.isfinite(frames).all():
                    return _read_only(frames)

    # A count beyond the rows left ends in "unexpected end of file";
    # allocate no more rows than the file holds.
    out = np.empty((min(num_frames, len(lines)), width))
    for i in range(num_frames):
        row = tokens.next()
        if len(row) != width:
            raise ChannelMismatchError(
                tokens.last_line,
                f"motion row has {len(row)} values, {width} channels declared",
            )
        try:
            out[i] = [_number(v) for v in row]
        except ValueError:
            raise ChannelMismatchError(tokens.last_line, "non-numeric channel value") from None
        if not np.all(np.isfinite(out[i])):
            raise ChannelMismatchError(tokens.last_line, "non-finite channel value")
    if not tokens.eof():
        raise BvhSyntaxError(tokens.pos + 1, "trailing content after declared frames")
    return _read_only(out)


def parse(text: str | bytes) -> MotionClip:
    """Parse BVH text into a MotionClip.

    Raises BvhSyntaxError (line-anchored) on malformed structure,
    UnsupportedChannelError on unknown channel tags or on a joint with one
    or two rotation channels, and ChannelMismatchError when a motion row
    width disagrees with the declared channels or a value is not a finite
    number.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bad byte sits on the last line of the text before it
            # ("?" stands in for it, so a prefix ending in a line break counts).
            before = exc.object[: exc.start].decode("utf-8") + "?"
            raise BvhSyntaxError(len(before.splitlines()), "text is not valid UTF-8") from None
    lines = text.removeprefix("\ufeff").splitlines()  # some exporters prepend a BOM
    try:
        end = operator.indexOf(map(str.strip, lines), "MOTION") + 1
    except ValueError:  # no MOTION line: the key is the whole text, whose parse raises
        end = len(lines)
    skeleton = _memo_skeleton(tuple(lines[:end]))
    tokens = _Tokens(lines, end)
    num_frames, frame_time = _parse_timing(tokens)
    frames = _read_motion(tokens, num_frames, skeleton.channel_count)
    return MotionClip(skeleton=skeleton, frame_time=frame_time, frames=frames)


def parse_file(path) -> MotionClip:
    with open(path, "rb") as handle:
        return parse(handle.read())


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def write(clip: MotionClip) -> str:
    """Serialize a MotionClip as canonical BVH text: the skeleton's
    HIERARCHY block (`Skeleton._hierarchy_text`, built once per skeleton),
    then each motion row with its channels in that block's order."""
    frame_time = f"{clip.frame_time:.6f}"
    if frame_time == "0.000000":  # six decimals would give a file `parse` rejects
        frame_time = repr(float(clip.frame_time))
    return (f"{clip.skeleton._hierarchy_text}MOTION\nFrames: {clip.num_frames}\n"
            f"Frame Time: {frame_time}\n"
            + _motion_text(clip.frames, clip.skeleton.channel_table.depth_first_columns))


#: The most values the writer formats at once, which bounds its temporaries.
_BLOCK_VALUES = 1 << 15
#: |v| is clamped to this before it is scaled, so that |v|·1e6 stays finite;
#: from 2**51 on the product has no bits below 0.5, and its row goes to `%`.
_FAST_LIMIT = 2.0**52 / 1e6


def _words(texts) -> np.ndarray:
    """Four-character ASCII texts as one (read-only) uint32 word each."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint32)


# The text of a 3-digit group g of an integer part, right-aligned in one
# word and padded with NULs; for g = 7: at _INNER + g a group below the
# leading one (NUL "007"), at _LEADING + g the leading group (3 NULs, "7"),
# at _LEADING + 1000 + g the leading group of a negative value (2 NULs,
# "-7"), and at _ABOVE + g a group above the leading one (4 NULs).
_INNER, _LEADING, _ABOVE = 0, 1000, 3000
_GROUP_WORDS = _words(
    [f"\0{g:03d}" for g in range(1000)]
    + [f"{g}".rjust(4, "\0") for g in range(1000)]
    + [f"-{g}".rjust(4, "\0") for g in range(1000)]
    + ["\0" * 4] * 1000
)
_POINT_WORDS = _words(f".{g:03d}" for g in range(1000))  # the first three decimals
_SPACE_WORDS = _words(f"{g:03d} " for g in range(1000))  # the last three, then a space


def _thousands(values: np.ndarray) -> tuple:
    """(quotient, remainder) by 1000 of integer-valued floats below 2**52;
    both exact, since the quotient's roundoff cannot reach the next integer."""
    quotient = np.floor(values / 1000.0)
    return quotient, values - quotient * 1000.0


def _motion_text(frames: np.ndarray, columns: np.ndarray) -> str:
    """The motion rows, the values of `columns` in that order: each value
    as `%.6f` formats it, joined by spaces, each row ended by a newline."""
    if columns.size == 0:
        return "\n" * frames.shape[0]
    step = max(1, _BLOCK_VALUES // columns.size)
    return "".join(_format_rows(frames[start : start + step, columns])
                   for start in range(0, frames.shape[0], step))


def _format_rows(values: np.ndarray) -> str:
    """`_motion_text` of one block of rows, in fixed point: `_fixed_point`
    rounds every value, `_digit_words` spells it out, and the NUL padding
    that right-aligns each integer part is deleted from the whole block at
    once. A row holding a value that `_fixed_point` cannot round exactly is
    formatted by `%` instead, so round-half-even is never re-implemented."""
    exact, integer, first, last = _fixed_point(values)
    text = _digit_words(np.signbit(values), integer, first, last).tobytes()
    text = text.translate(None, b"\0").decode("ascii")
    inexact = np.flatnonzero(~exact.all(axis=1))
    if inexact.size:
        lines = text.split("\n")
        row = " ".join(["%.6f"] * values.shape[1])
        for index in inexact.tolist():
            lines[index] = row % tuple(values[index].tolist())
        text = "\n".join(lines)
    return text


def _fixed_point(values: np.ndarray) -> tuple:
    """|values|·10**6 rounded to an integer as `%.6f` rounds it: whether
    that rounding is exact, then the integer part and the first and last
    three decimals, as integer-valued floats.

    With p = |v|·1e6 (one rounding, at most p·2**-53 off) and r its
    fraction, floor(p) + (r > 0.5) is the correctly rounded |v|·10**6
    whenever |r - 0.5| exceeds p·2**-52: the exact product then lies on the
    same side of the half-integer. That fails for a tie or near tie (such
    as 0.0078125) and for |v| of about 2.25e9 or more.
    """
    scaled = np.minimum(np.abs(values), _FAST_LIMIT)
    with np.errstate(under="ignore"):  # a subnormal product rounds to 0 either way
        scaled *= 1e6
    whole = np.floor(scaled)
    fraction = scaled - whole
    exact = np.abs(fraction - 0.5) * 2.0**52 > scaled
    whole += fraction > 0.5
    integer = np.floor(whole / 1e6)  # exact below 2**52, as in `_thousands`
    whole -= integer * 1e6
    return exact, integer, *_thousands(whole)


def _digit_words(negative: np.ndarray, integer: np.ndarray, first: np.ndarray,
                 last: np.ndarray) -> np.ndarray:
    """The (rows, width, words) uint32 text of a block: per value the
    integer part's 3-digit groups (the sign before the leading one), then
    the point and the decimals, then a space, or a newline at a row's end;
    one table gather per word."""
    rows, width = integer.shape
    powers = (1e3, 1e6, 1e9)  # an integer part below 2**52 / 1e6 has at most four groups
    groups = 1 + sum(integer.max() >= power for power in powers)
    words = np.empty((rows, width, groups + 2), dtype=np.uint32)
    leading = negative * 1000.0
    leading += _LEADING
    if groups > 1:
        top = sum(integer >= power for power in powers)  # each value's leading group
    for group in range(groups):  # the units group first
        if group < groups - 1:
            integer, digits = _thousands(integer)
        else:
            digits = integer
        table = leading if groups == 1 else np.where(
            top > group, _INNER, np.where(top == group, leading, _ABOVE))
        words[..., groups - 1 - group] = _GROUP_WORDS[(table + digits).astype(np.intp)]
    words[..., -2] = _POINT_WORDS[first.astype(np.intp)]
    words[..., -1] = _SPACE_WORDS[last.astype(np.intp)]
    words.view(np.uint8)[:, -1, -1] = ord("\n")
    return words


def _atomic_write(path, data: bytes):
    """Write `data` to `path` through a temporary file in the same
    directory: the target appears only once fully written. A new target
    gets the mode `open` would give it (0o666 less the umask); a replaced
    one keeps its mode."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    try:
        mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        mode = None
    # O_EXCL: never opens a file that is already there. The umask only
    # clears bits, so the temporary file is never more open than the old one.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if mode is None else mode)
    try:
        with os.fdopen(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)  # the bits the umask cleared
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_file(path, clip: MotionClip):
    """Write BVH atomically as UTF-8: the target appears only on success."""
    _atomic_write(path, write(clip).encode("utf-8"))


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------

def subsample(clip: MotionClip, target_fps: float) -> MotionClip:
    """Integer-stride frame decimation to approximately target_fps.

    Keeps every k-th frame with k = round(source_fps / target_fps); the
    frame time scales by k. Raises BadRateError when the target exceeds
    the source rate.
    """
    if not target_fps > 0:
        raise BadRateError("target fps must be positive")
    source_fps = clip.fps
    if target_fps > source_fps + 1e-9:
        raise BadRateError(
            f"target rate {target_fps:g} fps exceeds source rate {source_fps:g} fps"
        )
    stride = max(1, round(source_fps / target_fps))
    return MotionClip(
        skeleton=clip.skeleton,
        frame_time=clip.frame_time * stride,
        # a copy: a strided view would keep the full-rate frames alive
        frames=_read_only(clip.frames[::stride].copy()),
    )
