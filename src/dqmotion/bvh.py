"""BVH motion-capture file model: parse, write, subsample.

The parser is a faithful file model: channel values stay in file units
(degrees for rotations), channel order is preserved verbatim per joint,
and End Site blocks are retained as channel-less joints so end-effector
offsets survive. Degrees/radians conversion happens exactly once, in the
kinematics layer, never here.

Accepted input is tolerant about whitespace (spaces, tabs, CRLF); output
is canonical: LF newlines, two-space indentation, six decimal places.

`Skeleton` owns the topology every layer walks (parents, offsets, encoded
joints, depth levels), each view built once and read-only. The parser and
the writer walk the hierarchy with a stack; the writer writes depth-first
whatever order the skeleton lists its joints in.
"""

import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadRateError,
    BvhSyntaxError,
    ChannelMismatchError,
    UnsupportedChannelError,
)

POSITION_CHANNELS = ("Xposition", "Yposition", "Zposition")
ROTATION_CHANNELS = ("Xrotation", "Yrotation", "Zrotation")
_CHANNEL_TAGS = set(POSITION_CHANNELS) | set(ROTATION_CHANNELS)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class JointSpec:
    """One node of the hierarchy, end sites included. Frozen, so that the
    views a `Skeleton` builds from its joints stay true."""

    name: str
    parent: int | None
    offset: np.ndarray
    channels: tuple[str, ...]
    is_end_site: bool = False

    def __post_init__(self):
        object.__setattr__(self, "offset", _read_only(np.array(self.offset, dtype=float).reshape(3)))
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def rotation_order(self) -> str:
        """Composition order of the rotation channels, e.g. 'ZYX'."""
        return "".join(tag[0] for tag in self.channels if tag in ROTATION_CHANNELS)


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


@dataclass(eq=False)
class Skeleton:
    """Joint hierarchy in topological order; joint 0 is the single root.
    The joints are a tuple, and each derived view is built on first use."""

    joints: tuple[JointSpec, ...]

    def __post_init__(self):
        self.joints = tuple(self.joints)
        if not self.joints:
            raise ValueError("skeleton needs at least one joint")
        if self.joints[0].parent is not None:
            raise ValueError("joint 0 must be the root (parent None)")
        names = set()
        for idx, joint in enumerate(self.joints):
            if idx > 0 and (joint.parent is None or not 0 <= joint.parent < idx):
                raise ValueError(f"joint {joint.name!r} breaks topological parent order")
            if joint.name in names:
                raise ValueError(f"duplicate joint name {joint.name!r}")
            names.add(joint.name)
            if not np.all(np.isfinite(joint.offset)):
                raise ValueError(f"non-finite offset on joint {joint.name!r}")
            for tag in joint.channels:
                if tag not in _CHANNEL_TAGS:
                    raise ValueError(f"unknown channel tag {tag!r}")
            if len(set(joint.channels)) != len(joint.channels):
                raise ValueError(f"duplicate channel tag on joint {joint.name!r}")
            if joint.is_end_site and joint.channels:
                raise ValueError("end sites carry no channels")
            if idx > 0 and not joint.is_end_site:
                if any(tag in POSITION_CHANNELS for tag in joint.channels):
                    raise ValueError("position channels are only allowed on the root")
            if idx > 0 and self.joints[joint.parent].is_end_site:
                raise ValueError("end sites cannot have children")

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

    @property
    def channel_count(self) -> int:
        return sum(len(j.channels) for j in self.joints)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Skeleton):
            return NotImplemented
        if len(self.joints) != len(other.joints):
            return False
        return all(
            a.name == b.name
            and a.parent == b.parent
            and a.channels == b.channels
            and a.is_end_site == b.is_end_site
            and np.array_equal(a.offset, b.offset)
            for a, b in zip(self.joints, other.joints)
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
        return cls(
            [
                JointSpec(
                    name=j["name"],
                    parent=j["parent"],
                    offset=np.array(j["offset"], dtype=float),
                    channels=tuple(j["channels"]),
                    is_end_site=bool(j["end_site"]),
                )
                for j in data["joints"]
            ]
        )


@dataclass
class MotionClip:
    """Raw motion: a skeleton plus the frame matrix exactly as stored."""

    skeleton: Skeleton
    frame_time: float
    frames: np.ndarray  # (F, C), rotations in degrees, root translation in file units

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError("frames must be a (F >= 1, C) matrix")
        if self.frames.shape[1] != self.skeleton.channel_count:
            raise ValueError(
                f"frame width {self.frames.shape[1]} != declared channel count "
                f"{self.skeleton.channel_count}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("non-finite channel values")
        if not (self.frame_time > 0):
            raise ValueError("frame_time must be positive")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def fps(self) -> float:
        return 1.0 / self.frame_time


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@dataclass
class _Tokens:
    """Line-oriented token stream that remembers line numbers for errors."""

    lines: list[tuple[int, list[str]]]
    pos: int = 0
    last_line: int = field(default=0)

    @classmethod
    def from_text(cls, text: str) -> "_Tokens":
        lines = []
        for number, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.replace("\t", " ").split()
            if tokens:
                lines.append((number, tokens))
        return cls(lines)

    def eof(self) -> bool:
        return self.pos >= len(self.lines)

    def peek(self) -> list[str]:
        if self.eof():
            raise BvhSyntaxError(self.last_line, "unexpected end of file")
        return self.lines[self.pos][1]

    def next(self) -> list[str]:
        tokens = self.peek()
        self.last_line = self.lines[self.pos][0]
        self.pos += 1
        return tokens

    @property
    def line(self) -> int:
        if self.eof():
            return self.last_line
        return self.lines[self.pos][0]

    def error(self, message: str) -> BvhSyntaxError:
        return BvhSyntaxError(self.last_line, message)


def _parse_offset(tokens: _Tokens) -> np.ndarray:
    row = tokens.next()
    if row[0] != "OFFSET" or len(row) != 4:
        raise tokens.error("expected 'OFFSET x y z'")
    try:
        return np.array([float(v) for v in row[1:]])
    except ValueError:
        raise tokens.error("OFFSET values must be numeric") from None


def _parse_channels(tokens: _Tokens) -> tuple[str, ...]:
    row = tokens.next()
    if row[0] != "CHANNELS" or len(row) < 2:
        raise tokens.error("expected 'CHANNELS n tags...'")
    try:
        count = int(row[1])
    except ValueError:
        raise tokens.error("CHANNELS count must be an integer") from None
    tags = tuple(row[2:])
    if len(tags) != count:
        raise tokens.error(f"CHANNELS declares {count} tags but lists {len(tags)}")
    for tag in tags:
        if tag not in _CHANNEL_TAGS:
            raise UnsupportedChannelError(tokens.last_line, f"unknown channel tag {tag!r}")
    return tags


def _expect(tokens: _Tokens, literal: str):
    row = tokens.next()
    if row != [literal]:
        raise tokens.error(f"expected {literal!r}")


def _parse_hierarchy(tokens: _Tokens) -> list[JointSpec]:
    """The joints of the ROOT block in file order. `open_joints` is the
    stack of joints whose blocks are open, innermost last."""
    joints: list[JointSpec] = []
    open_joints: list[int] = []
    with_end_site = set()
    while open_joints or not joints:
        parent = open_joints[-1] if open_joints else None
        row = tokens.peek()
        if not joints or row[0] == "JOINT":
            keyword = "ROOT" if parent is None else "JOINT"
            header = tokens.next()
            if header[0] != keyword or len(header) < 2:
                raise tokens.error(f"expected '{keyword} name'")
            _expect(tokens, "{")
            offset = _parse_offset(tokens)
            channels = _parse_channels(tokens)
            if parent is not None and any(tag in POSITION_CHANNELS for tag in channels):
                raise BvhSyntaxError(tokens.last_line, "position channels are only allowed on the root")
            open_joints.append(len(joints))
            joints.append(JointSpec("_".join(header[1:]), parent, offset, channels))
        elif row[:2] == ["End", "Site"]:
            if parent in with_end_site:
                raise BvhSyntaxError(tokens.line, "multiple End Site blocks in one joint")
            with_end_site.add(parent)
            tokens.next()
            _expect(tokens, "{")
            offset = _parse_offset(tokens)
            joints.append(JointSpec(f"{joints[parent].name}_end", parent, offset, (), is_end_site=True))
            _expect(tokens, "}")
        elif row == ["}"]:
            tokens.next()
            open_joints.pop()
        else:
            raise BvhSyntaxError(tokens.line, f"unexpected token {row[0]!r} in joint block")
    return joints


def parse(text: str | bytes) -> MotionClip:
    """Parse BVH text into a MotionClip.

    Raises BvhSyntaxError (line-anchored) on malformed structure,
    UnsupportedChannelError on unknown channel tags, and
    ChannelMismatchError when a motion row width disagrees with the
    declared channels.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8-sig")  # some exporters prepend a BOM
        except UnicodeDecodeError as exc:
            # The bad byte sits on the last line of the text before it
            # ("?" stands in for it, so a prefix ending in a line break counts).
            before = exc.object[: exc.start].decode("utf-8") + "?"
            raise BvhSyntaxError(len(before.splitlines()), "text is not valid UTF-8") from None
    tokens = _Tokens.from_text(text)

    if tokens.eof() or tokens.next() != ["HIERARCHY"]:
        raise tokens.error("expected 'HIERARCHY'")
    joints = _parse_hierarchy(tokens)
    if tokens.peek()[0] == "ROOT":
        raise BvhSyntaxError(tokens.line, "multiple ROOT joints are not supported")
    _expect(tokens, "MOTION")

    row = tokens.next()
    if row[0] != "Frames:" or len(row) != 2:
        raise tokens.error("expected 'Frames: n'")
    try:
        num_frames = int(row[1])
    except ValueError:
        raise tokens.error("frame count must be an integer") from None
    if num_frames < 1:
        raise tokens.error("frame count must be at least 1")

    row = tokens.next()
    if row[:2] != ["Frame", "Time:"] or len(row) != 3:
        raise tokens.error("expected 'Frame Time: t'")
    try:
        frame_time = float(row[2])
    except ValueError:
        raise tokens.error("frame time must be numeric") from None
    if not frame_time > 0:
        raise tokens.error("frame time must be positive")

    try:
        skeleton = Skeleton(joints)
    except ValueError as exc:
        raise BvhSyntaxError(tokens.last_line, str(exc)) from None

    width = skeleton.channel_count
    # A count beyond the rows left ends in "unexpected end of file" below;
    # allocate no more rows than the file holds.
    frames = np.empty((min(num_frames, len(tokens.lines) - tokens.pos), width))
    for i in range(num_frames):
        row = tokens.next()
        if len(row) != width:
            raise ChannelMismatchError(
                tokens.last_line,
                f"motion row has {len(row)} values, {width} channels declared",
            )
        try:
            frames[i] = [float(v) for v in row]
        except ValueError:
            raise ChannelMismatchError(tokens.last_line, "non-numeric channel value") from None
        if not np.all(np.isfinite(frames[i])):
            raise ChannelMismatchError(tokens.last_line, "non-finite channel value")
    if not tokens.eof():
        raise BvhSyntaxError(tokens.line, "trailing content after declared frames")

    try:
        return MotionClip(skeleton=skeleton, frame_time=frame_time, frames=frames)
    except ValueError as exc:
        raise BvhSyntaxError(tokens.last_line, str(exc)) from None


def parse_file(path) -> MotionClip:
    with open(path, "rb") as handle:
        return parse(handle.read())


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def write(clip: MotionClip) -> str:
    """Serialize a MotionClip as canonical BVH text: one stack pass writes
    the joints depth-first, siblings in index order, and each motion row
    lists its channels in that same order."""
    skeleton = clip.skeleton
    children = [[] for _ in skeleton.joints]
    for index in range(skeleton.num_joints - 1, 0, -1):  # so siblings pop in index order
        children[skeleton.joints[index].parent].append(index)
    starts = np.cumsum([0] + [len(j.channels) for j in skeleton.joints])
    out, columns, stack = ["HIERARCHY"], [], [(0, "")]
    while stack:
        index, pad = stack.pop()
        if index is None:  # the end of a joint block
            out.append(f"{pad}}}")
            continue
        joint = skeleton.joints[index]
        offset = f"{pad}  OFFSET {joint.offset[0]:.6f} {joint.offset[1]:.6f} {joint.offset[2]:.6f}"
        if joint.is_end_site:
            out.extend([f"{pad}End Site", f"{pad}{{", offset, f"{pad}}}"])
            continue
        keyword = "ROOT" if joint.parent is None else "JOINT"
        tags = "".join(" " + tag for tag in joint.channels)
        out.extend([f"{pad}{keyword} {joint.name}", f"{pad}{{", offset,
                    f"{pad}  CHANNELS {len(joint.channels)}{tags}"])
        columns.extend(range(starts[index], starts[index + 1]))
        stack.append((None, pad))
        stack.extend((child, pad + "  ") for child in children[index])

    out.extend(["MOTION", f"Frames: {clip.num_frames}", f"Frame Time: {clip.frame_time:.6f}"])
    for row in clip.frames[:, columns]:
        out.append(" ".join(f"{v:.6f}" for v in row))
    return "\n".join(out) + "\n"


def _atomic_write(path, data: bytes):
    """Write `data` to `path` through a temporary file in the same
    directory: the target appears only once fully written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
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
        frames=clip.frames[::stride].copy(),
    )
