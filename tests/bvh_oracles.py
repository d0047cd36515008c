"""Row-by-row and value-by-value forms of the BVH text code: the
equivalence oracle for the bulk motion-block read in `bvh.parse` and the
row formatting in `bvh.write`.

These are the original implementations: the whole text tokenized line by
line up front, the motion block converted one row at a time, and every
channel value written with its own f-string. The parse oracle shares the
package's header code (`bvh._parse_skeleton` and `bvh._parse_timing`,
without the memo), so the two parsers differ only where the package
changed: tokenizing on demand and the bulk read. The row loop converts
each value through the package's number syntax (`bvh._number`), so the
two parsers are compared on structure, not on what counts as a number.
One difference is deliberate: for a skeleton with no channels the oracle
still reads one non-blank row per frame, so it fails with "unexpected end
of file" on the blank rows `bvh.write` emits, where `bvh.parse` takes a
zero-width block to hold no rows that are not blank. The write oracle
keeps the package's one header change: a frame time that six decimals
would print as 0.000000 is written as its `repr`.

The skeleton checks are kept the same way: `validate_skeleton` is the
per-joint loop of `Skeleton.__post_init__` with each offset's finiteness
and each rotation count taken inside the loop, and `rotation_plan` the
rotation plan of the channel table with each joint's columns found by
`channels.index`.
"""

from dataclasses import dataclass, field

import numpy as np

from dqmotion import bvh
from dqmotion.bvh import POSITION_CHANNELS, MotionClip
from dqmotion.errors import BvhSyntaxError, ChannelMismatchError, InvalidValueError


@dataclass
class Tokens:
    """Line-oriented token stream that remembers line numbers for errors."""

    lines: list[tuple[int, list[str]]]
    pos: int = 0
    last_line: int = field(default=0)

    @classmethod
    def from_text(cls, text: str) -> "Tokens":
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


def parse(text: str | bytes) -> MotionClip:
    """`bvh.parse` with the motion block read one row at a time."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = exc.object[: exc.start].decode("utf-8") + "?"
            raise BvhSyntaxError(len(before.splitlines()), "text is not valid UTF-8") from None
    tokens = Tokens.from_text(text.removeprefix("\ufeff"))  # some exporters prepend a BOM
    skeleton = bvh._parse_skeleton(tokens)
    num_frames, frame_time = bvh._parse_timing(tokens)

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
            frames[i] = [bvh._number(v) for v in row]
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


def write(clip: MotionClip) -> str:
    """Canonical BVH text: one stack pass writes the joints depth-first,
    siblings in index order, and each motion value is formatted alone."""
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

    frame_time = f"{clip.frame_time:.6f}"
    if frame_time == "0.000000":  # a frame time below 5e-7: its shortest repr
        frame_time = repr(float(clip.frame_time))
    out.extend(["MOTION", f"Frames: {clip.num_frames}", f"Frame Time: {frame_time}"])
    for row in clip.frames[:, columns]:
        out.append(" ".join(f"{v:.6f}" for v in row))
    return "\n".join(out) + "\n"


def validate_skeleton(joints) -> None:
    """Raise what `bvh.Skeleton(joints)` raises for a malformed joint list:
    the checks one joint at a time, in joint order."""
    joints = tuple(joints)
    if not joints:
        raise InvalidValueError("skeleton needs at least one joint")
    if joints[0].parent is not None:
        raise InvalidValueError("joint 0 must be the root (parent None)")
    names, with_end_site = set(), set()
    for idx, joint in enumerate(joints):
        if idx > 0 and (joint.parent is None or not 0 <= joint.parent < idx):
            raise InvalidValueError(f"joint {joint.name!r} breaks topological parent order")
        if joint.name in names:
            raise InvalidValueError(f"duplicate joint name {joint.name!r}")
        names.add(joint.name)
        if not np.all(np.isfinite(joint.offset)):
            raise InvalidValueError(f"non-finite offset on joint {joint.name!r}")
        for tag in joint.channels:
            if tag not in bvh._CHANNEL_TAGS:
                raise InvalidValueError(f"unknown channel tag {tag!r}")
        if len(set(joint.channels)) != len(joint.channels):
            raise InvalidValueError(f"duplicate channel tag on joint {joint.name!r}")
        if len(joint.rotation_order) not in (0, 3):
            raise InvalidValueError(bvh._ROTATION_COUNT_MESSAGE.format(len(joint.rotation_order)))
        if joint.is_end_site and joint.channels:
            raise InvalidValueError("end sites carry no channels")
        if idx > 0 and not joint.is_end_site:
            if any(tag in POSITION_CHANNELS for tag in joint.channels):
                raise InvalidValueError("position channels are only allowed on the root")
        if idx > 0 and joints[joint.parent].is_end_site:
            raise InvalidValueError("end sites cannot have children")
        if joint.is_end_site:
            if joint.parent in with_end_site:
                raise InvalidValueError(f"joint {joints[joint.parent].name!r} has more than one end site")
            with_end_site.add(joint.parent)


#: The Euler orders whose axes follow one another cyclically.
CYCLIC_ORDERS = ("XYZ", "YZX", "ZXY")


def rotation_plan(joints) -> tuple:
    """(joints, columns, axes, parity), as `ChannelTable.rotations` holds
    them: each joint's order read from `rotation_order`, its columns in
    that order found with `channels.index`, each column's axis the index
    of its letter in "XYZ", and the parity 1.0 for a cyclic order."""
    starts = np.cumsum([0] + [len(j.channels) for j in joints])
    rows, columns, axes, parity = [], [], [], []
    for index, joint in enumerate(joints):
        order = joint.rotation_order
        if order:
            rows.append(index)
            columns += [starts[index] + joint.channels.index(axis + "rotation") for axis in order]
            axes += ["XYZ".index(axis) for axis in order]
            parity.append(1.0 if order in CYCLIC_ORDERS else -1.0)
    return (np.array(rows, dtype=np.intp), np.array(columns, dtype=np.intp).reshape(-1, 3),
            np.array(axes, dtype=np.intp).reshape(-1, 3), np.array(parity))
