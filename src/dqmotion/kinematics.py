"""Hierarchical transforms between local (parent-relative) and current
(root-centered) coordinates, batched over frames.

A `LocalPose` is an immutable value: a clip's (F, J, 4) local rotations
and (F, 3) root path, F >= 1, the one input of every layer; a single
frame, `pose[f]`, has no `len` and is never one. It normalizes its
rotations once, as (4, J, F) rows checked by the one unit rule, which
its sweep and every encoding read, so every kind raises what `positions`
raises. It runs its one forward sweep at most once, keeping the current
rotations beside the positions (`positions` for the metrics; both for
the encodings), and its slices reuse them; it also holds the blocks that
`encoding.encode` shares between kinds, which its slices do not take.

This module holds the one forward hierarchy sweep, which every layer
runs (`LocalPose`, the dualquat `decode`, the loss terms' space changes).
It works on (C, J, ...) component rows, the transpose of (..., J, C)
values (`_to_rows` and `_from_rows` copy between the two; the public
algebra functions copy with `quat._on_rows` instead), and takes the
product of `quat.mul` (C = 4) or `dualquat.mul` (C = 8) from C, on their
row kernels and with their bits (`_mul_rows`, which `losses` shares);
a level of few (joint, frame) columns takes the product stacked, one
gather of each operand's terms and one multiply (`quat._products`).
`compose` sweeps parent to child one depth level at a time, over the
levels the skeleton builds once; `relative` undoes it with one parent
gather and one product whose term table conjugates the parents.
A pose's sweep is on the rotations alone: `compose` on its checked unit
rows, each offset turned by its parent's current rotation, q (0, o) q*
(two products, 24 multiply terms a (joint, frame) beside the sweep's
16), and the turned offsets added parent to child over the same levels,
the one other loop over them. A current unit dual quaternion is fixed
by its rotation q and position p, (q, 1/2 (0, p) q), so the encodings
build the dq blocks from the kept rotation rows and positions, with no
sweep of their own.

The clip conversions (`clip_to_local`, `local_to_clip`) read the
skeleton's rotation plan (`ChannelTable.rotations`): one gather of every
rotating joint's columns in composition order, and one call of the
Euler kernel (`quat._from_euler` or `quat._to_euler`) with the joints'
axes and parities as data, whatever mix of orders they use.

Root translation never enters the sweep; it is carried alongside as a
plain 3-vector, and all current-frame positions are relative to the root.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dualquat, quat
from .bvh import MotionClip, Skeleton, _frozen, _read_only
from .errors import ShapeMismatchError, TooFewFramesError

#: The terms of q * (0, o): a pure right operand, stored as its three vector rows.
_OFFSET_TERMS = quat._product_terms(quat._QUAT_SUMS, b_parts=(None, 0, 1, 2))


@dataclass(frozen=True, eq=False)
class LocalPose:
    """Per-joint local rotations plus the separate root displacement, for
    a whole clip or for one frame. An immutable value.

    joint_rotations is (F, J, 4) unit quaternions with root_translation
    (F, 3), or (J, 4) with (3,) for a single frame. Rows follow skeleton
    order; end sites (and any channel-less joints) carry the identity.
    `len(pose)` is F, `pose[f]` is frame f as a single-frame pose (no
    `len`), `pose[a:b]` stays batched, and iterating yields single frames.

    Both arrays are read-only; a writable one given to the constructor is
    copied, so the pose never aliases it. `_rotation_rows`, the first
    memo, holds the normalized (4, J, F) rotation rows, kept only when
    they pass the one unit check; the sweep and every encoding read them,
    so each raises what `positions` raises. The forward sweep runs on
    first use of `positions` (or of an encoding that reads it) and keeps,
    in one read-only memo, the composed (4, J, F) rotation rows beside the
    (F, J, 3) positions (nothing is kept when it raises); a slice of the
    pose takes the same slice of both, so a window of a pose scored in
    full runs no hierarchy sweep. A non-empty slice of a batched pose
    holds read-only views of its arrays and skips the constructor's
    checks, which they passed; an empty slice and any other index run
    them. A slice normalizes its own rotations when it needs them.
    `_encoded_parts`, the third memo, holds views into clips that
    `encoding.encode` built from the pose; a slice starts without it,
    since the sign correction seeds at the slice's first frame.
    """

    skeleton: Skeleton
    root_translation: np.ndarray  # (F, 3) or (3,)
    joint_rotations: np.ndarray  # (F, J, 4) or (J, 4)

    def __post_init__(self):
        rotations = _frozen(self.joint_rotations)
        expected = (self.skeleton.num_joints, 4)
        if rotations.ndim not in (2, 3) or rotations.shape[-2:] != expected:
            raise ShapeMismatchError(
                f"joint_rotations must have shape {expected} or (F,) + {expected}")
        if rotations.ndim == 3 and rotations.shape[0] == 0:
            raise TooFewFramesError("need at least one frame")
        root = _frozen(self.root_translation)
        try:
            root = _read_only(root.reshape(rotations.shape[:-2] + (3,)))
        except ValueError:
            raise ShapeMismatchError("root_translation must hold one 3-vector per frame") from None
        object.__setattr__(self, "joint_rotations", rotations)
        object.__setattr__(self, "root_translation", root)

    @property
    def batched(self) -> bool:
        return self.joint_rotations.ndim == 3

    def __len__(self) -> int:
        if not self.batched:
            raise ShapeMismatchError("a single-frame pose has no frame axis")
        return self.joint_rotations.shape[0]

    def __getitem__(self, index) -> "LocalPose":
        len(self)  # a single-frame pose has no frame axis to index
        rotations = self.joint_rotations[index]
        if isinstance(index, slice) and len(rotations):
            # frames of a checked pose: read-only views, nothing to check again
            pose = object.__new__(LocalPose)
            vars(pose).update(skeleton=self.skeleton, joint_rotations=rotations,
                              root_translation=self.root_translation[index])
        else:
            pose = LocalPose(self.skeleton, self.root_translation[index], rotations)
        if "_sweep" in vars(self):  # never `_encoded_parts`
            current, positions = self._sweep
            vars(pose)["_sweep"] = _read_only(current[..., index]), _read_only(positions[index])
        return pose

    def __iter__(self):
        return (self[f] for f in range(len(self)))

    @property
    def positions(self) -> np.ndarray:
        """(..., J, 3) root-centered joint positions of the normalized
        rotations: `compose` of the rotations alone, each offset turned by
        its parent's current rotation, q (0, o) q*, and the turned offsets
        added parent to child over the same levels, the root at +0.0. It
        raises what `_rotation_rows` raises, as every encoding does."""
        return self._sweep[1]

    @cached_property
    def _rotation_rows(self) -> np.ndarray:
        """The (4, J, ...) rows of the normalized rotations, read-only,
        checked once by the one unit rule: what every encoding and the
        sweep read. A rotation that normalizes to no unit (a NaN) raises
        the NotUnitError of `dualquat.translation`'s check."""
        rows = _unit_rows(self.joint_rotations)
        if not dualquat._within_unit_tolerance(*dualquat._residual_rows(rows)):
            raise dualquat._not_unit("translation")
        return _read_only(rows)

    @cached_property
    def _sweep(self) -> tuple[np.ndarray, np.ndarray]:
        """The one forward sweep: the (4, J, ...) rows of the current
        rotations, composed from `_rotation_rows`, and the (..., J, 3)
        `positions`, both read-only."""
        skeleton = self.skeleton
        current = compose(skeleton.levels, self._rotation_rows)
        parents = current.take(skeleton.parent_indices[1:], axis=1)
        offsets = skeleton.offsets[1:].T.reshape((3, -1) + (1,) * (current.ndim - 2))
        out = np.empty((3,) + current.shape[1:])
        out[:, 0] = 0.0
        turning = quat._products(_OFFSET_TERMS, parents, offsets)  # q (0, o)
        quat._products(dualquat._TRANSLATION_TERMS, turning, parents, out[:, 1:])  # its q* product's vector
        del parents, turning  # freed before the positions' copy
        for level, parent_rows in skeleton.levels:
            out[:, level] += out.take(parent_rows, axis=1)
        return _read_only(current), _read_only(_from_rows(out))

    @cached_property
    def _encoded_parts(self) -> dict:
        """The parts of the blocks that `encoding.encode` built from this
        pose, by part name, each a read-only view into the features of a
        clip encoded from it. Filled by `encode` after a clip is built; a
        slice of the pose starts empty."""
        return {}


# ---------------------------------------------------------------------------
# the hierarchy sweep
# ---------------------------------------------------------------------------

def _to_rows(values: np.ndarray) -> np.ndarray:
    """(C, J, F) rows of (F, J, C) values, every axis reversed, in one
    C-contiguous copy: each component one row, each joint's frames one run."""
    return np.asarray(values, dtype=float).T.copy()


def _unit_rows(rotations: np.ndarray) -> np.ndarray:
    """`_to_rows(quat.normalize(rotations))`, its bits and errors, in one
    copy: the rows are normalized in place."""
    rows = _to_rows(rotations)
    rows /= quat._unit_norms(rows)
    return rows


def _from_rows(rows: np.ndarray) -> np.ndarray:
    """C-contiguous (F, J, C) values of (C, J, F) rows, or (F, J) of (J, F)."""
    return rows.T.copy()


def _mul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
              swap: bool = False, conjugate: str | None = None) -> np.ndarray:
    """Product of (C, ...) rows of quaternions (C = 4) or dual quaternions
    (C = 8), through the row kernel of `quat.mul` or `dualquat.mul`, into
    `out` (a new array when None). With `swap`, dual quaternions trade
    the real and dual rows of b and of the result (`dualquat._mul_rows`);
    quaternions have no parts to trade. With `conjugate` "a" or "b", that
    operand's conjugate takes its place, its signs in the term table."""
    out = np.empty(a.shape) if out is None else out
    if len(a) == 4:
        quat._mul_rows(a, b, out, conjugate)
    elif len(a) == 8:
        dualquat._mul_rows(a, b, out, swap, conjugate)
    else:
        raise ShapeMismatchError("component rows must hold quaternions (4) or dual quaternions (8)")
    return out


def compose(levels: tuple, rows: np.ndarray) -> np.ndarray:
    """Forward hierarchy sweep over (C, J, ...) rows of per-joint
    quaternions (C = 4) or dual quaternions (C = 8).

    `levels` are a skeleton's (rows, parent rows) per depth level
    (`Skeleton.levels` or `Skeleton.encoded_levels`). Joint j of the
    result is result[parent of j] * rows[j]; the root keeps its value.
    The loop runs once per depth level, not once per joint.
    """
    out = np.array(rows, dtype=float)
    for level, parent_rows in levels:
        out[:, level] = _mul_rows(out.take(parent_rows, axis=1), out.take(level, axis=1))
    return out


def relative(parents: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Inverse of `compose` for unit values, with one parent gather.

    Joint j of the result is conjugate(rows[parents[j]]) * rows[j], for
    (C, J, ...) rows as in `compose`, into a new array of the layout of
    `rows`; the root, joint 0, keeps its value.
    """
    rows = np.asarray(rows, dtype=float)
    out = np.empty_like(rows)
    out[:, 0] = rows[:, 0]
    _mul_rows(rows.take(parents[1:], axis=1), rows[:, 1:], out[:, 1:], conjugate="a")
    return out


# ---------------------------------------------------------------------------
# clip conversion (the degrees/radians boundary)
# ---------------------------------------------------------------------------

def clip_to_local(clip: MotionClip) -> LocalPose:
    """Expand a raw clip into one frame-batched LocalPose (radians,
    quaternions): one gather of the rotation columns and one call of the
    Euler kernel, for every joint whatever its order."""
    skeleton, table = clip.skeleton, clip.skeleton.channel_table
    plan = table.rotations
    rotations = np.zeros((clip.num_frames, skeleton.num_joints, 4))
    rotations[..., 0] = 1.0
    angles = clip.frames[:, plan.columns.T].swapaxes(0, 1)
    quat._from_euler(np.radians(angles, out=angles), plan, rotations, plan.joints)
    root_translation = np.zeros((clip.num_frames, 3))
    root_translation[:, table.position_axes] = clip.frames[:, table.position_columns]
    return LocalPose(skeleton, _read_only(root_translation), _read_only(rotations))


def local_to_clip(pose: LocalPose, template: Skeleton, frame_time: float) -> MotionClip:
    """Flatten a batched LocalPose back into a raw channel matrix
    (degrees): one call of the Euler kernel and one scatter, for every
    joint whatever its order."""
    if pose.skeleton != template:
        raise ShapeMismatchError("pose skeleton does not match the template")
    table = template.channel_table
    plan = table.rotations
    frames = np.zeros((len(pose), template.channel_count))
    frames[:, table.position_columns] = pose.root_translation[:, table.position_axes]
    rotations = quat.normalize(pose.joint_rotations[:, plan.joints])
    euler = quat._to_euler(rotations, plan)
    frames[:, plan.columns.T] = np.degrees(euler, out=euler).swapaxes(0, 1)
    return MotionClip(skeleton=template, frame_time=frame_time, frames=_read_only(frames))
