"""Hierarchical transforms between local (parent-relative) and current
(root-centered) coordinates, batched over frames.

A `LocalPose` is an immutable value: a clip's (F, J, 4) local rotations
and (F, 3) root path. It runs each of its two hierarchy sweeps (`chain`
for the encodings, `positions` for the metrics) at most once, and its
slices reuse them. Every layer shares two hierarchy helpers: `compose`
sweeps parent to child one depth level at a time, over the levels the
skeleton builds once, and `relative` undoes it with one parent gather.

`pose.chain` is the current pose: each joint's root-centered unit dual
quaternion, built by `current_chain` on `compose`. `decode` of a dualquat
clip is its inverse, and `relative(skeleton.parent_indices, pose.chain,
dualquat.mul, dualquat.conjugate)` gives each joint's local transform,
its translation the joint offset as encoded.

The clip conversions (`clip_to_local`, `local_to_clip`) read the
skeleton's channel table: per Euler order present, one gather of the
joints' rotation columns and one `from_euler` or `to_euler` call.

Root translation never enters either chain; it is carried alongside as a
plain 3-vector, and all current-frame positions are relative to the root.
"""

from dataclasses import dataclass, field

import numpy as np

from . import dualquat, quat
from .bvh import MotionClip, Skeleton, _read_only
from .errors import ShapeMismatchError, TooFewFramesError


def _frozen(values) -> np.ndarray:
    """A read-only float array that views no writable array as it is;
    anything else as a read-only copy."""
    if isinstance(values, np.ndarray) and values.dtype == float and not values.flags.writeable:
        base = values.base
        if base is None or isinstance(base, np.ndarray) and not base.flags.writeable:
            return values
    return _read_only(np.array(values, dtype=float))


@dataclass(frozen=True)
class LocalPose:
    """Per-joint local rotations plus the separate root displacement, for
    a whole clip or for one frame. An immutable value.

    joint_rotations is (F, J, 4) unit quaternions with root_translation
    (F, 3), or (J, 4) with (3,) for a single frame. Rows follow skeleton
    order; end sites (and any channel-less joints) carry the identity.
    `len(pose)` is F, `pose[f]` is frame f as a single-frame pose,
    `pose[a:b]` stays batched, and iterating yields single frames.

    Both arrays are read-only; a writable one given to the constructor is
    copied, so the pose never aliases it. `chain` and `positions` are
    each computed on first use and kept read-only (nothing is kept when
    they raise); a slice of the pose takes the same slice of what is kept,
    so a window of a pose scored in full runs no hierarchy sweep.
    """

    skeleton: Skeleton
    root_translation: np.ndarray  # (F, 3) or (3,)
    joint_rotations: np.ndarray  # (F, J, 4) or (J, 4)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rotations = _frozen(self.joint_rotations)
        expected = (self.skeleton.num_joints, 4)
        if rotations.ndim not in (2, 3) or rotations.shape[-2:] != expected:
            raise ValueError(f"joint_rotations must have shape {expected} or (F,) + {expected}")
        root = _read_only(_frozen(self.root_translation).reshape(rotations.shape[:-2] + (3,)))
        object.__setattr__(self, "joint_rotations", rotations)
        object.__setattr__(self, "root_translation", root)

    @property
    def batched(self) -> bool:
        return self.joint_rotations.ndim == 3

    def __len__(self) -> int:
        if not self.batched:
            raise TypeError("a single-frame pose has no frame axis")
        return self.joint_rotations.shape[0]

    def __getitem__(self, index) -> "LocalPose":
        if not self.batched:
            raise TypeError("a single-frame pose has no frame axis")
        pose = LocalPose(self.skeleton, _read_only(self.root_translation[index]),
                         _read_only(self.joint_rotations[index]))
        for key, value in self._memo.items():
            pose._memo[key] = _read_only(value[index])
        return pose

    def __iter__(self):
        return (self[f] for f in range(len(self)))

    def _memoized(self, key: str, sweep) -> np.ndarray:
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = _read_only(sweep())
        return value

    @property
    def chain(self) -> np.ndarray:
        """The current pose: (..., J, 8) `current_chain` of the rotations
        as they are, one root-centered unit dual quaternion per joint."""
        return self._memoized("chain", lambda: current_chain(self.skeleton, self.joint_rotations))

    @property
    def positions(self) -> np.ndarray:
        """(..., J, 3) root-centered joint positions of the normalized rotations."""
        return self._memoized("positions", lambda: dualquat.translation(
            current_chain(self.skeleton, quat.normalize(self.joint_rotations))))


def stack_poses(poses) -> LocalPose:
    """The frame-batched pose of `poses`: a batched LocalPose as it is, or
    a sequence of single-frame poses stacked along a new frame axis.

    Raises ShapeMismatchError when the poses reference different
    skeletons and TooFewFramesError when there is no frame.
    """
    if not isinstance(poses, LocalPose):
        poses = list(poses)
        if not poses:
            raise TooFewFramesError("need at least one pose")
        skeleton = poses[0].skeleton
        if any(p.skeleton is not skeleton and p.skeleton != skeleton for p in poses[1:]):
            raise ShapeMismatchError("poses reference different skeletons")
        poses = LocalPose(
            skeleton,
            _read_only(np.stack([p.root_translation for p in poses])),
            _read_only(np.stack([p.joint_rotations for p in poses])),
        )
    if len(poses) == 0:
        raise TooFewFramesError("need at least one pose")
    return poses


# ---------------------------------------------------------------------------
# the hierarchy sweep
# ---------------------------------------------------------------------------

def compose(levels: tuple, local: np.ndarray, mul) -> np.ndarray:
    """Forward hierarchy sweep over (..., J, D) per-joint values.

    `levels` are a skeleton's (rows, parent rows) per depth level
    (`Skeleton.levels` or `Skeleton.encoded_levels`). Entry j of the result
    is mul(result[parent of j], local[j]); the root keeps its local value.
    The loop runs once per depth level, not once per joint.
    """
    out = np.array(local, dtype=float)
    for rows, parent_rows in levels:
        out[..., rows, :] = mul(out[..., parent_rows, :], out[..., rows, :])
    return out


def relative(parents: np.ndarray, current: np.ndarray, mul, conjugate) -> np.ndarray:
    """Inverse of `compose` for unit values, with one parent gather.

    Entry j is mul(conjugate(current[parents[j]]), current[j]); the root,
    row 0, keeps its current value. `conjugate` must invert the values it
    is given.
    """
    child = np.arange(1, len(parents))  # a gather, not a slice: contiguous operands
    out = np.array(current, dtype=float)
    out[..., child, :] = mul(conjugate(current[..., parents[child], :]), current[..., child, :])
    return out


def current_chain(skeleton: Skeleton, rotations: np.ndarray) -> np.ndarray:
    """(..., J, 4) local rotations to (..., J, 8) current dual quaternions.

    The root becomes a pure-rotation dual quaternion; each child is its
    parent's current transform times its own local (rotation + offset)
    transform. Raises NotUnitError unless every rotation is unit.
    """
    rotations = np.asarray(rotations, dtype=float)
    offsets = skeleton.offsets.copy()
    offsets[0] = 0.0  # the root displacement rides outside the chain
    local = dualquat.from_rotation_translation(
        rotations, np.broadcast_to(offsets, rotations.shape[:-1] + (3,))
    )
    return compose(skeleton.levels, local, dualquat.mul)


# ---------------------------------------------------------------------------
# clip conversion (the degrees/radians boundary)
# ---------------------------------------------------------------------------

def clip_to_local(clip: MotionClip) -> LocalPose:
    """Expand a raw clip into one frame-batched LocalPose (radians,
    quaternions): one gather and one `from_euler` call per Euler order."""
    skeleton, table = clip.skeleton, clip.skeleton.channel_table
    rotations = np.zeros((clip.num_frames, skeleton.num_joints, 4))
    rotations[..., 0] = 1.0
    for order, joints, columns in table.rotations:
        rotations[:, joints] = quat.from_euler(np.radians(clip.frames[:, columns]), order)
    root_translation = np.zeros((clip.num_frames, 3))
    root_translation[:, table.position_axes] = clip.frames[:, table.position_columns]
    return LocalPose(skeleton, _read_only(root_translation), _read_only(rotations))


def local_to_clip(poses, template: Skeleton, frame_time: float) -> MotionClip:
    """Flatten a batched LocalPose (or a sequence of single-frame poses)
    back into a raw channel matrix (degrees): one `to_euler` call and one
    scatter per Euler order."""
    pose = stack_poses(poses)
    if pose.skeleton is not template and pose.skeleton != template:
        raise ValueError("pose skeleton does not match the template")
    table = template.channel_table
    frames = np.zeros((len(pose), template.channel_count))
    frames[:, table.position_columns] = pose.root_translation[:, table.position_axes]
    for order, joints, columns in table.rotations:
        frames[:, columns] = np.degrees(quat.to_euler(pose.joint_rotations[:, joints], order))
    return MotionClip(skeleton=template, frame_time=frame_time, frames=frames)
