"""Hierarchical transforms between local (parent-relative) and current
(root-centered) coordinates, batched over frames.

A `LocalPose` holds a clip's (F, J, 4) local rotations and (F, 3) root
path. Every layer shares two hierarchy helpers: `compose` sweeps parent to
child one depth level at a time, over the levels the skeleton builds once,
and `relative` undoes it with one parent gather. The dual-quaternion chain
(`current_chain`, `local_to_current` / `current_to_local`) is built on
them. A homogeneous-matrix forward kinematics (`matrix_fk`), kept free of
any dual-quaternion code, is the tests' oracle for the chain; no other
module calls it.

The clip conversions (`clip_to_local`, `local_to_clip`) read the
skeleton's channel table: per Euler order present, one gather of the
joints' rotation columns and one `from_euler` or `to_euler` call.

Root translation never enters either chain; it is carried alongside as a
plain 3-vector, and all current-frame positions are relative to the root.
"""

from dataclasses import dataclass

import numpy as np

from . import _rotmat, dualquat, quat
from .bvh import MotionClip, Skeleton
from .errors import NotUnitError, ShapeMismatchError, TooFewFramesError


def _frame_shape(skeleton: Skeleton, values: np.ndarray, width: int, field: str) -> tuple:
    """Leading (frame) shape of per-joint values: () or (F,)."""
    expected = (skeleton.num_joints, width)
    if values.ndim not in (2, 3) or values.shape[-2:] != expected:
        raise ValueError(f"{field} must have shape {expected} or (F,) + {expected}")
    return values.shape[:-2]


@dataclass
class LocalPose:
    """Per-joint local rotations plus the separate root displacement, for
    a whole clip or for one frame.

    joint_rotations is (F, J, 4) unit quaternions with root_translation
    (F, 3), or (J, 4) with (3,) for a single frame. Rows follow skeleton
    order; end sites (and any channel-less joints) carry the identity.
    `len(pose)` is F, `pose[f]` is frame f as a single-frame pose,
    `pose[a:b]` stays batched, and iterating yields single frames.
    """

    skeleton: Skeleton
    root_translation: np.ndarray  # (F, 3) or (3,)
    joint_rotations: np.ndarray  # (F, J, 4) or (J, 4)

    def __post_init__(self):
        self.joint_rotations = np.asarray(self.joint_rotations, dtype=float)
        frames = _frame_shape(self.skeleton, self.joint_rotations, 4, "joint_rotations")
        self.root_translation = np.asarray(self.root_translation, dtype=float).reshape(frames + (3,))

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
        return LocalPose(self.skeleton, self.root_translation[index], self.joint_rotations[index])

    def __iter__(self):
        return (self[f] for f in range(len(self)))


@dataclass
class CurrentPose:
    """Per-joint unit dual quaternions relative to the root, (F, J, 8)
    with (F, 3) root displacements, or (J, 8) with (3,).

    The root entry is a pure rotation (zero dual part); the root
    translation rides along unchanged.
    """

    skeleton: Skeleton
    root_translation: np.ndarray  # (F, 3) or (3,)
    joint_dq: np.ndarray  # (F, J, 8) or (J, 8)

    def __post_init__(self):
        self.joint_dq = np.asarray(self.joint_dq, dtype=float)
        frames = _frame_shape(self.skeleton, self.joint_dq, 8, "joint_dq")
        self.root_translation = np.asarray(self.root_translation, dtype=float).reshape(frames + (3,))


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
            np.stack([p.root_translation for p in poses]),
            np.stack([p.joint_rotations for p in poses]),
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


def local_to_current(pose: LocalPose) -> CurrentPose:
    """Chain local transforms into root-relative dual quaternions.

    The translation of joint j's entry is j's position relative to the
    root.
    """
    return CurrentPose(
        skeleton=pose.skeleton,
        root_translation=pose.root_translation.copy(),
        joint_dq=current_chain(pose.skeleton, pose.joint_rotations),
    )


def current_to_local_dq(pose: CurrentPose) -> np.ndarray:
    """Per-joint local dual quaternions recovered from current ones.

    Each entry is inverse(parent current) * own current; its rotation is
    the joint's local rotation and its translation is the joint offset as
    actually encoded, which the offset loss compares against the skeleton.
    """
    if not dualquat.is_unit(pose.joint_dq):
        raise NotUnitError("current pose entries must be unit dual quaternions")
    return relative(pose.skeleton.parent_indices, pose.joint_dq, dualquat.mul, dualquat.conjugate)


def current_to_local(pose: CurrentPose) -> LocalPose:
    """Inverse of local_to_current (rotations recovered up to sign)."""
    local = current_to_local_dq(pose)
    return LocalPose(
        skeleton=pose.skeleton,
        root_translation=pose.root_translation.copy(),
        joint_rotations=local[..., :4].copy(),
    )


def matrix_fk(pose: LocalPose) -> tuple[np.ndarray, np.ndarray]:
    """Root-centered forward kinematics of one frame via homogeneous
    matrices.

    Returns (J, 3, 3) current rotation matrices and (J, 3) current
    positions. This path never touches dual quaternions and sweeps the
    joints one by one; it is the verification oracle for the chain above.
    """
    skeleton = pose.skeleton
    n = skeleton.num_joints
    rotations = np.empty((n, 3, 3))
    positions = np.empty((n, 3))
    local_mats = _rotmat.quat_to_matrix(quat.normalize(pose.joint_rotations))
    for idx, joint in enumerate(skeleton.joints):
        if joint.parent is None:
            rotations[idx] = local_mats[idx]
            positions[idx] = 0.0
        else:
            parent = joint.parent
            rotations[idx] = rotations[parent] @ local_mats[idx]
            positions[idx] = positions[parent] + rotations[parent] @ joint.offset
    return rotations, positions


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
    return LocalPose(skeleton, root_translation, rotations)


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
