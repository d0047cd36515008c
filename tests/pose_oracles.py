"""Scalar and per-joint loop forms of the pose code: the equivalence oracle
for the batched `quat`, `_rotmat`, `kinematics`, `encoding` and `metrics`.

These are the original implementations: Euler extraction and Shepperd's
quaternion recovery one rotation at a time, forward kinematics through
homogeneous matrices (`matrix_fk`) one pose at a time, the
parent-conjugate inverse sweep one joint at a time, and the clip
conversions one `from_euler` / `to_euler` call per joint.
`test_pose_oracles.py` holds the batched forms to them within 1e-12.
They read rotation matrices through `_rotmat.quat_to_matrix` and
six-value blocks through `encoding._gram_schmidt`; only the code that was
vectorized is independent.
"""

import numpy as np

from dqmotion import _rotmat, dualquat, quat
from dqmotion.encoding import ReprKind, _gram_schmidt
from dqmotion.errors import NotInvertibleError, NotUnitError
from dqmotion.bvh import POSITION_CHANNELS, MotionClip, Skeleton
from dqmotion.kinematics import LocalPose, stack_poses

import oracles

_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def _angle_about(m: np.ndarray, axis: int) -> float:
    """Rotation angle of a matrix known to rotate about `axis`."""
    u = (axis + 1) % 3
    v = (axis + 2) % 3
    return float(np.arctan2(m[v, u], m[u, u]))


def to_euler(q: np.ndarray, order: str) -> np.ndarray:
    """One quaternion to (alpha, beta, gamma), with the package's pole band."""
    q = quat.normalize(np.asarray(q, dtype=float).reshape(4))
    m = _rotmat.quat_to_matrix(q)

    i, j, k = ("XYZ".index(c) for c in order)
    sign = 1.0 if (i, j, k) in _CYCLIC else -1.0
    s = sign * m[i, k]

    out = np.zeros(3)
    if abs(s) >= 1.0 - quat.LOCK_TOLERANCE:
        mid = np.copysign(np.pi / 2.0, s)
        residual = oracles.axis_matrix("XYZ"[j], mid).T @ m
        out[j] = mid
        out[k] = _angle_about(residual, k)
    else:
        out[j] = np.arcsin(np.clip(s, -1.0, 1.0))
        out[i] = np.arctan2(-sign * m[j, k], m[k, k])
        out[k] = np.arctan2(-sign * m[i, j], m[i, i])
    return out


def shepperd_branch(m: np.ndarray) -> int:
    """Which of Shepperd's four cases `matrix_to_quat` takes for m."""
    if m[0, 0] + m[1, 1] + m[2, 2] > 0.0:
        return 0
    if m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        return 1
    return 2 if m[1, 1] > m[2, 2] else 3


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of one 3x3 rotation matrix."""
    m = np.asarray(m, dtype=float)
    branch = shepperd_branch(m)
    if branch == 0:
        s = 2.0 * np.sqrt(m[0, 0] + m[1, 1] + m[2, 2] + 1.0)
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif branch == 1:
        s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif branch == 2:
        s = 2.0 * np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = 2.0 * np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    q = np.array([w, x, y, z])
    return q / np.linalg.norm(q)


def matrix_fk(pose: LocalPose) -> tuple[np.ndarray, np.ndarray]:
    """Root-centered forward kinematics of one frame via homogeneous
    matrices.

    Returns (J, 3, 3) current rotation matrices and (J, 3) current
    positions. This path never touches dual quaternions and sweeps the
    joints one by one; it is the verification oracle for
    `kinematics.current_chain`.
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


def pose_positions(poses) -> np.ndarray:
    """(F, J, 3) root-centered positions, one `matrix_fk` call per pose."""
    return np.stack([matrix_fk(pose)[1] for pose in poses])


def current_to_local_dq(skeleton, current: np.ndarray) -> np.ndarray:
    """(J, 8) local dual quaternions of one frame, one joint at a time: the
    loop form of `kinematics.relative` over a frame of `LocalPose.chain`."""
    if not dualquat.is_unit(current):
        raise NotUnitError("current pose entries must be unit dual quaternions")
    parents = skeleton.parent_indices
    local = np.empty_like(current)
    for idx in range(len(current)):
        if parents[idx] < 0:
            local[idx] = current[idx]
        else:
            local[idx] = dualquat.mul(dualquat.conjugate(current[parents[idx]]), current[idx])
    return local


def decode(clip) -> list:
    """Single-frame LocalPoses of a raw clip: the parent-conjugate products
    one joint at a time for the dualquat kind, scalar Shepperd for ortho6d."""
    if clip.kind is ReprKind.POSITIONS:
        raise NotInvertibleError("positions carry no rotations to decode")
    skeleton = clip.skeleton
    indices = list(skeleton.encoded_indices)
    blocks = clip.joint_blocks()
    f = clip.num_frames

    if clip.kind is ReprKind.DUALQUAT:
        current = dualquat.normalize(blocks)[..., :4]
        quats = np.empty_like(current)
        row_of = {joint: row for row, joint in enumerate(indices)}
        for row, joint_idx in enumerate(indices):
            parent = skeleton.joints[joint_idx].parent
            if parent is None:
                quats[:, row] = current[:, row]
            else:
                quats[:, row] = quat.mul(quat.conjugate(current[:, row_of[parent]]), current[:, row])
    elif clip.kind in (ReprKind.QUATERNIONS, ReprKind.QUATERNIONS_POSITIONS):
        quats = quat.normalize(blocks[..., :4])
    else:
        mats = _gram_schmidt(blocks[..., :6]).reshape(-1, 3, 3)
        quats = np.stack([matrix_to_quat(m) for m in mats]).reshape(f, len(indices), 4)

    poses = []
    for frame in range(f):
        rotations = np.zeros((skeleton.num_joints, 4))
        rotations[:, 0] = 1.0
        rotations[indices] = quats[frame]
        poses.append(LocalPose(skeleton, clip.root_translation[frame].copy(), rotations))
    return poses


def _channel_columns(skeleton: Skeleton, frames: np.ndarray) -> list[dict]:
    """Per joint, {channel tag: view of that channel's column of `frames`}."""
    columns = iter(frames.T)  # zip stops at a joint's last tag, taking no extra column
    return [dict(zip(joint.channels, columns)) for joint in skeleton.joints]


def clip_to_local(clip: MotionClip) -> LocalPose:
    """Expand a raw clip into one frame-batched LocalPose (radians,
    quaternions)."""
    skeleton = clip.skeleton
    channels = _channel_columns(skeleton, clip.frames)
    n_frames = clip.num_frames

    rotations = np.zeros((n_frames, skeleton.num_joints, 4))
    rotations[..., 0] = 1.0
    for idx, joint in enumerate(skeleton.joints):
        order = joint.rotation_order
        if not order:
            continue
        angles = np.zeros((n_frames, 3))
        for axis in order:
            angles[:, "XYZ".index(axis)] = np.radians(channels[idx][axis + "rotation"])
        rotations[:, idx] = quat.from_euler(angles, order)

    root_translation = np.zeros((n_frames, 3))
    for tag, column in channels[0].items():
        if tag in POSITION_CHANNELS:
            root_translation[:, "XYZ".index(tag[0])] = column
    return LocalPose(skeleton, root_translation, rotations)


def local_to_clip(poses, template: Skeleton, frame_time: float) -> MotionClip:
    """Flatten a batched LocalPose (or a sequence of single-frame poses)
    back into a raw channel matrix (degrees)."""
    pose = stack_poses(poses)
    if pose.skeleton is not template and pose.skeleton != template:
        raise ValueError("pose skeleton does not match the template")
    frames = np.zeros((len(pose), template.channel_count))
    channels = _channel_columns(template, frames)
    for tag, column in channels[0].items():
        if tag in POSITION_CHANNELS:
            column[:] = pose.root_translation[:, "XYZ".index(tag[0])]
    for idx, joint in enumerate(template.joints):
        order = joint.rotation_order
        if not order:
            continue
        angles = np.degrees(quat.to_euler(pose.joint_rotations[:, idx], order))
        for axis in order:
            channels[idx][axis + "rotation"][:] = angles[:, "XYZ".index(axis)]
    return MotionClip(skeleton=template, frame_time=frame_time, frames=frames)
