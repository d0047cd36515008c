"""Scalar and per-joint loop forms of the pose code: the equivalence oracle
for the batched `quat`, `kinematics`, `encoding` and `metrics`.

`compose` and `relative` are the hierarchy sweep as it was before it
moved to component rows: whole (..., J, D) arrays, with the algebra
passed in as `mul` and `conjugate` callbacks. `test_sweep.py` holds the
row forms in `kinematics` to them bit for bit. `current_chain` is the
dual-quaternion chain the package ran before its one rotation sweep
replaced it, kept with its bits: the oracle of the encoded dual
quaternions and, through its translations (`chain_positions`), of the
positions.

These are the original implementations, but for the Euler extraction,
the package's direct method in scalars: Euler extraction and Shepperd's
quaternion recovery one rotation at a time, forward kinematics through
homogeneous matrices (`matrix_fk`) one pose at a time, the positions
as the dual-quaternion chain's translations (`chain_positions`), the
parent-conjugate inverse sweep one joint at a time, and the clip
conversions one `from_euler` / `to_euler` call per joint, and the
antipodal seed sign one zero-led block at a time (`seed_signs`, held
exactly). `test_pose_oracles.py` holds the other batched forms to them
within 1e-12, the positions within 1e-12 of the pose's largest |position|.
They read rotation matrices through the stacked form that
`algebra_oracles.quat_to_matrix` keeps and six-value blocks through the
stacked Gram-Schmidt form of `algebra_oracles.gram_schmidt` (the package
builds no matrix); only the code that was vectorized is independent.
"""

import math

import numpy as np

from dqmotion import dualquat, quat
from dqmotion.encoding import ReprKind
from dqmotion.errors import NotInvertibleError, NotUnitError, ShapeMismatchError
from dqmotion.bvh import POSITION_CHANNELS, MotionClip, Skeleton
from dqmotion.kinematics import LocalPose

from algebra_oracles import POLE_FLOOR, gram_schmidt, quat_to_matrix

_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def to_euler(q: np.ndarray, order: str) -> np.ndarray:
    """One quaternion to (alpha, beta, gamma) by the direct method, in
    scalars: the middle angle from the lengths of (a, b) and (c, d), the
    outer ones the arguments of (a + ib)(c +- id), the first zero on a
    pole."""
    w, *v = (float(x) for x in quat.normalize(np.asarray(q, dtype=float).reshape(4)))
    i, j, k = ("XYZ".index(c) for c in order)
    sign = 1.0 if (i, j, k) in _CYCLIC else -1.0
    a, b, c, d = w + sign * v[j], v[i] + v[k], w - sign * v[j], v[i] - v[k]
    out = np.zeros(3)
    out[j] = sign * (2.0 * math.atan2(math.hypot(a, b), math.hypot(c, d)) - math.pi / 2.0)
    if c * c + d * d <= POLE_FLOOR:
        c, d = a, -b
    elif a * a + b * b <= POLE_FLOOR:
        a, b = c, -d
    out[i] = math.atan2(b * c + a * d, a * c - b * d)
    out[k] = math.atan2(b * c - a * d, a * c + b * d)
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
    `LocalPose.positions` (and for `current_chain` below).
    """
    skeleton = pose.skeleton
    n = skeleton.num_joints
    rotations = np.empty((n, 3, 3))
    positions = np.empty((n, 3))
    local_mats = quat_to_matrix(quat.normalize(pose.joint_rotations))
    for idx, joint in enumerate(skeleton.joints):
        if joint.parent is None:
            rotations[idx] = local_mats[idx]
            positions[idx] = 0.0
        else:
            parent = joint.parent
            rotations[idx] = rotations[parent] @ local_mats[idx]
            positions[idx] = positions[parent] + rotations[parent] @ joint.offset
    return rotations, positions


def pose_positions(pose: LocalPose) -> np.ndarray:
    """(F, J, 3) root-centered positions, one `matrix_fk` call per frame."""
    return np.stack([matrix_fk(frame)[1] for frame in pose])


def compose(levels: tuple, local: np.ndarray, mul) -> np.ndarray:
    """Forward hierarchy sweep over (..., J, D) per-joint values: the
    callback form of `kinematics.compose`. Entry j of the result is
    mul(result[parent of j], local[j]); the root keeps its local value."""
    out = np.array(local, dtype=float)
    for rows, parent_rows in levels:
        out[..., rows, :] = mul(np.take(out, parent_rows, axis=-2), np.take(out, rows, axis=-2))
    return out


def relative(parents: np.ndarray, current: np.ndarray, mul, conjugate) -> np.ndarray:
    """Inverse of `compose` for unit values, the callback form of
    `kinematics.relative`: entry j is mul(conjugate(current[parents[j]]),
    current[j]), and the root, row 0, keeps its current value."""
    out = np.array(current, dtype=float)
    out[..., 1:, :] = mul(conjugate(np.take(current, parents[1:], axis=-2)), current[..., 1:, :])
    return out


def current_chain(skeleton, rotations: np.ndarray) -> np.ndarray:
    """(..., J, 4) local rotations to (..., J, 8) current dual quaternions,
    each child its parent's current transform times its local one, the
    root displacement left out. Each local transform is the old
    `dualquat.from_rotation_translation` on whole arrays: the rotation
    over its norm (NotUnitError where that norm is off 1 by more than
    the unit tolerance), then half of (0, t) * r."""
    rotations = np.asarray(rotations, dtype=float)
    n = quat.norm(rotations)
    if np.any(np.abs(n - 1.0) > dualquat.UNIT_TOLERANCE):
        raise NotUnitError("rotation quaternion norm deviates from 1")
    r = rotations / n[..., None]
    offsets = skeleton.offsets.copy()
    offsets[0] = 0.0
    qt = np.zeros(rotations.shape)
    qt[..., 1:] = offsets
    local = np.concatenate([r, 0.5 * quat.mul(qt, r)], axis=-1)
    return compose(skeleton.levels, local, dualquat.mul)


def chain_positions(pose: LocalPose) -> np.ndarray:
    """(F, J, 3) root-centered positions as the translations of the current
    dual-quaternion chain of the normalized rotations:
    `LocalPose.positions` as it was before it swept the rotations alone."""
    return dualquat.translation(current_chain(pose.skeleton, quat.normalize(pose.joint_rotations)))


def current_to_local_dq(skeleton, current: np.ndarray) -> np.ndarray:
    """(J, 8) local dual quaternions of one frame, one joint at a time: the
    loop form of `kinematics.relative` over a frame of `current_chain`."""
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


def decode(clip) -> LocalPose:
    """The batched LocalPose of a raw clip: the parent-conjugate products
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
        mats = gram_schmidt(blocks[..., :6]).reshape(-1, 3, 3)
        quats = np.stack([matrix_to_quat(m) for m in mats]).reshape(f, len(indices), 4)

    rotations = np.zeros((f, skeleton.num_joints, 4))
    rotations[..., 0] = 1.0
    rotations[:, indices] = quats
    return LocalPose(skeleton, clip.root_translation.copy(), rotations)


def seed_signs(first: np.ndarray) -> np.ndarray:
    """Frame-0 sign choice of `encoding.antipodal_correct`, one tie at a
    time: leading component non-negative, ties broken by the first nonzero
    component."""
    lead = first[..., 0]
    signs = np.where(lead > 0, 1.0, np.where(lead < 0, -1.0, 0.0))
    undecided = np.argwhere(signs == 0.0)
    for index in map(tuple, undecided):
        block = first[index]
        nonzero = block[block != 0.0]
        signs[index] = 1.0 if nonzero.size == 0 or nonzero[0] > 0 else -1.0
    return signs


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


def local_to_clip(pose: LocalPose, template: Skeleton, frame_time: float) -> MotionClip:
    """Flatten a frame-batched LocalPose back into a raw channel matrix
    (degrees)."""
    if pose.skeleton is not template and pose.skeleton != template:
        raise ShapeMismatchError("pose skeleton does not match the template")
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
