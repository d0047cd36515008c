"""Independent reference implementations used to cross-check the library.

Everything here is written straight from the underlying math (explicit
trigonometric matrices, homogeneous 4x4 chains, double-loop earth-mover
distance) and deliberately shares no code with the package under test.
"""

import numpy as np

from dqmotion.bvh import JointSpec, Skeleton


# ---------------------------------------------------------------------------
# rotation matrices
# ---------------------------------------------------------------------------

def axis_matrix(axis: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if axis == "X":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    if axis == "Y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
    if axis == "Z":
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)
    raise ValueError(axis)


def euler_matrix(angles, order: str) -> np.ndarray:
    """Product of axis matrices in composition order, e.g. Rz@Ry@Rx for ZYX."""
    by_axis = {"X": angles[0], "Y": angles[1], "Z": angles[2]}
    m = np.eye(3)
    for ax in order:
        m = m @ axis_matrix(ax, by_axis[ax])
    return m


def quat_matrix(q) -> np.ndarray:
    """Rotation matrix via the Rodrigues-style form, not the expanded one."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    w, v = q[0], q[1:]
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * vx


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product written via the scalar/vector split."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, v1 = a[0], a[1:]
    w2, v2 = b[0], b[1:]
    return np.concatenate([[w1 * w2 - v1 @ v2], w1 * v2 + w2 * v1 + np.cross(v1, v2)])


# ---------------------------------------------------------------------------
# homogeneous transforms
# ---------------------------------------------------------------------------

def homogeneous(rotation: np.ndarray, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def dq_to_homogeneous(d) -> np.ndarray:
    """4x4 matrix of a unit dual quaternion, assembled independently."""
    d = np.asarray(d, dtype=float)
    r, e = d[:4], d[4:]
    t = 2.0 * quat_mul(e, r * [1, -1, -1, -1])[1:]
    return homogeneous(quat_matrix(r), t)


def apply_homogeneous(m: np.ndarray, p) -> np.ndarray:
    return m[:3, :3] @ np.asarray(p, dtype=float) + m[:3, 3]


def fk_homogeneous(skeleton: Skeleton, rotation_matrices: np.ndarray):
    """Root-centered forward kinematics through explicit 4x4 chains.

    rotation_matrices: (J, 3, 3) local rotations (identity for end sites).
    Returns (J, 3, 3) current rotations and (J, 3) current positions.
    """
    n = len(skeleton.joints)
    chains = [None] * n
    for idx, joint in enumerate(skeleton.joints):
        if joint.parent is None:
            local = homogeneous(rotation_matrices[idx], np.zeros(3))
            chains[idx] = local
        else:
            local = homogeneous(rotation_matrices[idx], joint.offset)
            chains[idx] = chains[joint.parent] @ local
    rotations = np.array([c[:3, :3] for c in chains])
    positions = np.array([c[:3, 3] for c in chains])
    return rotations, positions


# ---------------------------------------------------------------------------
# earth mover distance, brute force
# ---------------------------------------------------------------------------

def emd_1d(p: np.ndarray, q: np.ndarray) -> float:
    """O(F^2) earth-mover distance between two mass vectors on a 1-D grid."""
    f = len(p)
    total = 0.0
    for i in range(f):
        carried = 0.0
        for j in range(i + 1):
            carried += p[j] - q[j]
        total += abs(carried)
    return total


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

ORDER_POOL = ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX")


def random_unit_quat(rng, shape=()) -> np.ndarray:
    q = rng.normal(size=shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def random_skeleton(rng, n_joints: int, end_sites: bool = False) -> Skeleton:
    joints = [
        JointSpec(
            name="root",
            parent=None,
            offset=np.zeros(3),
            channels=("Xposition", "Yposition", "Zposition", "Zrotation", "Yrotation", "Xrotation"),
        )
    ]
    for i in range(1, n_joints):
        order = ORDER_POOL[rng.integers(len(ORDER_POOL))]
        joints.append(
            JointSpec(
                name=f"joint{i}",
                parent=int(rng.integers(0, i)),
                offset=rng.uniform(-2.0, 2.0, size=3),
                channels=tuple(f"{ax}rotation" for ax in order),
            )
        )
    if end_sites:
        leaves = [i for i in range(n_joints) if i not in {j.parent for j in joints}]
        for leaf in leaves[:2]:
            joints.append(
                JointSpec(
                    name=f"end{leaf}",
                    parent=leaf,
                    offset=rng.uniform(-1.0, 1.0, size=3),
                    channels=(),
                    is_end_site=True,
                )
            )
    return Skeleton(joints)


def random_pose(rng, skeleton: Skeleton):
    from dqmotion.kinematics import LocalPose

    rotations = np.zeros((len(skeleton.joints), 4))
    rotations[:, 0] = 1.0
    for idx, joint in enumerate(skeleton.joints):
        if not joint.is_end_site:
            rotations[idx] = random_unit_quat(rng)
    return LocalPose(
        skeleton=skeleton,
        root_translation=rng.uniform(-5.0, 5.0, size=3),
        joint_rotations=rotations,
    )


def random_poses(rng, skeleton: Skeleton, n_frames: int):
    """One batched pose of `n_frames` frames, drawn frame by frame as
    `random_pose` draws them."""
    from dqmotion.kinematics import LocalPose

    frames = [random_pose(rng, skeleton) for _ in range(n_frames)]
    return LocalPose(skeleton, np.stack([f.root_translation for f in frames]),
                     np.stack([f.joint_rotations for f in frames]))


def repeated(pose, n_frames: int = 1):
    """The batched pose of `n_frames` copies of the single-frame `pose`."""
    from dqmotion.kinematics import LocalPose

    return LocalPose(pose.skeleton, np.tile(pose.root_translation, (n_frames, 1)),
                     np.tile(pose.joint_rotations, (n_frames, 1, 1)))
