"""The accuracy ledger: how far each float64 path that builds encoded
positions and dual-quaternion blocks is from the long-double references
in `accuracy_oracles`, and how far the one inner product, `quat.dot`,
and the unit residuals (`dualquat.unitary_residual`) read on those
blocks are from their long-double sums.

Each path's worst error, in units of float64 eps, is held to a recorded
bound, per source: the humanoid fixture, and seeded `random_skeleton`
trees with end sites. Positions and the dual part are measured relative
to the pose's scale, max(1, its largest |position|); the real part,
a unit quaternion, in absolute terms. The dual quaternions are compared
after taking the oracle's sign to the encoded block's, which the
antipodal correction chooses. A dot or residual is measured relative to
the sum of its terms' magnitudes, the scale its rounding error follows:
the dots between consecutive frames' blocks (the sign correction's), and
both unit residuals of every block.

The Euler conversions are scored by their rotation gap: the distance,
min over the sign +-, between the long-double `from_euler` of the
angles a path gives and the rotation it should give. For
`quat.from_euler` that rotation is the long-double `from_euler` of the
same angles. `quat.to_euler` is scored by its backward error: the
rotation is its input quaternion, normalized in long double, so no
reference copy of the extraction enters. The sources are the angles of
the humanoid fixture, seeded uniform angles of all six orders, the pole
band (middle angles on the pole and 1e-13, 1e-9 and 1e-7 rad from it),
middle angles 1e-6 rad from the pole, and middle angles 1e-5 rad from
it, each offset source a row of its own so that one cannot hide
another.

These bounds are far tighter than the contract tolerances (FK 1e-9,
round trips 1e-6), which stay as they are; a change that moves these
bits shows its ledger before and after and records the new bounds.
"""

import numpy as np
import pytest

from dqmotion import bvh, dualquat, quat
from dqmotion.encoding import ReprKind, encode
from dqmotion.kinematics import clip_to_local

import accuracy_oracles
import oracles
import pose_oracles

pytestmark = pytest.mark.skipif(
    not accuracy_oracles.WIDE,
    reason="np.longdouble is no wider than float64 here, so it cannot measure a float64 error")

EPS = np.finfo(np.float64).eps

#: Worst error per path and source, in float64 eps: the measured worst
#: plus 5%, rounded up to a tenth.
BOUNDS = {
    "humanoid": {"positions": 3.5, "dq real": 1.4, "dq dual": 1.8,  # 3.30, 1.24, 1.64
                 "dot": 1.3, "norm residual": 1.2, "ortho residual": 0.6},  # 1.23, 1.07, 0.52
    "random trees": {"positions": 4.9, "dq real": 1.6, "dq dual": 2.0,  # 4.62, 1.50, 1.85
                     "dot": 1.5, "norm residual": 1.3, "ortho residual": 0.8},  # 1.41, 1.17, 0.71
}


def humanoid(fixtures_dir):
    return [clip_to_local(bvh.parse_file(fixtures_dir / "humanoid.bvh"))]


def random_trees():
    rng = np.random.default_rng(18)
    return [oracles.random_poses(rng, oracles.random_skeleton(rng, joints, end_sites=True), 40)
            for joints in (2, 3, 5, 8, 13, 21, 30, 30)]


def errors(pose) -> dict:
    """Each path's worst error on `pose`, in float64 eps."""
    indices = list(pose.skeleton.encoded_indices)
    current, positions = accuracy_oracles.forward(pose)
    want = accuracy_oracles.dual_quaternions(current, positions)[:, indices]
    scale = max(1.0, float(np.max(np.abs(positions))))
    stored = encode(pose, ReprKind.POSITIONS).joint_blocks().astype(np.longdouble)
    encoded = encode(pose, ReprKind.DUALQUAT).joint_blocks()
    blocks = encoded.astype(np.longdouble)
    want *= np.where(np.sum(blocks[..., :4] * want[..., :4], axis=-1) < 0, -1, 1)[..., None]
    gap = np.abs(blocks - want)
    norm_res, ortho_res = dualquat.unitary_residual(encoded)
    real, dual = blocks[..., :4], blocks[..., 4:]
    return {
        "positions": float(np.max(np.abs(stored - positions[:, indices]))) / scale / EPS,
        "dq real": float(np.max(gap[..., :4])) / EPS,
        "dq dual": float(np.max(gap[..., 4:])) / scale / EPS,
        "dot": dot_error(quat.dot(encoded[:-1], encoded[1:]), blocks[:-1] * blocks[1:]),
        "norm residual": dot_error(norm_res + 1.0, real * real),
        "ortho residual": dot_error(ortho_res, real * dual),
    }


def dot_error(got: np.ndarray, terms: np.ndarray) -> float:
    """Worst error of float64 sums `got` of the long-double (..., n)
    `terms`, relative to the sum of their magnitudes, in float64 eps; 0
    where every term is 0."""
    magnitude = np.sum(np.abs(terms), axis=-1)
    error = np.abs(got - np.sum(terms, axis=-1))
    return float(np.max(error / np.where(magnitude > 0, magnitude, 1), initial=0.0)) / EPS


def worst(poses) -> dict:
    ledgers = [errors(pose) for pose in poses]
    return {path: max(ledger[path] for ledger in ledgers) for path in BOUNDS["humanoid"]}


@pytest.mark.parametrize("source", BOUNDS)
def test_worst_error_within_the_recorded_bound(fixtures_dir, source):
    poses = humanoid(fixtures_dir) if source == "humanoid" else random_trees()
    got = worst(poses)
    print(source, {path: f"{value:.2f} eps" for path, value in got.items()})
    for path, bound in BOUNDS[source].items():
        assert got[path] <= bound, f"{path}: {got[path]:.3f} eps over the bound {bound}"


def test_the_oracle_is_the_matrix_fk(fixtures_dir):
    """The long-double positions agree with the float64 matrix FK, and
    the long-double current dual quaternions are unit."""
    for pose in humanoid(fixtures_dir) + random_trees():
        current, positions = accuracy_oracles.forward(pose)
        want = pose_oracles.pose_positions(pose)
        assert np.max(np.abs(positions - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        blocks = accuracy_oracles.dual_quaternions(current, positions)
        real, dual = blocks[..., :4], blocks[..., 4:]
        assert np.max(np.abs(np.sum(real * real, axis=-1) - 1)) < 1e-17
        assert np.max(np.abs(np.sum(real * dual, axis=-1))) < 1e-17 * max(1.0, np.max(np.abs(want)))


#: Worst rotation gap per Euler path and source, in float64 eps: the
#: measured worst plus 5%, rounded up to a tenth.
EULER_BOUNDS = {
    "humanoid": {"from_euler": 1.4, "to_euler": 1.1},  # 1.24, 0.99
    "uniform": {"from_euler": 1.5, "to_euler": 1.6},  # 1.36, 1.51
    "pole band": {"from_euler": 1.6, "to_euler": 2.1},  # 1.52, 1.94
    "1e-6 rad off the pole": {"from_euler": 1.3, "to_euler": 1.3},  # 1.18, 1.24
    "1e-5 rad off the pole": {"from_euler": 1.4, "to_euler": 1.4},  # 1.24, 1.30
}

#: Middle-angle offsets, in rad from the pole toward the equator.
POLE_BAND = (0.0, 1e-13, 1e-9, 1e-7)


def humanoid_angles(fixtures_dir) -> list:
    """(order, (F, 3) angles about x, y and z in radians) of each
    rotating joint of the humanoid fixture."""
    clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")
    found, column = [], 0
    for joint in clip.skeleton.joints:
        if joint.rotation_order:
            columns = [column + joint.channels.index(axis + "rotation") for axis in "XYZ"]
            found.append((joint.rotation_order, np.radians(clip.frames[:, columns])))
        column += len(joint.channels)
    return found


def uniform_angles() -> list:
    rng = np.random.default_rng(18)
    return [(order, rng.uniform(-np.pi, np.pi, size=(4000, 3))) for order in oracles.ORDER_POOL]


def pole_angles(offsets, seed: int) -> list:
    """Seeded angles whose middle one sits at each of `offsets` from
    +-pi/2, for each of the six orders."""
    rng = np.random.default_rng(seed)
    found = []
    for order in oracles.ORDER_POOL:
        angles = rng.uniform(-np.pi, np.pi, size=(len(offsets), 800, 3))
        side = rng.choice([-1.0, 1.0], size=angles.shape[1])
        angles[..., "XYZ".index(order[1])] = side * (np.pi / 2 - np.array(offsets)[:, None])
        found.append((order, angles.reshape(-1, 3)))
    return found


EULER_SOURCES = {"humanoid": humanoid_angles, "uniform": lambda _: uniform_angles(),
                 "pole band": lambda _: pole_angles(POLE_BAND, 19),
                 "1e-6 rad off the pole": lambda _: pole_angles((1e-6,), 21),
                 "1e-5 rad off the pole": lambda _: pole_angles((1e-5,), 20)}


def rotation_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Worst distance, min over the sign +-, between the (..., 4)
    long-double quaternions `got` and `want`, in float64 eps."""
    apart = np.linalg.norm(got - want, axis=-1)
    return float(np.max(np.minimum(apart, np.linalg.norm(got + want, axis=-1)))) / EPS


def euler_errors(order: str, angles: np.ndarray) -> dict:
    """Each Euler path's worst rotation gap on `angles` under `order`."""
    q = quat.from_euler(angles, order)
    unit = q.astype(np.longdouble)
    unit /= np.sqrt(np.sum(unit * unit, axis=-1, keepdims=True))
    return {
        "from_euler": rotation_gap(q.astype(np.longdouble), accuracy_oracles.from_euler(angles, order)),
        "to_euler": rotation_gap(accuracy_oracles.from_euler(quat.to_euler(q, order), order), unit),
    }


@pytest.mark.parametrize("source", EULER_SOURCES)
def test_worst_euler_gap_within_the_recorded_bound(fixtures_dir, source):
    ledgers = [euler_errors(order, angles) for order, angles in EULER_SOURCES[source](fixtures_dir)]
    got = {path: max(ledger[path] for ledger in ledgers) for path in ("from_euler", "to_euler")}
    print(source, {path: f"{value:.2f} eps" for path, value in got.items()})
    for path, bound in EULER_BOUNDS[source].items():
        assert got[path] <= bound, f"{path}: {got[path]:.3f} eps over the bound {bound}"

