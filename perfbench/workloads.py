"""Seeded workload generators.

A workload is a list of items. Each item is one truth clip and a noisy
prediction of it, both as BVH channel matrices on the BVH writer's 1e-6
grid, so that text written here parses back to exactly these values.
Nothing here imports dqmotion: the program under test only ever receives
the generated text.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HUMANOID = Path(__file__).resolve().parent / "data" / "humanoid.bvh"

ORDER_POOL = ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX")
ROOT_CHANNELS = ("Xposition", "Yposition", "Zposition", "Zrotation", "Yrotation", "Xrotation")

#: Rate every workload is brought to before encoding (the paper protocol).
TARGET_FPS = 30.0

#: wide-skeleton keeps Euler middle angles this far from +-90 deg. Within
#: about 0.026 deg of the pole `quat.to_euler` snaps the middle angle to
#: +-90 deg and breaks the 1e-6 round trip; `checks.pole_band_gap` records
#: that defect in every run instead.
POLE_MARGIN_DEG = 0.1


@dataclass
class Joint:
    name: str
    parent: int  # -1 for the root
    offset: np.ndarray
    channels: tuple = ()
    end_site: bool = False


@dataclass
class Item:
    """One clip: hierarchy in parser (depth-first) order plus channel rows."""

    joints: list
    frame_time: float
    truth: np.ndarray  # (F, C) degrees / file units
    pred: np.ndarray  # same shape, truth plus seeded noise

    @property
    def frames(self) -> int:
        return self.truth.shape[0]

    @property
    def stride(self) -> int:
        """Integer subsampling stride to TARGET_FPS, as `bvh.subsample` picks it."""
        return max(1, round((1.0 / self.frame_time) / TARGET_FPS))

    def text(self, rows: np.ndarray) -> str:
        return bvh_text(self.joints, self.frame_time, rows)


@dataclass
class Workload:
    name: str
    seed: int
    items: list
    meta: dict  # shape of the workload, stored with every result


# ---------------------------------------------------------------------------
# BVH text, read and written without dqmotion
# ---------------------------------------------------------------------------

def read_bvh(path: Path):
    """(joints, frame_time, rows) of a well-formed BVH file."""
    joints, stack = [], []
    lines = iter(path.read_text().splitlines())
    for line in lines:
        tokens = line.split()
        if not tokens or tokens[0] == "HIERARCHY":
            continue
        head = tokens[0]
        if head in ("ROOT", "JOINT"):
            joints.append(Joint(tokens[1], stack[-1] if stack else -1, np.zeros(3)))
        elif tokens[:2] == ["End", "Site"]:
            parent = stack[-1]
            joints.append(Joint(joints[parent].name + "_end", parent, np.zeros(3), (), True))
        elif head == "{":
            stack.append(len(joints) - 1)
        elif head == "}":
            stack.pop()
        elif head == "OFFSET":
            joints[stack[-1]].offset = np.array([float(v) for v in tokens[1:4]])
        elif head == "CHANNELS":
            joints[stack[-1]].channels = tuple(tokens[2:])
        elif head == "MOTION":
            break
    count = int(next(lines).split()[1])
    frame_time = float(next(lines).split()[2])
    rows = np.array([[float(v) for v in next(lines).split()] for _ in range(count)])
    return joints, frame_time, rows


def bvh_text(joints: list, frame_time: float, rows: np.ndarray) -> str:
    children = [[] for _ in joints]
    for index, joint in enumerate(joints):
        if joint.parent >= 0:
            children[joint.parent].append(index)
    out = ["HIERARCHY"]

    def emit(index: int, depth: int):
        joint, pad = joints[index], "  " * depth
        x, y, z = joint.offset
        if joint.end_site:
            out.extend([f"{pad}End Site", f"{pad}{{", f"{pad}  OFFSET {x:.6f} {y:.6f} {z:.6f}", f"{pad}}}"])
            return
        out.extend([f"{pad}{'ROOT' if joint.parent < 0 else 'JOINT'} {joint.name}", f"{pad}{{",
                    f"{pad}  OFFSET {x:.6f} {y:.6f} {z:.6f}",
                    f"{pad}  CHANNELS {len(joint.channels)} {' '.join(joint.channels)}".rstrip()])
        for child in children[index]:
            emit(child, depth + 1)
        out.append(f"{pad}}}")

    emit(0, 0)
    out.extend(["MOTION", f"Frames: {len(rows)}", f"Frame Time: {frame_time:.6f}"])
    row = " ".join(["%.6f"] * rows.shape[1])
    out.extend(row % tuple(values) for values in rows.tolist())
    return "\n".join(out) + "\n"


def rotation_columns(joints: list) -> np.ndarray:
    """Boolean mask over channel columns: True for rotation channels."""
    tags = [tag for joint in joints for tag in joint.channels]
    return np.array([tag.endswith("rotation") for tag in tags])


def depth(joints: list) -> int:
    levels = [0] * len(joints)
    for index, joint in enumerate(joints):
        if joint.parent >= 0:
            levels[index] = levels[joint.parent] + 1
    return max(levels)


def _grid(values: np.ndarray) -> np.ndarray:
    return np.round(values, 6)


def _noise(rng, joints, shape, rotation_deg: float, position: float) -> np.ndarray:
    scale = np.where(rotation_columns(joints), rotation_deg, position)
    return rng.normal(size=shape) * scale


def _item(rng, joints, frame_time, truth, rotation_deg=2.0, position=0.05) -> Item:
    truth = _grid(truth)
    pred = _grid(truth + _noise(rng, joints, truth.shape, rotation_deg, position))
    return Item(joints, float(f"{frame_time:.6f}"), truth, pred)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def long_clip(rng, frames: int = 2000) -> list:
    joints, frame_time, base = read_bvh(HUMANOID)
    tiled = np.tile(base, (-(-frames // len(base)), 1))[:frames]
    truth = tiled + _noise(rng, joints, tiled.shape, 1.0, 0.01)
    return [_item(rng, joints, frame_time, truth)]


def random_tree(rng, n_joints: int = 256, end_sites: int = 2) -> list:
    """The construction of `tests/oracles.random_skeleton` (same draws, same
    order), copied so that an edit to the tests cannot change a workload;
    offsets go on the 1e-6 grid and joints are renumbered depth-first, as
    the parser numbers them."""
    parents, offsets, channels = [-1], [np.zeros(3)], [ROOT_CHANNELS]
    for i in range(1, n_joints):
        order = ORDER_POOL[rng.integers(len(ORDER_POOL))]
        parents.append(int(rng.integers(0, i)))
        offsets.append(rng.uniform(-2.0, 2.0, size=3))
        channels.append(tuple(f"{axis}rotation" for axis in order))
    inner = set(parents)
    leaves = [i for i in range(n_joints) if i not in inner]
    ends = []
    for leaf in leaves[:end_sites]:
        ends.append(len(parents))
        parents.append(leaf)
        offsets.append(rng.uniform(-1.0, 1.0, size=3))
        channels.append(())

    children = [[] for _ in parents]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    order, stack = [], [0]
    while stack:
        index = stack.pop()
        order.append(index)
        stack.extend(reversed(children[index]))
    new_index = {old: new for new, old in enumerate(order)}
    joints = []
    for old in order:
        parent = parents[old]
        if old in ends:
            name = joints[new_index[parent]].name + "_end"
        else:
            name = "root" if old == 0 else f"joint{old}"
        joints.append(Joint(name, -1 if parent < 0 else new_index[parent],
                            _grid(offsets[old]), channels[old], old in ends))
    return joints


def middle_rotation_columns(joints: list) -> np.ndarray:
    """Channel columns of each joint's second rotation, the Euler middle angle."""
    columns, column = [], 0
    for joint in joints:
        rotations = [column + i for i, tag in enumerate(joint.channels) if tag.endswith("rotation")]
        columns.extend(rotations[1:2])
        column += len(joint.channels)
    return np.array(columns, dtype=int)


def wide_skeleton(rng, frames: int = 64, n_joints: int = 256) -> list:
    """Uniform Euler angles, with every middle angle redrawn until it lies at
    least POLE_MARGIN_DEG from +-90 deg (see the README's known defect)."""
    joints = random_tree(rng, n_joints)
    width = sum(len(joint.channels) for joint in joints)
    truth = rng.uniform(-180.0, 180.0, size=(frames, width))
    truth[:, :3] = rng.uniform(-5.0, 5.0, size=(frames, 3))
    columns = middle_rotation_columns(joints)
    middle = truth[:, columns]
    while True:
        near = np.abs(np.abs(middle) - 90.0) < POLE_MARGIN_DEG
        if not near.any():
            break
        middle[near] = rng.uniform(-180.0, 180.0, size=int(near.sum()))
    truth[:, columns] = middle
    return [_item(rng, joints, 1.0 / 30.0, truth)]


def clip_batch(rng, clips: int = 20, shortest: int = 120, longest: int = 480) -> list:
    joints, _, base = read_bvh(HUMANOID)
    base = np.repeat(base, 4, axis=0)  # the 30 fps fixture held to 120 fps
    # Evenly spread lengths in a seeded order: the total stays the same for every seed.
    lengths = rng.permutation(np.linspace(shortest, longest, clips).round().astype(int))
    items = []
    for frames in lengths:
        rows = base[(int(rng.integers(len(base))) + np.arange(frames)) % len(base)]
        truth = rows + _noise(rng, joints, rows.shape, 0.5, 0.01)
        items.append(_item(rng, joints, 1.0 / 120.0, truth))
    return items


#: Full size, and the small instance of the same shape that warm-up runs.
WORKLOADS = {
    "long-clip": (long_clip, {}, {"frames": 32}),
    "wide-skeleton": (wide_skeleton, {}, {"frames": 32, "n_joints": 16}),
    "clip-batch": (clip_batch, {}, {"clips": 1, "shortest": 120, "longest": 120}),
}


def make(name: str, seed: int, small: bool = False) -> Workload:
    build, full, reduced = WORKLOADS[name]
    items = build(np.random.default_rng([seed, 1 if small else 0]), **(reduced if small else full))
    first = items[0]
    meta = {
        "items": len(items),
        "source_frames": sum(item.frames for item in items),
        "joints": len(first.joints),
        "encoded_joints": sum(not joint.end_site for joint in first.joints),
        "source_fps": round(1.0 / first.frame_time, 3),
        "tree_depth": depth(first.joints),
        "euler_pole_margin_deg": POLE_MARGIN_DEG if name == "wide-skeleton" else None,
    }
    return Workload(name, seed, items, meta)
