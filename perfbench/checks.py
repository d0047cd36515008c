"""Output checks, run untimed on the outputs of the timed ops.

Each `check_<job>` returns a list of problems (empty when the output is
right). The references are computed here from the generated channel
values with math that shares no code with dqmotion: Euler angles to
quaternions, and forward kinematics by rotating offsets down the tree.
Tolerances are the acceptance criteria's: 1e-6 for round trips and unit
residuals of fresh encodings (criterion 5), 1e-5 relative for gradients
(criterion 7).
"""

import hashlib
import json
import math

import numpy as np

from dqmotion import container, kinematics, losses, metrics, quat
from dqmotion.encoding import EncodedClip

from jobs import GRAD_TERMS, INVERTIBLE, window_starts

ROUND_TRIP_TOL = 1e-6
UNIT_TOL = 1e-6
GRAD_TOL = 1e-5
ZERO_TOL = 1e-12
GOLDEN_RTOL = 1e-9
FD_STEP = 1e-6

_AXES = {"X": 1, "Y": 2, "Z": 3}


# ---------------------------------------------------------------------------
# reference math
# ---------------------------------------------------------------------------

def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    return np.concatenate([w, aw * bv + bw * av + np.cross(av, bv)], axis=-1)


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    w, u = q[..., :1], q[..., 1:]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def euler_quats(joints: list, rows: np.ndarray) -> np.ndarray:
    """(F, J, 4) local rotations: each joint's channel rotations composed
    left to right in the order the channels are listed."""
    quats = np.zeros((len(rows), len(joints), 4))
    quats[..., 0] = 1.0
    column = 0
    for index, joint in enumerate(joints):
        for tag in joint.channels:
            if tag.endswith("rotation"):
                half = np.radians(rows[:, column]) / 2.0
                axis = np.zeros((len(rows), 4))
                axis[:, 0] = np.cos(half)
                axis[:, _AXES[tag[0]]] = np.sin(half)
                quats[:, index] = qmul(quats[:, index], axis)
            column += 1
    return quats


def fk_positions(joints: list, quats: np.ndarray) -> np.ndarray:
    """(F, J, 3) joint positions relative to the root, root rotation applied."""
    current = np.empty_like(quats)
    positions = np.zeros(quats.shape[:-1] + (3,))
    for index, joint in enumerate(joints):
        if joint.parent < 0:
            current[:, index] = quats[:, index]
            continue
        parent = current[:, joint.parent]
        current[:, index] = qmul(parent, quats[:, index])
        offset = np.broadcast_to(joint.offset, parent.shape[:-1] + (3,))
        positions[:, index] = positions[:, joint.parent] + rotate(parent, offset)
    return positions


def rotation_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-quaternion deviation, each compared up to sign."""
    plus = np.max(np.abs(a - b), axis=-1)
    minus = np.max(np.abs(a + b), axis=-1)
    return float(np.max(np.minimum(plus, minus)))


def position_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(a - b, axis=-1)))


def channel_rows(text: str) -> np.ndarray:
    """Channel matrix of BVH text, read straight from its MOTION section."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Frame Time:")) + 1
    return np.array([[float(v) for v in line.split()] for line in lines[start:] if line.strip()])


def stacked(poses) -> np.ndarray:
    return np.stack([pose.joint_rotations for pose in poses])


class Reference:
    """Expected rotations and positions of one item at the target rate."""

    def __init__(self, prepared):
        item = prepared.item
        self.joints = item.joints
        self.quats = euler_quats(item.joints, item.truth[:: item.stride])
        self.positions = fk_positions(item.joints, self.quats)
        self.encoded = [i for i, joint in enumerate(item.joints) if not joint.end_site]

    def rows_problems(self, what: str, text: str) -> list:
        rows = channel_rows(text)
        if rows.shape[0] != self.quats.shape[0]:
            return [f"{what}: {rows.shape[0]} frames, expected {self.quats.shape[0]}"]
        gap = rotation_gap(euler_quats(self.joints, rows), self.quats)
        return [] if gap <= ROUND_TRIP_TOL else [f"{what}: rotations off by {gap:.3e}"]

    def poses_problems(self, what: str, poses) -> list:
        quats = stacked(poses)
        problems = []
        gap = rotation_gap(quats, self.quats)
        if not gap <= ROUND_TRIP_TOL:
            problems.append(f"{what}: rotations off by {gap:.3e}")
        gap = position_gap(fk_positions(self.joints, quats), self.positions)
        if not gap <= ROUND_TRIP_TOL:
            problems.append(f"{what}: FK positions off by {gap:.3e}")
        return problems


def pole_band_gap() -> float:
    """Round-trip gap of `quat.to_euler` on a ZYX rotation whose middle angle
    lies 0.01 deg from the pole, inside the band that wide-skeleton keeps
    clear of. Recorded with every run so that the defect stays in view; it
    falls below ROUND_TRIP_TOL once to_euler keeps such angles."""
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for axis, degrees in (("Z", 30.0), ("Y", 89.99), ("X", -40.0)):
        step = np.zeros(4)
        step[0] = math.cos(math.radians(degrees) / 2.0)
        step[_AXES[axis]] = math.sin(math.radians(degrees) / 2.0)
        q = qmul(q, step)
    back = quat.from_euler(quat.to_euler(q, "ZYX"), "ZYX")
    return rotation_gap(back, q)


# ---------------------------------------------------------------------------
# per-job checks
# ---------------------------------------------------------------------------

def check_prep(p, out: dict, rng) -> list:
    ref = Reference(p)
    problems = ref.poses_problems("clip_to_local", out["poses"])
    for name, enc in out["encoded"].items():
        back = container.from_bytes(out["blobs"][name])
        if not (back.kind is enc.kind and back.frame_time == enc.frame_time
                and back.skeleton == enc.skeleton and back.stats is None
                and np.array_equal(back.features, enc.features)):
            problems.append(f"container round trip of {name} is not bit-exact")
    blocks = out["encoded"]["dq"].joint_blocks()
    real, dual = blocks[..., :4], blocks[..., 4:]
    residual = max(np.max(np.abs(np.sum(real * real, axis=-1) - 1.0)),
                   np.max(np.abs(np.sum(real * dual, axis=-1))))
    if not residual <= UNIT_TOL:
        problems.append(f"dq unit residual {residual:.3e}")
    gap = position_gap(out["encoded"]["pos"].joint_blocks(), ref.positions[:, ref.encoded])
    if not gap <= ROUND_TRIP_TOL:
        problems.append(f"pos encoding off the FK positions by {gap:.3e}")
    return problems


def check_export(p, out: dict, rng) -> list:
    ref = Reference(p)
    problems = []
    for name in INVERTIBLE:
        problems += ref.poses_problems(f"decode {name}", out["decoded"][name])
    return problems + ref.rows_problems("exported BVH", out["text"])


_LOSS_OF = {
    "mse": lambda pred, truth: losses.loss_mse(pred, truth),
    "rotational_local": lambda pred, truth: losses.loss_rotational(pred, truth, "local"),
    "rotational_current": lambda pred, truth: losses.loss_rotational(pred, truth, "current"),
    "positional": lambda pred, truth: losses.loss_positional(pred, truth),
    "offset": lambda pred, truth: losses.loss_offset(pred, truth.skeleton),
    "regularization": lambda pred, truth: losses.loss_regularization(pred),
}


def directional_gap(term: str, pred: EncodedClip, truth: EncodedClip, grad, direction) -> float:
    """|<grad, v> - central difference along v|, relative to |grad| |v|."""
    def loss_at(features):
        return _LOSS_OF[term](EncodedClip(pred.kind, pred.skeleton, pred.frame_time, features), truth)

    numeric = (loss_at(pred.features + FD_STEP * direction)
               - loss_at(pred.features - FD_STEP * direction)) / (2.0 * FD_STEP)
    scale = max(float(np.linalg.norm(grad) * np.linalg.norm(direction)), 1e-300)
    return abs(float(np.sum(grad * direction)) - numeric) / scale


def check_train(p, out: dict, rng) -> list:
    problems = []
    for kind, terms in GRAD_TERMS.items():
        pred, truth = p.pred[kind], p.truth[kind]
        zero = losses.loss_total(truth, truth)
        if not (zero.mse == 0.0 and abs(zero.weighted_total) <= ZERO_TOL):
            problems.append(f"loss_total(x, x) of {kind} is {zero.weighted_total:.3e}")
        for term in terms:
            grad = out[kind]["grads"][term]
            if grad.shape != pred.features.shape or not np.all(np.isfinite(grad)):
                problems.append(f"gradient {term} of {kind} has a bad shape or value")
                continue
            gap = directional_gap(term, pred, truth, grad, rng.normal(size=grad.shape))
            if not gap <= GRAD_TOL:
                problems.append(f"gradient {term} of {kind} off by {gap:.3e} relative")
    return problems


def check_eval(p, out: dict, rng) -> list:
    problems = []
    truth = kinematics.clip_to_local(p.clip)
    same = metrics.metric_report(truth, truth, p.clip.frame_time)
    if not (same.euclidean == 0.0 and same.npss == 0.0):
        problems.append(f"metric_report(x, x) gives euclidean {same.euclidean}, npss {same.npss}")
    expected = len(window_starts(p.clip.num_frames))
    if len(out["windows"]) != expected:
        problems.append(f"{len(out['windows'])} windows, expected {expected}")
    for report in [out["full"], *out["windows"]]:
        if not (report.euclidean > 0.0 and np.isfinite(report.npss)):
            problems.append("a metric report is zero or not finite")
            break
    return problems


def check_cli(p, out: dict, rng) -> list:
    problems = [f"dqmotion {command} exited {code}: {stderr.strip()}"
                for command, (code, _, stderr) in out.items() if code != 0]
    if problems:
        return problems
    with open(p.files["back_bvh"]) as handle:
        problems += Reference(p).rows_problems("CLI encode/decode", handle.read())
    if "OK" not in out["roundtrip"][1]:
        problems.append("roundtrip did not report OK")
    loss = json.loads(out["loss"][1])
    if not (math.isfinite(loss["weighted_total"]) and loss["weighted_total"] > 0.0):
        problems.append(f"loss weighted_total is {loss['weighted_total']}")
    report = json.loads(out["metrics"][1])
    if report["windows"] != len(window_starts(p.item.frames)):  # metrics reads the source rate
        problems.append(f"metrics used {report['windows']} windows")
    return problems


CHECKS = {"prep": check_prep, "export": check_export, "train": check_train,
          "eval": check_eval, "cli": check_cli}


# ---------------------------------------------------------------------------
# digests and golden values
# ---------------------------------------------------------------------------

def _feed(h, value):
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(key.encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        for entry in value:
            _feed(h, entry)
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, kinematics.LocalPose):
        _feed(h, (value.root_translation, value.joint_rotations))
    elif isinstance(value, EncodedClip):
        _feed(h, value.features)
    elif isinstance(value, (losses.LossReport, metrics.MetricReport)):
        h.update(value.to_json().encode())
    elif isinstance(value, str):
        h.update(value.encode())
    else:
        h.update(repr(value).encode())


def digest(job: str, items: list, outputs: list) -> str:
    """Identity of one op's outputs; ops with equal digests share a check."""
    h = hashlib.sha256()
    _feed(h, outputs)
    if job == "cli":
        for p in items:
            for role in ("truth_dqm", "back_bvh"):
                with open(p.files[role], "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def golden_values(job: str, outputs: list) -> dict:
    """Loss, metric and gradient-checksum values of one op, summed over items."""
    values = {}

    def add(key, value):
        values[key] = values.get(key, 0.0) + float(value)

    for out in outputs:
        if job == "train":
            for kind, result in out.items():
                report = result["report"]
                for field in ("weighted_total", "mse", "rotational", "positional",
                              "offset", "regularization"):
                    if getattr(report, field) is not None:
                        add(f"train.{kind}.{field}", getattr(report, field))
                for term, grad in result["grads"].items():
                    add(f"train.{kind}.grad.{term}.abs_sum", np.abs(grad).sum())
        elif job == "eval":
            for field in ("euclidean", "npss", "acceleration_pred", "acceleration_error"):
                add(f"eval.{field}", getattr(out["full"], field))
                add(f"eval.windowed.{field}", sum(getattr(r, field) for r in out["windows"]))
        elif job == "cli":
            add("cli.loss.weighted_total", json.loads(out["loss"][1])["weighted_total"])
            report = json.loads(out["metrics"][1])
            for field in ("euclidean", "npss", "acceleration_error"):
                add(f"cli.metrics.{field}", report[field])
    return values


def golden_problems(values: dict, golden: dict) -> list:
    problems = []
    for key, value in values.items():
        if key not in golden:
            problems.append(f"no golden value for {key}")
        elif not math.isclose(value, golden[key], rel_tol=GOLDEN_RTOL):
            problems.append(f"{key} = {value!r}, golden {golden[key]!r}")
    return problems
