"""The five benchmark jobs, the inputs they start from, and the tracer.

Every job takes the tracer and the prepared items and returns its outputs
per item. Each call into dqmotion goes through `Tracer.call`, which records
a span named after the stage when tracing is on and is a plain call when
it is off. Spans are taken here, around the public entry points, never
inside the package.
"""

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

from dqmotion import bvh, cli, container, encoding, kinematics, losses, metrics
from dqmotion.encoding import EncodedClip, ReprKind

from workloads import TARGET_FPS

KINDS = {
    "dq": ReprKind.DUALQUAT,
    "quat": ReprKind.QUATERNIONS,
    "pos": ReprKind.POSITIONS,
    "ortho6d": ReprKind.ORTHO6D,
    "quat-pos": ReprKind.QUATERNIONS_POSITIONS,
    "ortho6d-pos": ReprKind.ORTHO6D_POSITIONS,
}
INVERTIBLE = tuple(name for name, kind in KINDS.items() if kind.has_rotations)
#: Gradient terms per trained kind: every term `loss_total` applies to it.
GRAD_TERMS = {
    "dq": losses.GRAD_LOSSES,
    "quat": ("mse", "rotational_local", "rotational_current"),
}
PRED_NOISE = 0.02
HORIZON, STRIDE, MAX_WINDOWS = 30, 7, 400

ENCODE = {name: f"encoding.encode.{name}" for name in KINDS}
DECODE = {name: f"encoding.decode.{name}" for name in INVERTIBLE}
LOSS = {kind: f"losses.loss_total.{kind}" for kind in GRAD_TERMS}
GRAD = {(kind, term): f"losses.grad.{term}.{kind}" for kind, terms in GRAD_TERMS.items() for term in terms}
CLI_COMMANDS = ("encode", "decode", "roundtrip", "loss", "metrics")
STAGES = (
    ("bvh.parse", "bvh.write", "bvh.subsample",
     "kinematics.clip_to_local", "kinematics.local_to_clip")
    + tuple(ENCODE.values()) + tuple(DECODE.values())
    + ("container.to_bytes", "container.from_bytes")
    + tuple(LOSS.values()) + tuple(GRAD.values())
    + ("metrics.metric_report", "metrics.windowed")
    + tuple(f"cli.{command}" for command in CLI_COMMANDS)
)
#: Stages whose output size is recorded.
SIZED = ("bvh.write", "container.to_bytes")


class Tracer:
    """In-memory spans: (name, start, end, parent index, output bytes).

    Stage spans are children of the span of the job that made the call;
    job spans have no parent.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._job = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        size = len(result) if name in SIZED else None
        self.spans.append((name, start, end, self._job, size))
        return result

    @contextlib.contextmanager
    def job(self, name):
        if not self.enabled:
            yield
            return
        self._job = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[self._job] = (f"job.{name}", start, time.perf_counter(), None, None)
            self._job = None


@dataclass
class Prepared:
    """One workload item with everything its jobs start from."""

    item: object  # workloads.Item
    text: str
    clip: bvh.MotionClip  # truth, at TARGET_FPS
    pred_clip: bvh.MotionClip
    blobs: dict  # kind name -> container bytes, invertible kinds
    truth: dict  # trained kind name -> EncodedClip
    pred: dict
    files: dict  # CLI file roles -> paths
    cli_rate: list  # extra CLI flags for encode / roundtrip


def prepare(workload, rng, directory: Path) -> list:
    """Derive every job's inputs from the generated text (untimed)."""
    prepared = []
    for index, item in enumerate(workload.items):
        text = item.text(item.truth)
        pred_text = item.text(item.pred)
        clip = bvh.subsample(bvh.parse(text), TARGET_FPS)
        pred_clip = bvh.subsample(bvh.parse(pred_text), TARGET_FPS)
        poses = kinematics.clip_to_local(clip)
        encoded = {name: encoding.encode(poses, KINDS[name], clip.frame_time) for name in INVERTIBLE}
        blobs = {name: container.to_bytes(enc) for name, enc in encoded.items()}
        truth = {name: encoded[name] for name in GRAD_TERMS}
        pred = {
            name: EncodedClip(enc.kind, enc.skeleton, enc.frame_time,
                              enc.features + rng.normal(scale=PRED_NOISE, size=enc.features.shape))
            for name, enc in truth.items()
        }
        files = {role: str(directory / f"item{index:02d}-{role.replace('_', '.')}")
                 for role in ("truth_bvh", "pred_bvh", "pred_dqm", "truth_dqm", "back_bvh")}
        Path(files["truth_bvh"]).write_text(text)
        Path(files["pred_bvh"]).write_text(pred_text)
        pred_poses = kinematics.clip_to_local(pred_clip)
        container.write_file(files["pred_dqm"],
                             encoding.encode(pred_poses, ReprKind.DUALQUAT, pred_clip.frame_time))
        cli_rate = ["--fps", f"{TARGET_FPS:g}"] if item.stride > 1 else []
        prepared.append(Prepared(item, text, clip, pred_clip, blobs, truth, pred, files, cli_rate))
    return prepared


def window_starts(frames: int) -> list:
    """Window starts of the paper / CLI evaluation protocol."""
    return list(range(0, frames - HORIZON + 1, STRIDE))[:MAX_WINDOWS]


# ---------------------------------------------------------------------------
# the jobs
# ---------------------------------------------------------------------------

def prep(t: Tracer, items: list) -> list:
    """BVH text -> parse -> subsample -> local poses -> six encodings -> bytes."""
    out = []
    for p in items:
        clip = t.call("bvh.parse", bvh.parse, p.text)
        clip = t.call("bvh.subsample", bvh.subsample, clip, TARGET_FPS)
        poses = t.call("kinematics.clip_to_local", kinematics.clip_to_local, clip)
        encoded = {name: t.call(ENCODE[name], encoding.encode, poses, kind, clip.frame_time)
                   for name, kind in KINDS.items()}
        blobs = {name: t.call("container.to_bytes", container.to_bytes, enc)
                 for name, enc in encoded.items()}
        out.append({"poses": poses, "encoded": encoded, "blobs": blobs})
    return out


def export(t: Tracer, items: list) -> list:
    """Bytes -> five decodes -> channels of the dq decode -> BVH text."""
    out = []
    for p in items:
        decoded = {}
        for name in INVERTIBLE:
            clip = t.call("container.from_bytes", container.from_bytes, p.blobs[name])
            decoded[name] = t.call(DECODE[name], encoding.decode, clip)
        poses = decoded["dq"]
        raw = t.call("kinematics.local_to_clip", kinematics.local_to_clip,
                     poses, poses[0].skeleton, p.clip.frame_time)
        out.append({"decoded": decoded, "text": t.call("bvh.write", bvh.write, raw)})
    return out


def train(t: Tracer, items: list) -> list:
    """Loss report plus every applicable analytic gradient, dq and quat."""
    out = []
    for p in items:
        result = {}
        for kind, terms in GRAD_TERMS.items():
            pred, truth = p.pred[kind], p.truth[kind]
            report = t.call(LOSS[kind], losses.loss_total, pred, truth)
            grads = {term: t.call(GRAD[kind, term], losses._analytic_gradient,
                                  term, pred, truth, truth.skeleton)
                     for term in terms}
            result[kind] = {"report": report, "grads": grads}
        out.append(result)
    return out


def evaluate(t: Tracer, items: list) -> list:
    """Local poses of both clips, the full-clip report, then every window."""
    out = []
    for p in items:
        pred = t.call("kinematics.clip_to_local", kinematics.clip_to_local, p.pred_clip)
        truth = t.call("kinematics.clip_to_local", kinematics.clip_to_local, p.clip)
        frame_time = p.clip.frame_time
        full = t.call("metrics.metric_report", metrics.metric_report, pred, truth, frame_time)
        windows = [
            t.call("metrics.windowed", metrics.metric_report,
                   pred[s : s + HORIZON], truth[s : s + HORIZON], frame_time)
            for s in window_starts(len(truth))
        ]
        out.append({"full": full, "windows": windows})
    return out


def run_cli(t: Tracer, items: list) -> list:
    """In-process `dqmotion` commands on the item's files."""
    out = []
    for p in items:
        f, rate = p.files, p.cli_rate
        argvs = {
            "encode": ["encode", f["truth_bvh"], "--repr", "dq", *rate, "-o", f["truth_dqm"]],
            "decode": ["decode", f["truth_dqm"], "-o", f["back_bvh"]],
            "roundtrip": ["roundtrip", f["truth_bvh"], "--repr", "ortho6d", *rate],
            "loss": ["loss", f["pred_dqm"], f["truth_dqm"]],
            "metrics": ["metrics", f["pred_bvh"], f["truth_bvh"], "--horizon", str(HORIZON),
                        "--stride", str(STRIDE), "--seeds", str(MAX_WINDOWS)],
        }
        result = {}
        for command, argv in argvs.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = t.call(f"cli.{command}", cli.main, argv)
            result[command] = (code, stdout.getvalue(), stderr.getvalue())
        out.append(result)
    return out


JOBS = {"prep": prep, "export": export, "train": train, "eval": evaluate, "cli": run_cli}
