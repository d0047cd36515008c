"""Batch command-line front end.

Subcommands: inspect, encode, decode, roundtrip, validate, loss, metrics.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O or
format error (values so large that the arithmetic overflows included).
Flags are validated before any file is opened, and output files are
written atomically, so a failing invocation never leaves a partial file
behind.
"""

import argparse
import json
import sys

import numpy as np

from . import bvh, container, dualquat
from .encoding import ReprKind, decode, destandardize, encode, fit_stats, standardize
from .errors import (
    BadRateError,
    BvhSyntaxError,
    ContainerError,
    DegenerateNormError,
    LengthMismatchError,
    MotionError,
    NoPositionsError,
    NotInvertibleError,
    NotUnitError,
    ShapeMismatchError,
    TooFewFramesError,
)
from .kinematics import clip_to_local, local_to_clip
from .losses import LossWeights, loss_total
from .metrics import pose_pair_positions, pose_positions, report_between

REPR_FLAGS = {
    "dq": ReprKind.DUALQUAT,
    "quat": ReprKind.QUATERNIONS,
    "pos": ReprKind.POSITIONS,
    "ortho6d": ReprKind.ORTHO6D,
    "quat-pos": ReprKind.QUATERNIONS_POSITIONS,
    "ortho6d-pos": ReprKind.ORTHO6D_POSITIONS,
}

#: Residual ceiling a freshly encoded dualquat clip must satisfy.
ENCODE_RESIDUAL_LIMIT = 1e-6


class UsageError(MotionError):
    """Semantically invalid flag/input combination (exit code 2)."""


def _load_clip(path) -> bvh.MotionClip:
    try:
        return bvh.parse_file(path)
    except ValueError as exc:
        # Model-level validation failures (e.g. non-finite values) are
        # format errors from the CLI's point of view.
        raise BvhSyntaxError(0, str(exc)) from None


def _parse_weights(text: str) -> LossWeights:
    if not text:
        return LossWeights()
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"bad --weights item {item!r}; expected key=value")
        key, value = item.split("=", 1)
        try:
            mapping[key.strip()] = float(value)
        except ValueError:
            raise UsageError(f"bad --weights value {value!r}") from None
    try:
        return LossWeights.from_mapping(mapping)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _unit_residuals(blocks: np.ndarray) -> np.ndarray:
    """Per-(frame, joint) worst of the two dual-quaternion unit residuals."""
    norm_res, ortho_res = dualquat.unitary_residual(blocks)
    return np.maximum(np.abs(norm_res), np.abs(ortho_res))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    clip = _load_clip(args.input)
    skeleton = clip.skeleton
    end_sites = skeleton.num_joints - skeleton.num_encoded
    payload = {
        "schema_version": 1,
        "joints": skeleton.num_joints,
        "end_sites": end_sites,
        "encoded_joints": skeleton.num_encoded,
        "frames": clip.num_frames,
        "frame_time": clip.frame_time,
        "fps": clip.fps,
        "channels": skeleton.channel_count,
        "joint_detail": [
            {
                "name": j.name,
                "parent": None if j.parent is None else skeleton.joints[j.parent].name,
                "offset": [float(v) for v in j.offset],
                "channels": list(j.channels),
                "end_site": j.is_end_site,
            }
            for j in skeleton.joints
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"joints: {skeleton.num_joints}, frames: {clip.num_frames}, fps: {clip.fps:g}")
    print(f"frame_time: {clip.frame_time:g} s, channels: {skeleton.channel_count}, "
          f"end sites: {end_sites}")
    for j in skeleton.joints:
        parent = "-" if j.parent is None else skeleton.joints[j.parent].name
        tag = " (end site)" if j.is_end_site else ""
        print(f"  {j.name}{tag}: parent={parent} "
              f"offset=({j.offset[0]:g}, {j.offset[1]:g}, {j.offset[2]:g}) "
              f"channels={' '.join(j.channels) or 'none'}")
    return 0


def _encode_from_file(args):
    clip = _load_clip(args.input)
    if args.fps is not None:
        clip = bvh.subsample(clip, args.fps)
    poses = clip_to_local(clip)
    return encode(poses, REPR_FLAGS[args.repr], clip.frame_time), clip


def cmd_encode(args) -> int:
    encoded, _ = _encode_from_file(args)
    kind = encoded.kind
    print(f"width: {encoded.width} (3 + {kind.block_dim}*{encoded.joint_count})")
    if kind is ReprKind.DUALQUAT:
        residual = float(np.max(_unit_residuals(encoded.joint_blocks())))
        print(f"max unit residual: {residual:.3e}")
        if residual > ENCODE_RESIDUAL_LIMIT:
            print("error: encoded blocks violate the unit conditions", file=sys.stderr)
            return 1
    if args.standardize:
        encoded = standardize(encoded, fit_stats(encoded))
        print("standardized: yes (stats stored in header)")
    container.write_file(args.output, encoded)
    print(f"wrote {args.output}")
    return 0


def cmd_decode(args) -> int:
    encoded = container.read_file(args.input)
    if encoded.standardized:
        encoded = destandardize(encoded)
    poses = decode(encoded)
    out = local_to_clip(poses, encoded.skeleton, encoded.frame_time)
    bvh.write_file(args.output, out)
    print(f"wrote {args.output} ({out.num_frames} frames, {out.skeleton.num_joints} joints)")
    return 0


def cmd_roundtrip(args) -> int:
    kind = REPR_FLAGS[args.repr]
    if not kind.has_rotations:
        raise UsageError(f"--repr {args.repr} is not invertible; nothing to round-trip")
    if args.tol < 0:
        raise UsageError("--tol must be non-negative")

    clip = _load_clip(args.input)
    if args.fps is not None:
        clip = bvh.subsample(clip, args.fps)
    poses = clip_to_local(clip)
    encoded = encode(poses, kind, clip.frame_time)
    decoded = decode(encoded)

    a, b = poses.joint_rotations, decoded.joint_rotations
    sign_gaps = np.minimum(np.max(np.abs(a - b), axis=-1), np.max(np.abs(a + b), axis=-1))
    quat_dev = float(np.max(sign_gaps))
    pos_gaps = np.linalg.norm(pose_positions(poses) - pose_positions(decoded), axis=-1)
    pos_dev = float(np.max(pos_gaps))

    offset_dev = 0.0
    if kind is ReprKind.DUALQUAT:
        from .losses import _evaluate

        violations = _evaluate("offset", encoded, None, clip.skeleton).values
        offset_dev = float(np.max(violations, initial=0.0))

    print(f"max quaternion deviation: {quat_dev:.3e}")
    print(f"max position deviation:   {pos_dev:.3e}")
    print(f"max offset deviation:     {offset_dev:.3e}")
    worst = max(quat_dev, pos_dev, offset_dev)
    if worst > args.tol:
        print(f"FAIL: worst deviation {worst:.3e} exceeds tolerance {args.tol:g}")
        return 1
    print(f"OK: all deviations within {args.tol:g}")
    return 0


def cmd_validate(args) -> int:
    encoded = container.read_file(args.input)
    if not encoded.kind.sign_sensitive:
        raise UsageError(
            f"validate applies to dq/quat containers, not {encoded.kind.value}"
        )
    if encoded.standardized:
        encoded = destandardize(encoded)
    blocks = encoded.joint_blocks()

    if encoded.kind is ReprKind.DUALQUAT:
        residuals = _unit_residuals(blocks)
    else:
        residuals = np.abs(np.sum(blocks * blocks, axis=-1) - 1.0)
    worst_idx = np.unravel_index(np.argmax(residuals), residuals.shape)
    worst_residual = float(residuals[worst_idx])
    print(f"worst unit residual: {worst_residual:.3e} at frame {worst_idx[0]}, joint {worst_idx[1]}")

    if encoded.num_frames > 1:
        dots = np.sum(blocks[:-1] * blocks[1:], axis=-1)
        dot_idx = np.unravel_index(np.argmin(dots), dots.shape)
        worst_dot = float(dots[dot_idx])
        print(
            f"worst continuity dot: {worst_dot:.6f} between frames "
            f"{dot_idx[0]} and {dot_idx[0] + 1}, joint {dot_idx[1]}"
        )
    else:
        worst_dot = 1.0
        print("worst continuity dot: n/a (single frame)")

    if worst_residual > 1e-6 or worst_dot < 0.0:
        print("FAIL: container violates unit or continuity conditions")
        return 1
    print("OK")
    return 0


def cmd_loss(args) -> int:
    weights = _parse_weights(args.weights)
    pred = container.read_file(args.pred)
    truth = container.read_file(args.truth)
    if container.skeleton_digest(pred.skeleton) != container.skeleton_digest(truth.skeleton):
        raise UsageError("skeleton digests differ; clips describe different skeletons")
    if pred.standardized:
        pred = destandardize(pred)
    if truth.standardized:
        truth = destandardize(truth)
    report = loss_total(pred, truth, weights=weights, rotation_space=args.space)
    print(report.to_json())
    return 0


def cmd_metrics(args) -> int:
    if args.seeds < 1 or args.stride < 1:
        raise UsageError("--seeds and --stride must be positive")
    if args.horizon is not None and args.horizon < 3:
        raise UsageError("--horizon must allow at least 3 frames")

    pred_clip = _load_clip(args.pred)
    truth_clip = _load_clip(args.truth)
    # Forward kinematics runs once; each window is a slice of its positions.
    pred, truth = pose_pair_positions(clip_to_local(pred_clip), clip_to_local(truth_clip))
    frames = len(pred)
    horizon = frames if args.horizon is None else args.horizon
    starts = list(range(0, frames - horizon + 1, args.stride))[: args.seeds]
    if not starts:
        raise UsageError(f"--horizon {horizon} exceeds the shared length {frames}")
    reports = [report_between(pred[s : s + horizon], truth[s : s + horizon]) for s in starts]
    payload = {"schema_version": 1}
    for name in ("euclidean", "npss", "acceleration_pred", "acceleration_truth",
                 "acceleration_error"):
        payload[name] = float(np.mean([getattr(r, name) for r in reports]))
    payload.update({"frame_time": truth_clip.frame_time, "windows": len(starts),
                    "horizon": horizon, "stride": args.stride, "seeds": args.seeds})
    print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqmotion",
        description="Root-centered dual-quaternion motion toolkit: "
        "inspect, encode, decode, verify and score skeletal motion files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a BVH file")
    p.add_argument("input")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("encode", help="encode a BVH file into a .dqm container")
    p.add_argument("input")
    p.add_argument("--repr", choices=sorted(REPR_FLAGS), default="dq")
    p.add_argument("--fps", type=float, default=None, help="subsample to this rate first")
    p.add_argument("--standardize", action="store_true",
                   help="store features standardized, statistics in the header")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a .dqm container back to BVH")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("roundtrip", help="encode+decode and report deviations")
    p.add_argument("input")
    p.add_argument("--repr", choices=sorted(REPR_FLAGS), default="dq")
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("validate", help="check unit and continuity conditions")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("loss", help="training losses between two containers")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--weights", default="", help="comma list, e.g. mse=1,reg=0.01")
    p.add_argument("--space", choices=("local", "current"), default="local")
    p.set_defaults(func=cmd_loss)

    # Exact option names only, so that --seed is not read as --seeds.
    p = sub.add_parser("metrics", help="evaluation metrics between two BVH files",
                       allow_abbrev=False)
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--horizon", type=int, default=None, help="frames per window")
    p.add_argument("--seeds", type=int, default=400, help="max number of windows")
    p.add_argument("--stride", type=int, default=7, help="window start spacing")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        # Values so large that the arithmetic overflows are a format error,
        # not a silent inf or NaN in the output.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (BvhSyntaxError, ContainerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: input values out of numeric range ({exc})", file=sys.stderr)
        return 3
    except (UsageError, BadRateError, ShapeMismatchError, LengthMismatchError,
            TooFewFramesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotInvertibleError, NotUnitError, DegenerateNormError, NoPositionsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
