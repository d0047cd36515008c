"""Batch command-line front end.

Subcommands: inspect, encode, decode, roundtrip, validate, loss, metrics.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O or
format error (values so large that the arithmetic overflows included).
Each `MotionError` carries its own code in `exit_code`; `errors` holds
the rule and the three families.
Flags are validated before any file is opened, and output files are
written atomically, so a failing invocation never leaves a partial file
behind.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import bvh, container, dualquat, quat
from .encoding import ReprKind, decode, destandardize, encode, fit_stats, standardize
from .errors import InvalidValueError, MotionError, NonFiniteError
from .kinematics import clip_to_local, local_to_clip
from .losses import LossWeights, _evaluate, loss_total
from .metrics import pose_pair_positions, window_reports

REPR_FLAGS = {
    "dq": ReprKind.DUALQUAT,
    "quat": ReprKind.QUATERNIONS,
    "pos": ReprKind.POSITIONS,
    "ortho6d": ReprKind.ORTHO6D,
    "quat-pos": ReprKind.QUATERNIONS_POSITIONS,
    "ortho6d-pos": ReprKind.ORTHO6D_POSITIONS,
}

def _parse_weights(text: str) -> LossWeights:
    if not text:
        return LossWeights()
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise InvalidValueError(f"bad --weights item {item!r}; expected key=value")
        key, value = item.split("=", 1)
        try:
            mapping[key.strip()] = float(value)
        except ValueError:
            raise InvalidValueError(f"bad --weights value {value!r}") from None
    if len(mapping) <= text.count(","):  # a repeated key kept only its last value
        raise InvalidValueError("--weights names a loss weight more than once")
    return LossWeights.from_mapping(mapping)


def _unit_residuals(blocks: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-(frame, joint) worst unit residual of dual-quaternion (8) or
    quaternion (4) blocks, and whether every block is unit by the rule of
    `dualquat.is_unit`: its one residual kernel and rule. A residual that
    overflows is a format error, as any other overflow here."""
    norm_res, ortho_res = dualquat._residual_rows(quat._components(blocks))
    if not (np.isfinite(norm_res).all() and np.isfinite(ortho_res).all()):
        raise NonFiniteError("unit residuals overflow: values too large for float64")
    return (np.maximum(np.abs(norm_res), np.abs(ortho_res)),
            dualquat._within_unit_tolerance(norm_res, ortho_res))


def _offset_violations(encoded) -> np.ndarray:
    """(F, J-1) distances of a raw dualquat clip's bone translations from
    the offsets of its skeleton; column b is encoded row b + 1."""
    return _evaluate("offset", encoded, None).values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    clip = bvh.parse_file(args.input)
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
            {**j, "parent": None if j["parent"] is None else skeleton.joints[j["parent"]].name}
            for j in skeleton.to_dict()["joints"]
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


def _load_poses(args):
    """The input file's local pose, subsampled to `--fps` when given, and
    its frame time."""
    clip = bvh.parse_file(args.input)
    if args.fps is not None:
        clip = bvh.subsample(clip, args.fps)
    return clip_to_local(clip), clip.frame_time


def cmd_encode(args) -> int:
    poses, frame_time = _load_poses(args)
    encoded = encode(poses, REPR_FLAGS[args.repr], frame_time)
    kind = encoded.kind
    print(f"width: {encoded.width} (3 + {kind.block_dim}*{encoded.joint_count})")
    if kind is ReprKind.DUALQUAT:
        residuals, unit = _unit_residuals(encoded.joint_blocks())
        print(f"max unit residual: {float(np.max(residuals)):.3e}")
        if not unit:
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
        raise InvalidValueError(f"--repr {args.repr} is not invertible; nothing to round-trip")
    if not args.tol >= 0:  # NaN too: no deviation exceeds it
        raise InvalidValueError("--tol must be non-negative")

    poses, frame_time = _load_poses(args)
    encoded = encode(poses, kind, frame_time)
    decoded = decode(encoded)

    a, b = poses.joint_rotations, decoded.joint_rotations
    sign_gaps = np.minimum(np.max(np.abs(a - b), axis=-1), np.max(np.abs(a + b), axis=-1))
    quat_dev = float(np.max(sign_gaps))
    pos_gaps = quat._lengths(poses.positions - decoded.positions)
    pos_dev = float(np.max(pos_gaps))

    offset_dev = 0.0
    if kind is ReprKind.DUALQUAT:
        offset_dev = float(np.max(_offset_violations(encoded), initial=0.0))

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
        raise InvalidValueError(
            f"validate applies to dq/quat/quat-pos containers, not {encoded.kind.value}"
        )
    if encoded.standardized:
        encoded = destandardize(encoded)
    blocks = encoded.joint_blocks()
    if encoded.kind is not ReprKind.DUALQUAT:
        blocks = blocks[..., :4]
    residuals, unit = _unit_residuals(blocks)
    worst_idx = np.unravel_index(np.argmax(residuals), residuals.shape)
    worst_residual = float(residuals[worst_idx])
    print(f"worst unit residual: {worst_residual:.3e} at frame {worst_idx[0]}, joint {worst_idx[1]}")

    if encoded.num_frames > 1:
        dots = quat.dot(blocks[:-1], blocks[1:])
        dot_idx = np.unravel_index(np.argmin(dots), dots.shape)
        worst_dot = float(dots[dot_idx])
        print(
            f"worst continuity dot: {worst_dot:.6f} between frames "
            f"{dot_idx[0]} and {dot_idx[0] + 1}, joint {dot_idx[1]}"
        )
    else:
        worst_dot = 1.0
        print("worst continuity dot: n/a (single frame)")

    worst_offset = 0.0
    if encoded.kind is ReprKind.DUALQUAT:
        offsets = _offset_violations(encoded)
        if offsets.size:
            frame, bone = np.unravel_index(np.argmax(offsets), offsets.shape)
            worst_offset = float(offsets[frame, bone])
            print(f"worst offset deviation: {worst_offset:.3e} at frame {frame}, joint {bone + 1}")
        else:
            print("worst offset deviation: n/a (no bones)")

    if not unit or worst_offset > dualquat.UNIT_TOLERANCE or worst_dot < 0.0:
        print("FAIL: container violates unit, continuity or offset conditions")
        return 1
    print("OK")
    return 0


def cmd_loss(args) -> int:
    weights = _parse_weights(args.weights)
    pred = container.read_file(args.pred)
    truth = container.read_file(args.truth)
    if container.skeleton_digest(pred.skeleton) != container.skeleton_digest(truth.skeleton):
        raise InvalidValueError("skeleton digests differ; clips describe different skeletons")
    if pred.standardized:
        pred = destandardize(pred)
    if truth.standardized:
        truth = destandardize(truth)
    report = loss_total(pred, truth, weights=weights, rotation_space=args.space)
    print(report.to_json())
    return 0


def cmd_metrics(args) -> int:
    if args.seeds < 1 or args.stride < 1:
        raise InvalidValueError("--seeds and --stride must be positive")
    if args.horizon is not None and args.horizon < 3:
        raise InvalidValueError("--horizon must allow at least 3 frames")

    pred_clip = bvh.parse_file(args.pred)
    truth_clip = bvh.parse_file(args.truth)
    # Forward kinematics runs once; each window is a slice of its positions.
    pred, truth = pose_pair_positions(clip_to_local(pred_clip), clip_to_local(truth_clip))
    frames = len(pred)
    horizon = frames if args.horizon is None else args.horizon
    starts = list(range(0, frames - horizon + 1, args.stride))[: args.seeds]
    if not starts:
        raise InvalidValueError(f"--horizon {horizon} exceeds the shared length {frames}")
    reports = window_reports(pred, truth, starts, horizon)
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process. It names no command function: `main` looks
    `cmd_<command>` up at call time."""
    parser = argparse.ArgumentParser(
        prog="dqmotion",
        description="Root-centered dual-quaternion motion toolkit: "
        "inspect, encode, decode, verify and score skeletal motion files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a BVH file")
    p.add_argument("input")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("encode", help="encode a BVH file into a .dqm container")
    p.add_argument("input")
    p.add_argument("--repr", choices=sorted(REPR_FLAGS), default="dq")
    p.add_argument("--fps", type=float, default=None, help="subsample to this rate first")
    p.add_argument("--standardize", action="store_true",
                   help="store features standardized, statistics in the header")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("decode", help="decode a .dqm container back to BVH")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("roundtrip", help="encode+decode and report deviations")
    p.add_argument("input")
    p.add_argument("--repr", choices=sorted(REPR_FLAGS), default="dq")
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("validate", help="check unit, continuity and bone-offset conditions")
    p.add_argument("input")

    p = sub.add_parser("loss", help="training losses between two containers")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--weights", default="", help="comma list, e.g. mse=1,reg=0.01")
    p.add_argument("--space", choices=("local", "current"), default="local")

    # Exact option names only, so that --seed is not read as --seeds.
    p = sub.add_parser("metrics", help="evaluation metrics between two BVH files",
                       allow_abbrev=False)
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--horizon", type=int, default=None, help="frames per window")
    p.add_argument("--seeds", type=int, default=400, help="max number of windows")
    p.add_argument("--stride", type=int, default=7, help="window start spacing")

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
            return globals()[f"cmd_{args.command}"](args)
    except MotionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: input values out of numeric range ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
