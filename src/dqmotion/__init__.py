"""dqmotion: root-centered dual-quaternion pose representation for
skeletal motion, with BVH I/O, alternative encodings, training losses and
evaluation metrics.

The algebra modules (`quat`, `dualquat`) operate on plain numpy arrays,
scalar-first. Higher layers wrap them in small dataclasses: parse a BVH
file into a `MotionClip`, expand it to one frame-batched `LocalPose`,
`encode` that under a `ReprKind`, and feed encoded clips to the loss
functions and poses to the metric functions.
"""

from . import bvh, container, dualquat, encoding, errors, kinematics, losses, metrics, quat
from .bvh import JointSpec, MotionClip, Skeleton
from .encoding import (
    EncodedClip,
    NormalizationStats,
    ReprKind,
    antipodal_correct,
    decode,
    destandardize,
    encode,
    fit_stats,
    standardize,
)
from .kinematics import LocalPose, clip_to_local, local_to_clip
from .losses import (
    GradCheckResult,
    LossReport,
    LossWeights,
    grad_check,
    loss_mse,
    loss_offset,
    loss_positional,
    loss_regularization,
    loss_rotational,
    loss_total,
)
from .metrics import (
    MetricReport,
    metric_acceleration,
    metric_euclidean,
    metric_npss,
    metric_report,
)

__version__ = "0.1.0"

__all__ = [
    "bvh", "container", "dualquat", "encoding", "errors", "kinematics",
    "losses", "metrics", "quat",
    "JointSpec", "MotionClip", "Skeleton",
    "EncodedClip", "NormalizationStats", "ReprKind",
    "antipodal_correct", "decode", "destandardize", "encode", "fit_stats", "standardize",
    "LocalPose", "clip_to_local", "local_to_clip",
    "GradCheckResult", "LossReport", "LossWeights",
    "grad_check", "loss_mse", "loss_offset", "loss_positional",
    "loss_regularization", "loss_rotational", "loss_total",
    "MetricReport", "metric_acceleration", "metric_euclidean", "metric_npss", "metric_report",
]
