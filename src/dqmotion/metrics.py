"""Evaluation metrics between motion sequences.

Three metrics, all computed on root-centered joint positions obtained by
forward kinematics with the root displacement zeroed (pose quality only,
by construction invariant to root translation). The positions are the
pose's own (`LocalPose.positions`): the frame-batched dual-quaternion
chain on rotations normalized first, run at most once per pose and
sliced, not rerun, for a window of a pose already scored in full:

- frame-wise Euclidean distance, averaged over frames and joints;
- normalized power-spectrum similarity (NPSS): per feature, the squared
  magnitude of the temporal DFT is normalized to unit mass and the 1-D
  earth-mover distance between the two cumulative spectra is averaged
  across features, weighted by the truth's per-feature total power;
- mean acceleration magnitude (second finite difference per frame step),
  a jitter proxy, reported for both sequences plus their gap.

Trajectory-level entry points (`euclidean_between`, `npss_between`,
`acceleration_of`, `report_between`) operate on plain position arrays;
`metric_report` takes two frame-batched LocalPoses and reads their
`positions`. A single frame, `pose[f]`, raises ShapeMismatchError. Every
entry point checks a pair one way: a different frame count raises
LengthMismatchError, any other shape difference ShapeMismatchError.

`window_reports` scores many windows of one position pair, each equal
bit for bit to `report_between` of the window: each frame's distance and
second differences are computed once per clip, and NPSS runs on batches
of windows side by side through the one kernel `_npss` that
`npss_between` also calls. `dqmotion metrics` scores its windows through
it.
"""

import json
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import quat
from .errors import (
    InvalidValueError,
    LengthMismatchError,
    ShapeMismatchError,
    TooFewFramesError,
)


@dataclass
class MetricReport:
    euclidean: float
    npss: float
    acceleration_pred: float
    acceleration_truth: float
    acceleration_error: float
    frame_time: float | None = None

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# trajectory level
# ---------------------------------------------------------------------------

def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    """The two sequences as float arrays of one shape: a different frame
    count raises LengthMismatchError, any other difference
    ShapeMismatchError."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape[:1] != truth.shape[:1]:
        raise LengthMismatchError(f"sequences differ in length: {pred.shape} vs {truth.shape}")
    if pred.shape != truth.shape:
        raise ShapeMismatchError(f"sequences differ in shape: {pred.shape} vs {truth.shape}")
    return pred, truth


def _mean(values: np.ndarray) -> float:
    """`np.mean` of a non-empty array, bit for bit: the same `add.reduce`
    over every value, then one division by the count.
    An empty array gives NaN with numpy's "invalid value" RuntimeWarning."""
    return float(values.sum() / values.size)


def euclidean_between(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over frames and joints of the positional distance.

    Inputs are (F, J, 3) position arrays.
    """
    pred, truth = _pair(pred, truth)
    if pred.ndim != 3 or pred.shape[0] < 1:
        raise ShapeMismatchError("expected (F >= 1, J, 3) position arrays")
    return _mean(quat._lengths(pred - truth))


def npss_between(pred: np.ndarray, truth: np.ndarray) -> float:
    """Power-weighted earth-mover distance between normalized temporal
    power spectra, over flattened feature columns.

    Inputs are (F, ...) arrays with time first; trailing axes are
    flattened into features. Features with zero power in both sequences
    carry no weight; two identical sequences score exactly 0.
    """
    pred, truth = _pair(pred, truth)
    if pred.shape[0] < 2:
        raise TooFewFramesError("NPSS needs at least 2 frames")
    frames = pred.shape[0]
    return float(_npss(pred.reshape(frames, -1), truth.reshape(frames, -1), 1)[0])


def _npss(pred: np.ndarray, truth: np.ndarray, windows: int) -> np.ndarray:
    """NPSS of each of `windows` windows whose feature columns sit side by
    side in two (H, windows * K) arrays: window w owns columns
    [w * K, (w + 1) * K). Every step up to the EMD runs per column along
    the time axis, so a column's value does not depend on its neighbours;
    only the weighted sums at the end group the columns by window."""
    pred_power = np.abs(np.fft.fft(pred, axis=0)) ** 2
    truth_power = np.abs(np.fft.fft(truth, axis=0)) ** 2
    pred_total = pred_power.sum(axis=0)
    truth_total = truth_power.sum(axis=0)

    with np.errstate(invalid="ignore", divide="ignore"):
        pred_norm = np.where(pred_total > 0, pred_power / pred_total, 0.0)
        truth_norm = np.where(truth_total > 0, truth_power / truth_total, 0.0)

    # 1-D EMD between unit-mass spectra: L1 distance of the cumulative sums.
    emd = np.abs(np.cumsum(pred_norm, axis=0) - np.cumsum(truth_norm, axis=0)).sum(axis=0)

    weighted = (emd * truth_total).reshape(windows, -1).sum(axis=1)
    weight_total = truth_total.reshape(windows, -1).sum(axis=1)
    # A window whose truth has no power scores 0; a NaN total gives NaN.
    return np.divide(weighted, weight_total, out=np.zeros(windows), where=~(weight_total <= 0.0))


def acceleration_of(positions: np.ndarray) -> float:
    """Mean second-difference magnitude per frame step.

    Input is (F, J, 3) with F >= 3; frame time is deliberately not folded
    in, so the value is in length units per squared frame step.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3:
        raise ShapeMismatchError("expected a (F, J, 3) position array")
    if positions.shape[0] < 3:
        raise TooFewFramesError("acceleration needs at least 3 frames")
    return _mean(_second_differences(positions))


def _second_differences(positions: np.ndarray) -> np.ndarray:
    """(F - 2, J) second-difference magnitude per frame step and joint;
    row f is centred on frame f + 1."""
    second = positions[2:] - 2.0 * positions[1:-1] + positions[:-2]
    return quat._lengths(second)


def report_between(
    pred: np.ndarray, truth: np.ndarray, frame_time: float | None = None
) -> MetricReport:
    """All metrics of two (F, J, 3) position arrays; the acceleration gap
    is the absolute difference."""
    pred, truth = _pair(pred, truth)
    accel_pred = acceleration_of(pred)
    accel_truth = acceleration_of(truth)
    return MetricReport(
        euclidean=euclidean_between(pred, truth),
        npss=npss_between(pred, truth),
        acceleration_pred=accel_pred,
        acceleration_truth=accel_truth,
        acceleration_error=abs(accel_pred - accel_truth),
        frame_time=frame_time,
    )


#: Values of one (H, windows * K) NPSS batch in `window_reports`. The
#: FFT and its temporaries stay in cache up to about this size; batching
#: more windows at once is slower, not faster.
_NPSS_BATCH_VALUES = 16384


def window_reports(
    pred: np.ndarray,
    truth: np.ndarray,
    starts,
    horizon: int,
) -> list[MetricReport]:
    """`report_between` of every window [s, s + horizon) of two (F, J, 3)
    position arrays, for s in `starts`, equal to it bit for bit.

    The distances and both sequences' second differences are computed
    once per clip; a window's Euclidean and acceleration values are the
    means of its contiguous slices of them. NPSS runs on batches of
    windows whose feature columns sit side by side, at most
    `_NPSS_BATCH_VALUES` values (and at least one window) a batch. The
    pair and the horizon are checked as `report_between` checks them,
    before any arithmetic; starts that are not a sequence of integers, a
    horizon that is not an integer (a bool is neither) or a window
    outside the clip raises InvalidValueError.
    """
    pred, truth = _pair(pred, truth)
    if pred.ndim != 3:
        raise ShapeMismatchError("expected a (F, J, 3) position array")
    try:
        starts = list(starts)
    except TypeError:
        raise InvalidValueError(f"window starts must be a sequence of integers, not {starts!r}") from None
    for value in [horizon] + starts:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise InvalidValueError(f"window starts and horizon must be integers, not {value!r}")
    if horizon < 3:
        raise TooFewFramesError("acceleration needs at least 3 frames")
    frames = pred.shape[0]
    for start in starts:
        if not 0 <= start <= frames - horizon:
            raise InvalidValueError(
                f"window [{start}, {start + horizon}) is not inside the {frames} frames"
            )

    distances = quat._lengths(pred - truth)
    accel_pred = _second_differences(pred)
    accel_truth = _second_differences(truth)

    flat_pred = pred.reshape(frames, -1)
    flat_truth = truth.reshape(frames, -1)
    per_batch = max(1, _NPSS_BATCH_VALUES // max(1, horizon * flat_pred.shape[1]))
    steps = np.arange(horizon)[:, None]
    npss = []
    for first in range(0, len(starts), per_batch):
        rows = steps + starts[first : first + per_batch]  # (H, windows) frame indices
        npss.extend(_npss(flat_pred[rows].reshape(horizon, -1),
                          flat_truth[rows].reshape(horizon, -1), rows.shape[1]))

    reports = []
    for start, value in zip(starts, npss):
        diffs = slice(start, start + horizon - 2)
        a_pred = _mean(accel_pred[diffs])
        a_truth = _mean(accel_truth[diffs])
        reports.append(MetricReport(
            euclidean=_mean(distances[start : start + horizon]),
            npss=float(value),
            acceleration_pred=a_pred,
            acceleration_truth=a_truth,
            acceleration_error=abs(a_pred - a_truth),
        ))
    return reports


# ---------------------------------------------------------------------------
# pose level
# ---------------------------------------------------------------------------

def pose_pair_positions(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    """`LocalPose.positions` of two batched poses of one skeleton and length."""
    if len(pred) != len(truth):
        raise LengthMismatchError(f"sequence lengths differ: {len(pred)} vs {len(truth)}")
    if pred.skeleton != truth.skeleton:
        raise ShapeMismatchError("sequences use different skeletons")
    return pred.positions, truth.positions


def metric_report(pred, truth, frame_time: float | None = None) -> MetricReport:
    """All metrics bundled; see `report_between`."""
    return report_between(*pose_pair_positions(pred, truth), frame_time=frame_time)
