"""Evaluation metrics between motion sequences.

Three metrics, all computed on root-centered joint positions obtained by
forward kinematics with the root displacement zeroed (pose quality only,
by construction invariant to root translation). The positions are the
pose's own (`LocalPose.positions`): the frame-batched rotation sweep on
rotations normalized first, each bone offset turned by its parent's
current rotation and summed parent to child, run at most once per pose
and sliced, not rerun, for a window of a pose already scored in full:

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
Every entry point takes its arrays C-contiguous, copying only an input
that is not, so a report's bits do not depend on the input's memory
layout (numpy's sums reduce in memory order).

`window_reports` scores many windows of one position pair, each equal
bit for bit to `report_between` of the window, which is its one window
over the whole pair: each frame's distance and second differences are
computed once per clip, and NPSS runs once per window through the one
kernel `_npss` that `npss_between` also calls. Up to `_DFT_FRAMES`
frames the kernel takes the power spectra from a real DFT as matrix
products on a basis memoized per horizon (`_dft_basis`); longer windows
run the FFT. `dqmotion metrics` scores its windows through it.
"""

import functools
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
    """The two sequences as C-contiguous float arrays of one shape (a copy
    only of an array that is not): a different frame count raises
    LengthMismatchError, any other difference ShapeMismatchError."""
    pred = np.asarray(pred, dtype=float, order="C")
    truth = np.asarray(truth, dtype=float, order="C")
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
    if pred.ndim == 0:
        raise ShapeMismatchError("expected (F, ...) arrays with time first")
    if pred.shape[0] < 2:
        raise TooFewFramesError("NPSS needs at least 2 frames")
    frames = pred.shape[0]
    return _npss(pred.reshape(frames, -1), truth.reshape(frames, -1))


#: Longest window whose power spectra are matrix products on `_dft_basis`.
#: Their cost grows as H^2 and the FFT's as H log H: on 57 columns the
#: FFT catches up at about 200-250 frames.
_DFT_FRAMES = 160


@functools.lru_cache(maxsize=32)
def _dft_basis(frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real DFT of an H-frame window as matrices, B = H // 2 + 1 bins:
    the (2B, H) rows [cos; sin] of the half spectrum, each half bin's
    multiplicity in the full spectrum (1, 2, ..., 2 and a last 1 when H is
    even), and the (H, B) mirror-cumulative matrix whose row j counts the
    full-spectrum indices up to j that fold onto each half bin."""
    bins = frames // 2 + 1
    steps = np.arange(frames)
    # Reducing k * t mod H first keeps every angle in [0, 2 pi).
    angles = (2.0 * np.pi / frames) * (np.outer(np.arange(bins), steps) % frames)
    basis = np.concatenate([np.cos(angles), np.sin(angles)])
    folded = np.minimum(steps, frames - steps)  # the half bin of each full index
    mirror = quat._read_only(np.cumsum(folded[:, None] == np.arange(bins), axis=0, dtype=float))
    return quat._read_only(basis), mirror[-1], mirror


def _npss(pred: np.ndarray, truth: np.ndarray) -> float:
    """NPSS of one window given as two C-contiguous (H, K) arrays, time
    first. Up to `_DFT_FRAMES` frames the power spectra are matrix
    products on the memoized `_dft_basis`; both callers hand over row
    slices of C-contiguous arrays, so BLAS runs every product (numpy's own
    matmul loop, which numpy may run on operands of other strides, sums in
    another order). Longer windows run one FFT per side."""
    frames = pred.shape[0]
    if frames > _DFT_FRAMES:
        pred_power = np.abs(np.fft.fft(pred, axis=0)) ** 2
        truth_power = np.abs(np.fft.fft(truth, axis=0)) ** 2
        pred_total = pred_power.sum(axis=0)
        truth_total = truth_power.sum(axis=0)
    else:
        basis, multiplicity, mirror = _dft_basis(frames)
        half = len(multiplicity)
        pred_spectrum = basis @ pred
        truth_spectrum = basis @ truth
        pred_spectrum *= pred_spectrum
        truth_spectrum *= truth_spectrum
        pred_power = pred_spectrum[:half] + pred_spectrum[half:]
        truth_power = truth_spectrum[:half] + truth_spectrum[half:]
        pred_total = multiplicity @ pred_power
        truth_total = multiplicity @ truth_power

    with np.errstate(invalid="ignore", divide="ignore"):
        pred_norm = np.where(pred_total > 0, pred_power / pred_total, 0.0)
        truth_norm = np.where(truth_total > 0, truth_power / truth_total, 0.0)

    # 1-D EMD between unit-mass spectra: L1 distance of the cumulative sums.
    if frames > _DFT_FRAMES:
        gap = np.cumsum(pred_norm, axis=0) - np.cumsum(truth_norm, axis=0)
    else:
        gap = mirror @ (pred_norm - truth_norm)
    weight_total = truth_total.sum()
    # A window whose truth has no power scores 0; a NaN total gives NaN.
    if weight_total <= 0.0:
        return 0.0
    return float((np.abs(gap).sum(axis=0) * truth_total).sum() / weight_total)


def acceleration_of(positions: np.ndarray) -> float:
    """Mean second-difference magnitude per frame step.

    Input is (F, J, 3) with F >= 3; frame time is deliberately not folded
    in, so the value is in length units per squared frame step.
    """
    positions = np.asarray(positions, dtype=float, order="C")
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
    """All metrics of two (F, J, 3) position arrays, the one window of
    `window_reports` that spans them; the acceleration gap is the
    absolute difference."""
    pred, truth = _pair(pred, truth)
    # A 0-d pair fails `window_reports`' rank check whatever the horizon.
    [report] = window_reports(pred, truth, [0], len(pred) if pred.ndim else 0)
    report.frame_time = frame_time
    return report


def window_reports(
    pred: np.ndarray,
    truth: np.ndarray,
    starts,
    horizon: int,
) -> list[MetricReport]:
    """The metrics of every window [s, s + horizon) of two (F, J, 3)
    position arrays, for s in `starts`; `report_between` is its one
    window over the whole pair.

    The distances and both sequences' second differences are computed
    once per clip; a window's Euclidean and acceleration values are the
    means of its contiguous slices of them. NPSS runs once per window,
    on its row slices of the flattened clip: BLAS sums a product's terms
    in an order that depends on its column count, so windows side by
    side in one product would not keep the bits of a window alone. The
    pair and the horizon are checked before any arithmetic; starts that
    are not a sequence of integers, a horizon that is not an integer (a
    bool is neither) or a window outside the clip raises
    InvalidValueError.
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

    reports = []
    for start in starts:
        window = slice(start, start + horizon)
        diffs = slice(start, start + horizon - 2)
        a_pred = _mean(accel_pred[diffs])
        a_truth = _mean(accel_truth[diffs])
        reports.append(MetricReport(
            euclidean=_mean(distances[window]),
            npss=_npss(flat_pred[window], flat_truth[window]),
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
