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
Every entry point copies the pair into one C-contiguous (2, ...) stack,
pred first (`_pair`), so a report's bits do not depend on the input's
memory layout (numpy's sums reduce in memory order), and both sides share
each numpy call.

`window_reports` scores many windows of one position pair, each equal
bit for bit to `report_between` of the window. Each frame's distance and
both sides' second differences are computed once per clip; the windows
then go in chunks (`_chunk_windows`), each gathered with `take` into
C-contiguous rows whose sums are the window means, and scored by one
call of the one NPSS kernel, `_npss`, on its (2, n, H, K) stack.
`report_between` hands `_npss` its (2, F, K) pair as it is. A stacked
matrix product is one BLAS product per stack item, so every window keeps
the bits it has alone; windows side by side in one product would not,
since BLAS sums a product's terms in an order that depends on its shape.
Up to `_DFT_FRAMES` frames the kernel takes the power spectra from a
real DFT as matrix products on a basis memoized per horizon
(`_dft_basis`); longer windows run one FFT per stack item.
`dqmotion metrics` scores its windows through `window_reports`.
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

def _pair(pred, truth) -> np.ndarray:
    """The two sequences as one C-contiguous (2, ...) float stack, pred
    first: a different frame count raises LengthMismatchError, any other
    difference ShapeMismatchError."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape[:1] != truth.shape[:1]:
        raise LengthMismatchError(f"sequences differ in length: {pred.shape} vs {truth.shape}")
    if pred.shape != truth.shape:
        raise ShapeMismatchError(f"sequences differ in shape: {pred.shape} vs {truth.shape}")
    pair = np.empty((2,) + pred.shape)
    pair[0] = pred
    pair[1] = truth
    return pair


def _position_pair(pred, truth) -> np.ndarray:
    """`_pair` of two (F, J, 3) position arrays, as a (2, F, J, 3) stack."""
    pair = _pair(pred, truth)
    if pair.ndim != 4:
        raise ShapeMismatchError("expected a (F, J, 3) position array")
    return pair


def _mean(values: np.ndarray) -> float:
    """`np.mean` of a non-empty array, bit for bit: the same `add.reduce`
    over every value, then one division by the count.
    An empty array gives NaN with numpy's "invalid value" RuntimeWarning."""
    return float(values.sum() / values.size)


def _row_means(values: np.ndarray) -> np.ndarray:
    """`_mean` over the last two axes of a C-contiguous array, bit for bit:
    each block is one contiguous row, which sums as the block alone does."""
    rows = values.reshape(values.shape[:-2] + (-1,))
    return rows.sum(axis=-1) / rows.shape[-1]


def euclidean_between(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over frames and joints of the positional distance.

    Inputs are (F, J, 3) position arrays.
    """
    pair = _pair(pred, truth)
    if pair.ndim != 4 or pair.shape[1] < 1:
        raise ShapeMismatchError("expected (F >= 1, J, 3) position arrays")
    return _mean(quat._lengths(pair[0] - pair[1], overwrite=True))


def npss_between(pred: np.ndarray, truth: np.ndarray) -> float:
    """Power-weighted earth-mover distance between normalized temporal
    power spectra, over flattened feature columns.

    Inputs are (F, ...) arrays with time first; trailing axes are
    flattened into features. Features with zero power in both sequences
    carry no weight; two identical sequences score exactly 0.
    """
    pair = _pair(pred, truth)
    if pair.ndim == 1:
        raise ShapeMismatchError("expected (F, ...) arrays with time first")
    if pair.shape[1] < 2:
        raise TooFewFramesError("NPSS needs at least 2 frames")
    return float(_npss(pair.reshape(2, pair.shape[1], -1)))


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


def _npss(pair: np.ndarray) -> np.ndarray:
    """NPSS of the windows of a C-contiguous (2, ..., H, K) stack, pred on
    axis 0 before truth, time on axis -2: one score per window, shape
    (...). Both sides and every window share each call; numpy runs a
    stacked product as one BLAS product per stack item, so each window
    keeps the bits it has alone (BLAS sums a product's terms in an order
    that depends on its shape, so windows side by side in one product
    would not). Up to `_DFT_FRAMES` frames the power spectra are matrix
    products on the memoized `_dft_basis`. Longer windows run one FFT per
    stack item, in place on one complex buffer: one FFT over a (2, 2000,
    57) stack took twice as long as two, and a fresh complex array per
    transform page-faults under glibc's default malloc thresholds."""
    frames, columns = pair.shape[-2:]
    if frames > _DFT_FRAMES:
        power = np.empty(pair.shape)
        spectrum = np.empty((frames, columns), dtype=complex)
        for item, out in zip(pair.reshape(-1, frames, columns), power.reshape(-1, frames, columns)):
            spectrum[...] = item
            np.abs(np.fft.fft(spectrum, axis=0, out=spectrum), out=out)
        power *= power
        total = power.sum(axis=-2)
    else:
        basis, multiplicity, mirror = _dft_basis(frames)
        half = len(multiplicity)
        spectrum = basis @ pair
        spectrum *= spectrum
        power = spectrum[..., :half, :] + spectrum[..., half:, :]
        total = multiplicity @ power

    totals = total[..., None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        power /= totals
    np.copyto(power, 0.0, where=~(totals > 0))  # no power in the column, or a NaN

    # 1-D EMD between unit-mass spectra: L1 distance of the cumulative sums.
    if frames > _DFT_FRAMES:
        cumulative = np.cumsum(power, axis=-2, out=power)
        gap = np.subtract(cumulative[0], cumulative[1], out=cumulative[0])
    else:
        gap = mirror @ (power[0] - power[1])
    truth_total = total[1]
    weight_total = truth_total.sum(axis=-1)
    weighted = (np.abs(gap, out=gap).sum(axis=-2) * truth_total).sum(axis=-1)
    # A window whose truth has no power scores 0; a NaN total gives NaN.
    silent = weight_total <= 0.0
    return np.where(silent, 0.0, weighted / np.where(silent, 1.0, weight_total))


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
    """(..., F - 2, J) second-difference magnitude per frame step and
    joint of (..., F, J, 3) positions; row f is centred on frame f + 1."""
    second = np.multiply(positions[..., 1:-1, :, :], -2.0)
    second += positions[..., 2:, :, :]  # x[f + 2] - 2 x[f + 1], exactly
    second += positions[..., :-2, :, :]
    return quat._lengths(second, overwrite=True)


def report_between(
    pred: np.ndarray, truth: np.ndarray, frame_time: float | None = None
) -> MetricReport:
    """All metrics of two (F, J, 3) position arrays, the one window of
    `window_reports` that spans them, with its checks and bits; the
    acceleration gap is the absolute difference. Both sides' second
    differences and lengths are one pass, and NPSS one kernel call on the
    whole pair."""
    pair = _position_pair(pred, truth)
    frames = pair.shape[1]
    if frames < 3:
        raise TooFewFramesError("acceleration needs at least 3 frames")
    a_pred, a_truth = _row_means(_second_differences(pair)).tolist()
    return MetricReport(
        euclidean=_mean(quat._lengths(pair[0] - pair[1], overwrite=True)),
        npss=float(_npss(pair.reshape(2, frames, -1))),
        acceleration_pred=a_pred,
        acceleration_truth=a_truth,
        acceleration_error=abs(a_pred - a_truth),
        frame_time=frame_time,
    )


def _chunk_windows(horizon: int, columns: int) -> int:
    """Windows per `_npss` call in `window_reports`: the most whose largest
    stack, both sides' spectra of H + 2 rows by K columns, holds at most
    `quat._STACK_VALUES` values, and at least one."""
    return max(1, quat._STACK_VALUES // (2 * (horizon + 2) * max(columns, 1)))


def window_reports(
    pred: np.ndarray,
    truth: np.ndarray,
    starts,
    horizon: int,
) -> list[MetricReport]:
    """The metrics of every window [s, s + horizon) of two (F, J, 3)
    position arrays, for s in `starts`, each equal bit for bit to
    `report_between` of the window.

    The distances and both sequences' second differences are computed
    once per clip. The windows go in chunks whose NPSS stacks hold at
    most `quat._STACK_VALUES` values (one window when a single one holds
    more): each chunk gathers its windows' rows with `take`, reads the
    Euclidean and acceleration means as row sums of the C-contiguous
    rows, and runs `_npss` once on its (2, n, H, K) stack. The pair and
    the horizon are checked before any arithmetic; starts that are not a
    sequence of integers, a horizon that is not an integer (a bool is
    neither) or a window outside the clip raises InvalidValueError.
    """
    pair = _position_pair(pred, truth)
    try:
        starts = list(starts)
    except TypeError:
        raise InvalidValueError(f"window starts must be a sequence of integers, not {starts!r}") from None
    for value in [horizon] + starts:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise InvalidValueError(f"window starts and horizon must be integers, not {value!r}")
    if horizon < 3:
        raise TooFewFramesError("acceleration needs at least 3 frames")
    frames = pair.shape[1]
    for start in starts:
        if not 0 <= start <= frames - horizon:
            raise InvalidValueError(
                f"window [{start}, {start + horizon}) is not inside the {frames} frames"
            )
    if not starts:
        return []

    distances = quat._lengths(pair[0] - pair[1], overwrite=True)
    accel = _second_differences(pair)
    flat = pair.reshape(2, frames, -1)
    chunk = _chunk_windows(horizon, flat.shape[2])
    steps = np.arange(horizon)

    reports = []
    for first in range(0, len(starts), chunk):
        rows = np.array(starts[first:first + chunk], dtype=np.intp)[:, None] + steps
        euclidean = _row_means(distances.take(rows, axis=0))
        acceleration = _row_means(accel.take(rows[:, :-2], axis=1))
        npss = _npss(flat.take(rows, axis=1))
        for distance, score, a_pred, a_truth in zip(euclidean.tolist(), npss.tolist(),
                                                    *acceleration.tolist()):
            reports.append(MetricReport(euclidean=distance, npss=score, acceleration_pred=a_pred,
                                        acceleration_truth=a_truth, acceleration_error=abs(a_pred - a_truth)))
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
