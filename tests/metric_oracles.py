"""Per-window metric references that the stacked metrics are held to bit
for bit.

`npss_window` is the NPSS kernel as it ran one window a call, on two
(H, K) arrays: the real-DFT matrix products on `metrics._dft_basis` up to
`metrics._DFT_FRAMES` frames, one FFT per side past it. `window_oracle`
scores each window on its own C-contiguous copy, its distances and
second differences from `np.linalg.norm` and `np.mean`.
"""

import numpy as np

from dqmotion import metrics
from dqmotion.metrics import MetricReport


def npss_window(pred: np.ndarray, truth: np.ndarray) -> float:
    """NPSS of one window given as two C-contiguous (H, K) arrays, time
    first."""
    frames = pred.shape[0]
    if frames > metrics._DFT_FRAMES:
        pred_power = np.abs(np.fft.fft(pred, axis=0)) ** 2
        truth_power = np.abs(np.fft.fft(truth, axis=0)) ** 2
        pred_total = pred_power.sum(axis=0)
        truth_total = truth_power.sum(axis=0)
    else:
        basis, multiplicity, mirror = metrics._dft_basis(frames)
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

    if frames > metrics._DFT_FRAMES:
        gap = np.cumsum(pred_norm, axis=0) - np.cumsum(truth_norm, axis=0)
    else:
        gap = mirror @ (pred_norm - truth_norm)
    weight_total = truth_total.sum()
    if weight_total <= 0.0:
        return 0.0
    return float((np.abs(gap).sum(axis=0) * truth_total).sum() / weight_total)


def _acceleration(positions: np.ndarray) -> float:
    second = positions[2:] - 2.0 * positions[1:-1] + positions[:-2]
    return float(np.mean(np.linalg.norm(second, axis=-1)))


def window_oracle(pred, truth, starts, horizon: int) -> list[MetricReport]:
    """Each window [s, s + horizon) of two (F, J, 3) position arrays,
    scored alone on C-contiguous copies of its frames."""
    reports = []
    for start in starts:
        p = np.ascontiguousarray(pred[start:start + horizon], dtype=float)
        t = np.ascontiguousarray(truth[start:start + horizon], dtype=float)
        a_pred, a_truth = _acceleration(p), _acceleration(t)
        reports.append(MetricReport(
            euclidean=float(np.mean(np.linalg.norm(p - t, axis=-1))),
            npss=npss_window(p.reshape(horizon, -1), t.reshape(horizon, -1)),
            acceleration_pred=a_pred,
            acceleration_truth=a_truth,
            acceleration_error=abs(a_pred - a_truth),
        ))
    return reports
