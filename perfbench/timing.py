"""Op timing that is steady on a shared host.

The effective speed of a shared CPU can drift by tens of percent from
one second to the next, whatever runs on it. While an op runs, the clock
therefore interrupts it every SAMPLE_EVERY seconds (SIGALRM) and times a
fixed calibration loop. It scales each interval between two samples by
REFERENCE_PROBE_S over the mean calibration time at the interval's two
ends. The scaled time is the op's duration at the reference speed, at
which the loop takes REFERENCE_PROBE_S. The calibration runs themselves
are left out of both the raw and the scaled time.
"""

import signal
import time

import numpy as np

SAMPLE_EVERY = 0.05
#: Calibration-loop time at the reference speed: close to its fastest
#: best-of-three time on the 2-CPU host where the bounds were set. Any
#: constant would do; it only scales every result.
REFERENCE_PROBE_S = 5.0e-4

_QUATS = np.linspace(-1.0, 1.0, 256).reshape(64, 4)
_TEXT = "\n".join(" ".join(f"{v:.6f}" for v in row) for row in np.linspace(-90.0, 90.0, 96).reshape(8, 12))


def _loop():
    """A small mix of the program's styles of work: Python iteration over
    tiny arrays, BVH-like text parsing and formatting, whole-array numpy."""
    total = 0.0
    for row in _QUATS:
        unit = row / np.sqrt(row @ row + 1.0)
        total += float(unit @ unit) + sum(i * 0.5 for i in range(16))
    rows = [[float(v) for v in line.split()] for line in _TEXT.splitlines()]
    "\n".join(" ".join(f"{v:.6f}" for v in row) for row in rows)
    grid = np.outer(_QUATS[:, 0], _QUATS[:, 1])
    for _ in range(4):
        grid = np.cumsum(grid * 0.5, axis=0) - grid.mean()


def calibration_time() -> float:
    """Best of three timings of the calibration loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class ReferenceClock:
    """Raw and speed-scaled duration, in seconds, of what runs between
    `start` and `stop`. Only one clock may run at a time."""

    def __init__(self):
        self.raw = self.scaled = 0.0
        self._last = self._probe = None
        self._previous_handler = None
        self._sampling = False

    def start(self):
        self.raw = self.scaled = 0.0
        self._probe = calibration_time()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self, *_):
        if self._sampling:  # a signal that lands inside a sample waits for the next one
            return
        self._sampling = True
        try:
            now = time.perf_counter()
            probe = calibration_time()
            interval = now - self._last
            self.raw += interval
            self.scaled += interval * REFERENCE_PROBE_S / ((probe + self._probe) / 2.0)
            self._probe = probe
            self._last = time.perf_counter()
        finally:
            self._sampling = False
