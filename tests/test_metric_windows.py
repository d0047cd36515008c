"""The stacked window metrics against the per-window oracle, bit for bit.

`window_reports` scores its windows in chunks, one `_npss` call on a
(2, n, H, K) stack per chunk, and `report_between` scores its one window
with one `_npss` call on the (2, F, K) pair. Both are held here to
`metric_oracles.window_oracle`, which scores each window alone, on the
chunk boundaries, start orders, horizons, column kinds and input layouts
that the stacking could change, and on drawn clips.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dqmotion import metrics
from dqmotion.metrics import report_between, window_reports

from metric_oracles import npss_window, window_oracle


def bits(reports) -> list:
    """Every field of every report, floats as `float.hex`."""
    return [{name: float.hex(value) if isinstance(value, float) else value
             for name, value in vars(report).items()} for report in reports]


def assert_matches_oracle(pred, truth, starts, horizon):
    want = bits(window_oracle(pred, truth, starts, horizon))
    assert bits(window_reports(pred, truth, starts, horizon)) == want
    assert bits(report_between(pred[s:s + horizon], truth[s:s + horizon]) for s in starts) == want


def clip(rng, frames, joints):
    return rng.normal(size=(2, frames, joints, 3))


class TestChunkBoundaries:
    HORIZON, JOINTS = 30, 2

    @pytest.fixture
    def chunk(self):
        chunk = metrics._chunk_windows(self.HORIZON, 3 * self.JOINTS)
        assert chunk > 2
        return chunk

    @pytest.mark.parametrize("offset", (None, -1, 0, 1), ids=("one", "chunk-1", "chunk", "chunk+1"))
    def test_window_count(self, rng, chunk, offset):
        count = 1 if offset is None else chunk + offset
        pred, truth = clip(rng, self.HORIZON + count + 4, self.JOINTS)
        starts = list(range(count))
        assert_matches_oracle(pred, truth, starts, self.HORIZON)

    def test_two_chunks_and_a_half(self, rng, chunk):
        pred, truth = clip(rng, 200, self.JOINTS)
        starts = [(7 * n) % 170 for n in range(2 * chunk + chunk // 2)]
        assert_matches_oracle(pred, truth, starts, self.HORIZON)

    def test_chunk_bound(self):
        for horizon, columns in ((30, 57), (30, 6), (3, 1), (161, 774), (30, 0)):
            chunk = metrics._chunk_windows(horizon, columns)
            assert chunk >= 1
            if chunk > 1:
                assert 2 * chunk * (horizon + 2) * columns <= metrics.quat._STACK_VALUES


def test_unsorted_and_repeated_starts(rng):
    pred, truth = clip(rng, 80, 19)  # a few windows a chunk
    assert metrics._chunk_windows(30, 57) < 6
    assert_matches_oracle(pred, truth, [40, 0, 7, 7, 50, 3, 40, 12, 0], 30)


@pytest.mark.parametrize("horizon", (3, metrics._DFT_FRAMES, metrics._DFT_FRAMES + 1),
                         ids=("3", "dft frames", "dft frames + 1"))
def test_horizons(rng, horizon):
    pred, truth = clip(rng, metrics._DFT_FRAMES + 12, 3)
    starts = list(range(0, metrics._DFT_FRAMES + 13 - horizon, 4))
    assert_matches_oracle(pred, truth, starts, horizon)


@pytest.mark.parametrize("horizon", (12, metrics._DFT_FRAMES + 1), ids=("matrix", "fft"))
def test_zero_power_and_constant_columns(rng, horizon):
    pred, truth = clip(rng, horizon + 20, 6)
    pred[:, 0] = truth[:, 0] = 0.0  # zero power on both sides
    truth[:, 1, 2] = -0.0
    pred[:, 2] = 1.5  # constant in pred only
    truth[:, 3, 1] = -4.0  # constant in truth only
    pred[:, 4] = truth[:, 4] = 2.0  # the same constant on both sides
    assert_matches_oracle(pred, truth, list(range(0, 21, 5)), horizon)


def test_no_truth_power_scores_zero(rng):
    pred, _ = clip(rng, 40, 4)
    truth = np.zeros_like(pred)
    got = window_reports(pred, truth, [0, 5, 10], 20)
    assert [report.npss for report in got] == [0.0, 0.0, 0.0]
    assert_matches_oracle(pred, truth, [0, 5, 10], 20)


def test_a_nan_window(rng):
    pred, truth = clip(rng, 60, 5)
    pred[20, 3, 1] = np.nan
    truth[45, 0, 0] = np.nan
    starts = list(range(0, 31, 3))
    assert_matches_oracle(pred, truth, starts, 30)
    got = window_reports(pred, truth, starts, 30)
    assert np.isnan(got[0].euclidean) and np.isnan(got[0].acceleration_pred)
    assert not np.isnan(got[0].acceleration_truth)


@pytest.mark.parametrize("layout", ("fortran", "row-strided"))
def test_input_layouts(rng, layout):
    pred, truth = clip(rng, 120, 7)
    if layout == "fortran":
        pred, truth = np.asfortranarray(pred[:60]), np.asfortranarray(truth[:60])
    else:
        pred, truth = pred[::2], truth[::2]
    assert not pred.flags.c_contiguous and not truth.flags.c_contiguous
    for horizon, stride in ((30, 7), (60, 1), (3, 11)):
        assert_matches_oracle(pred, truth, list(range(0, 61 - horizon, stride)), horizon)


def test_kernel_is_the_oracle_on_every_horizon(rng):
    for frames in range(2, metrics._DFT_FRAMES + 3):
        pred, truth = rng.normal(size=(2, frames, 7))
        pred[:, 0] = truth[:, 0] = 0.0
        windows = rng.normal(size=(2, 3, frames, 7))
        got = metrics._npss(windows)
        want = [npss_window(windows[0, n], windows[1, n]) for n in range(3)]
        assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in want], frames
        one = float(metrics._npss(np.stack((pred, truth))))
        assert float.hex(one) == float.hex(npss_window(pred, truth)), frames


@st.composite
def windowed_clips(draw):
    frames = draw(st.integers(3, 48))
    joints = draw(st.integers(1, 6))
    horizon = draw(st.integers(3, frames))
    values = hnp.arrays(np.float64, (frames, joints, 3),
                        elements=st.floats(-100.0, 100.0, allow_subnormal=False))
    pred, truth = draw(values), draw(values)
    last = frames - horizon
    if draw(st.booleans()):
        starts = list(range(0, last + 1, draw(st.integers(1, 9))))
    else:
        starts = draw(st.lists(st.integers(0, last), min_size=1, max_size=12))
    return pred, truth, starts, horizon


@settings(max_examples=60, deadline=None)
@given(windowed_clips())
def test_drawn_windows(case):
    pred, truth, starts, horizon = case
    assert_matches_oracle(pred, truth, starts, horizon)
