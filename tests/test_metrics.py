"""Metrics: analytic anchors, invariances, the brute-force EMD oracle,
the FFT formula that the NPSS kernel's matrix path is held to, and the
per-window loop that `window_reports` is held to."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from dqmotion import bvh, metrics, quat
from dqmotion.kinematics import LocalPose, clip_to_local
from dqmotion.errors import (
    InvalidValueError,
    LengthMismatchError,
    ShapeMismatchError,
    TooFewFramesError,
)
from dqmotion.metrics import (
    MetricReport,
    acceleration_of,
    euclidean_between,
    metric_report,
    npss_between,
    report_between,
    window_reports,
)

import oracles


def npss_oracle(pred: np.ndarray, truth: np.ndarray) -> float:
    """Independent NPSS: per-feature spectra + double-loop EMD."""
    pred = pred.reshape(pred.shape[0], -1)
    truth = truth.reshape(truth.shape[0], -1)
    weights = []
    distances = []
    for col in range(pred.shape[1]):
        p_spec = np.abs(np.fft.fft(pred[:, col])) ** 2
        t_spec = np.abs(np.fft.fft(truth[:, col])) ** 2
        if t_spec.sum() == 0 and p_spec.sum() == 0:
            weights.append(0.0)
            distances.append(0.0)
            continue
        p_mass = p_spec / p_spec.sum() if p_spec.sum() > 0 else np.zeros_like(p_spec)
        t_mass = t_spec / t_spec.sum() if t_spec.sum() > 0 else np.zeros_like(t_spec)
        distances.append(oracles.emd_1d(p_mass, t_mass))
        weights.append(t_spec.sum())
    weights = np.array(weights)
    if weights.sum() == 0:
        return 0.0
    return float(np.average(distances, weights=weights))


class TestEuclidean:
    def test_identical(self, rng):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        seq = oracles.random_poses(rng, skeleton, 5)
        assert metric_report(seq, seq).euclidean == 0.0

    def test_displaced_joint_mean_convention(self, rng):
        positions = rng.normal(size=(4, 7, 3))
        displaced = positions.copy()
        displaced[:, 2, :] += [0.0, 0.0, 2.0]
        assert np.isclose(euclidean_between(displaced, positions), 2.0 / 7.0)

    def test_invariant_to_root_translation(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        seq = oracles.random_poses(rng, skeleton, 4)
        moved = LocalPose(skeleton, seq.root_translation + rng.uniform(-9, 9, (4, 3)),
                          seq.joint_rotations)
        assert metric_report(moved, seq).euclidean < 1e-12

    def test_symmetry(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        a = oracles.random_poses(rng, skeleton, 4)
        b = oracles.random_poses(rng, skeleton, 4)
        assert np.isclose(metric_report(a, b).euclidean, metric_report(b, a).euclidean)

    def test_length_mismatch(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        seq = oracles.random_poses(rng, skeleton, 4)
        with pytest.raises(LengthMismatchError):
            metric_report(seq, seq[:-1])


class TestNpss:
    def test_identical_zero(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        seq = oracles.random_poses(rng, skeleton, 8)
        assert metric_report(seq, seq).npss == 0.0

    def test_doubled_frequency_positive_and_matches_oracle(self):
        t = np.arange(32)
        base = np.sin(2.0 * np.pi * 2.0 * t / 32.0).reshape(-1, 1, 1)
        doubled = np.sin(2.0 * np.pi * 4.0 * t / 32.0).reshape(-1, 1, 1)
        got = npss_between(doubled, base)
        assert got > 0.0
        assert abs(got - npss_oracle(doubled, base)) < 1e-12

    def test_time_shift_invariance(self):
        # Integer shift of a periodic signal leaves the magnitude spectrum alone.
        t = np.arange(48)
        signal = (
            np.sin(2 * np.pi * 3 * t / 48.0) + 0.5 * np.cos(2 * np.pi * 6 * t / 48.0)
        ).reshape(-1, 1, 1)
        shifted = np.roll(signal, 7, axis=0)
        assert npss_between(shifted, signal) < 1e-9

    def test_matches_bruteforce_oracle_random(self, rng):
        for frames in (2, 3, 8, 17, 64):
            pred = rng.normal(size=(frames, 2, 3))
            truth = rng.normal(size=(frames, 2, 3))
            assert abs(npss_between(pred, truth) - npss_oracle(pred, truth)) < 1e-9

    def test_zero_power_columns_ignored(self, rng):
        pred = np.zeros((8, 1, 3))
        truth = np.zeros((8, 1, 3))
        pred[:, 0, 0] = rng.normal(size=8)
        truth[:, 0, 0] = rng.normal(size=8)
        full = npss_between(pred[:, :, :1], truth[:, :, :1])
        assert np.isclose(npss_between(pred, truth), full)

    def test_too_few_frames(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        seq = oracles.random_poses(rng, skeleton, 1)
        with pytest.raises(TooFewFramesError):
            metric_report(seq, seq)
        with pytest.raises(TooFewFramesError):
            npss_between(seq.positions, seq.positions)


def fft_npss(pred: np.ndarray, truth: np.ndarray) -> float:
    """NPSS of (H, K) columns by the FFT formula: full power spectra from
    one complex FFT per side, cumulative sums along time."""
    pred_power = np.abs(np.fft.fft(pred, axis=0)) ** 2
    truth_power = np.abs(np.fft.fft(truth, axis=0)) ** 2
    pred_total = pred_power.sum(axis=0)
    truth_total = truth_power.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        pred_norm = np.where(pred_total > 0, pred_power / pred_total, 0.0)
        truth_norm = np.where(truth_total > 0, truth_power / truth_total, 0.0)
    emd = np.abs(np.cumsum(pred_norm, axis=0) - np.cumsum(truth_norm, axis=0)).sum(axis=0)
    weight_total = truth_total.sum()
    return 0.0 if weight_total <= 0.0 else float((emd * truth_total).sum() / weight_total)


def kernel(pred: np.ndarray, truth: np.ndarray) -> float:
    """`metrics._npss` of one window, given as its two (H, K) sides."""
    return float(metrics._npss(np.stack((pred, truth))))


class TestNpssKernel:
    """`metrics._npss` on every horizon up to one past `_DFT_FRAMES`: the
    matrix path within 1e-12 relative of the FFT formula, the FFT path
    that formula bit for bit."""

    @staticmethod
    def columns(rng, frames):
        """(frames, 12) pred and truth columns: three zero-power root
        columns (one of them -0.0 in the truth), a constant column on
        each side, a -0.0 column in pred, the rest normal."""
        pred, truth = rng.normal(size=(2, frames, 12))
        pred[:, :3] = truth[:, :3] = 0.0
        truth[:, 1] = -0.0
        pred[:, 3], truth[:, 4], pred[:, 5] = 2.5, -1.0, -0.0
        return pred, truth

    def test_matches_the_fft_formula(self, rng):
        for frames in range(2, metrics._DFT_FRAMES + 2):
            pred, truth = self.columns(rng, frames)
            got, want = kernel(pred, truth), fft_npss(pred, truth)
            if frames > metrics._DFT_FRAMES:
                assert float.hex(got) == float.hex(want)
            else:
                assert abs(got - want) <= 1e-12 * abs(want), frames

    def test_identical_columns_score_zero(self, rng):
        for frames in range(2, metrics._DFT_FRAMES + 2):
            pred, _ = self.columns(rng, frames)
            assert float.hex(kernel(pred, pred.copy())) == float.hex(0.0), frames

    def test_no_truth_power_scores_zero(self, rng):
        pred, truth = self.columns(rng, 30)
        assert kernel(pred, np.zeros_like(truth)) == 0.0
        assert kernel(pred, np.full_like(truth, -0.0)) == 0.0


class TestAcceleration:
    def test_constant_trajectory(self):
        positions = np.tile(np.array([[1.0, 2.0, 3.0]]), (5, 1)).reshape(5, 1, 3)
        assert acceleration_of(positions) == 0.0

    def test_constant_velocity(self):
        t = np.arange(6, dtype=float)
        positions = np.stack([0.7 * t, -1.2 * t, 0.1 * t], axis=-1).reshape(6, 1, 3)
        assert acceleration_of(positions) < 1e-12

    def test_quadratic_trajectory(self):
        t = np.arange(7, dtype=float)
        positions = np.zeros((7, 1, 3))
        positions[:, 0, 0] = t * t
        assert acceleration_of(positions) == 2.0

    def test_constant_pose_sequence(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        pose = oracles.random_pose(rng, skeleton)
        seq = oracles.repeated(pose, 4)
        assert metric_report(seq, seq).acceleration_pred < 1e-12

    def test_too_few_frames(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        seq = oracles.random_poses(rng, skeleton, 2)
        with pytest.raises(TooFewFramesError):
            metric_report(seq, seq)


class TestReport:
    def test_zero_at_identity(self, rng):
        skeleton = oracles.random_skeleton(rng, 6, end_sites=True)
        seq = oracles.random_poses(rng, skeleton, 6)
        report = metric_report(seq, seq, frame_time=1 / 30)
        assert report.euclidean == 0.0
        assert report.npss == 0.0
        assert report.acceleration_error == 0.0

    def test_fields_match_individual_calls(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        a = oracles.random_poses(rng, skeleton, 6)
        b = oracles.random_poses(rng, skeleton, 6)
        report = metric_report(a, b)
        assert report.euclidean == euclidean_between(a.positions, b.positions)
        assert report.npss == npss_between(a.positions, b.positions)
        assert report.acceleration_pred == acceleration_of(a.positions)
        assert report.acceleration_truth == acceleration_of(b.positions)
        assert np.isclose(
            report.acceleration_error, abs(report.acceleration_pred - report.acceleration_truth)
        )

    def test_json_round_trip_bit_exact(self, rng):
        import json

        skeleton = oracles.random_skeleton(rng, 5)
        a = oracles.random_poses(rng, skeleton, 6)
        b = oracles.random_poses(rng, skeleton, 6)
        report = metric_report(a, b, frame_time=0.0333)
        assert json.loads(report.to_json()) == report.to_dict()

    def test_root_positions_are_zero(self, rng):
        skeleton = oracles.random_skeleton(rng, 5)
        positions = oracles.random_poses(rng, skeleton, 3).positions
        assert np.allclose(positions[:, 0], 0.0)

    def test_all_metrics_invariant_to_root_translation(self, rng):
        skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
        a = oracles.random_poses(rng, skeleton, 6)
        b = oracles.random_poses(rng, skeleton, 6)
        moved = LocalPose(skeleton, a.root_translation + rng.uniform(-30, 30, (6, 3)),
                          a.joint_rotations)
        before = metric_report(a, b)
        after = metric_report(moved, b)
        assert before.to_dict() == after.to_dict()


PAIR_FUNCTIONS = (euclidean_between, npss_between, report_between)


class TestPairCheck:
    """Every array entry point checks a pair the same way."""

    @pytest.mark.parametrize("between", PAIR_FUNCTIONS, ids=lambda f: f.__name__)
    def test_frame_count_differs(self, between):
        with pytest.raises(LengthMismatchError, match="differ in length"):
            between(np.zeros((6, 4, 3)), np.zeros((5, 4, 3)))

    @pytest.mark.parametrize("between", PAIR_FUNCTIONS, ids=lambda f: f.__name__)
    def test_joint_count_differs(self, between):
        with pytest.raises(ShapeMismatchError, match="differ in shape"):
            between(np.zeros((6, 4, 3)), np.zeros((6, 3, 3)))

    @pytest.mark.parametrize("between", PAIR_FUNCTIONS, ids=lambda f: f.__name__)
    def test_zero_dimensional_pair(self, between):
        with pytest.raises(ShapeMismatchError):
            between(np.float64(1), np.float64(1))

    @pytest.mark.parametrize("between", PAIR_FUNCTIONS, ids=lambda f: f.__name__)
    def test_same_shape_passes(self, between):
        between(np.zeros((6, 4, 3)), np.ones((6, 4, 3)))

    def test_poses_of_different_lengths(self, rng):
        skeleton = oracles.random_skeleton(rng, 4)
        seq = oracles.random_poses(rng, skeleton, 6)
        for between in PAIR_FUNCTIONS:
            with pytest.raises(LengthMismatchError):
                between(seq.positions, seq[:-1].positions)
        with pytest.raises(LengthMismatchError):
            metric_report(seq, seq[:-1])


class TestLengthsAndMeans:
    """The metrics' lengths (`quat._lengths`, the squares summed in index
    order) keep `np.linalg.norm(..., axis=-1)`'s bits and overflow warning,
    and `window_reports`' means (`metrics._mean`) keep `np.mean`'s bits."""

    def test_lengths_match_linalg_norm(self, rng):
        shapes = [(30, 19, 3), (30, 258, 3), (2000, 19, 3)]  # the metrics' own
        shapes += [tuple(rng.integers(1, 40, size=rng.integers(1, 4))) + (3,) for _ in range(200)]
        for shape in shapes:
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-150.0, 150.0, size=shape)
            x[rng.random(shape) < 0.1] = -0.0
            for v in (x, x[::-1], np.asfortranarray(x)):
                assert quat._lengths(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()

    def test_overflow_keeps_value_and_warning(self):
        v = np.array([[1e200, 0.0, 0.0], [np.inf, 1.0, 0.0], [np.nan, 0.0, 1.0], [3.0, 4.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            want = np.linalg.norm(v, axis=-1)
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            got = quat._lengths(v)
        assert got.tobytes() == want.tobytes()

    def test_metrics_return_inf_on_overflow(self):
        """A distance past float64 is inf with numpy's warning, never a
        NonFiniteError; NPSS's power spectrum warns of its own overflow."""
        pred, truth = np.full((5, 2, 3), 1e200), np.zeros((5, 2, 3))
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            assert euclidean_between(pred, truth) == np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert window_reports(pred, truth, [0, 2], 3)[1].euclidean == np.inf
        assert "overflow encountered in multiply" in {str(w.message) for w in caught}

    def test_mean_matches_np_mean(self, rng):
        for _ in range(200):
            shape = tuple(rng.integers(1, 60, size=rng.integers(1, 3)))
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
            start = rng.integers(0, shape[0])
            for v in (x, x[start:], -np.abs(x) * 0.0):
                assert float.hex(metrics._mean(v)) == float.hex(float(np.mean(v)))

    def test_trajectory_means_keep_np_mean_bits(self, rng):
        """`euclidean_between` and `acceleration_of` take `_mean`, with the
        bits of the `np.mean` they took before."""
        for shape in [(30, 19, 3), (3, 1, 3), (64, 258, 3)]:
            pred, truth = rng.normal(size=(2,) + shape) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert float.hex(euclidean_between(pred, truth)) == float.hex(
                float(np.mean(np.linalg.norm(pred - truth, axis=-1))))
            second = pred[2:] - 2.0 * pred[1:-1] + pred[:-2]
            assert float.hex(acceleration_of(pred)) == float.hex(
                float(np.mean(np.linalg.norm(second, axis=-1))))

    def test_no_joints_is_nan_with_a_warning(self):
        """An (F, 0, 3) pair has no distances to average: NaN, with numpy's
        warning of the 0 / 0."""
        empty = np.zeros((5, 0, 3))
        for metric in (lambda: euclidean_between(empty, empty), lambda: acceleration_of(empty)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert np.isnan(metric())
            assert [(w.category, str(w.message)) for w in caught] == [
                (RuntimeWarning, "invalid value encountered in scalar divide")]


def loop_reports(pred, truth, starts, horizon):
    """The oracle: each window's metrics from the single-metric entry
    points, on its slices of the pair."""
    reports = []
    for s in starts:
        p, t = pred[s : s + horizon], truth[s : s + horizon]
        a_pred, a_truth = acceleration_of(p), acceleration_of(t)
        reports.append(MetricReport(euclidean=euclidean_between(p, t), npss=npss_between(p, t),
                                    acceleration_pred=a_pred, acceleration_truth=a_truth,
                                    acceleration_error=abs(a_pred - a_truth)))
    return reports


def bits(reports):
    """Every field of every report, floats as `float.hex`, so that -0.0
    and +0.0 differ."""
    return [{name: float.hex(value) if isinstance(value, float) else value
             for name, value in report.__dict__.items()} for report in reports]


def window_starts(frames, horizon, stride):
    return list(range(0, frames - horizon + 1, stride))


class TestWindowReports:
    """`window_reports` equals the per-window loop, and `report_between`
    of each window, bit for bit."""

    def assert_matches_loop(self, pred, truth, starts, horizon):
        got = window_reports(pred, truth, starts, horizon)
        assert len(got) == len(starts)
        assert bits(got) == bits(loop_reports(pred, truth, starts, horizon))
        assert bits(got) == bits(report_between(pred[s : s + horizon], truth[s : s + horizon])
                                 for s in starts)
        return got

    def test_humanoid_fixture(self, rng, fixtures_dir):
        clip = bvh.parse_file(fixtures_dir / "humanoid.bvh")  # 16 frames
        jittered = bvh.MotionClip(clip.skeleton, clip.frame_time,
                                  clip.frames + rng.normal(scale=0.5, size=clip.frames.shape))
        pred, truth = clip_to_local(jittered).positions, clip_to_local(clip).positions
        for horizon, stride in ((8, 4), (3, 1), (16, 7), (5, 2)):
            self.assert_matches_loop(pred, truth, window_starts(16, horizon, stride), horizon)

    def test_long_clip_spans_many_batches(self, rng):
        pred, truth = rng.normal(size=(2, 2000, 19, 3))
        starts = window_starts(2000, 30, 7)
        assert len(starts) == 282 and 30 <= metrics._DFT_FRAMES  # every window a matrix product
        self.assert_matches_loop(pred, truth, starts, 30)

    def test_wide_skeleton_one_window_a_batch(self, rng):
        pred, truth = rng.normal(size=(2, 64, 258, 3))
        assert 30 <= metrics._DFT_FRAMES  # 774 columns a matrix product
        self.assert_matches_loop(pred, truth, window_starts(64, 30, 7), 30)

    @pytest.mark.parametrize("horizon", (3, 40), ids=("horizon 3", "horizon = F"))
    def test_horizon_extremes(self, rng, horizon):
        pred, truth = rng.normal(size=(2, 40, 6, 3))
        self.assert_matches_loop(pred, truth, window_starts(40, horizon, 1), horizon)

    def test_stride_beyond_horizon(self, rng):
        pred, truth = rng.normal(size=(2, 100, 6, 3))
        self.assert_matches_loop(pred, truth, window_starts(100, 8, 13), 8)

    def test_joint_held_at_origin(self, rng):
        pred, truth = rng.normal(size=(2, 60, 7, 3))
        pred[:, 3] = truth[:, 3] = 0.0  # zero-power NPSS columns
        truth[:, 5, 1] = -0.0  # zero power with a negative sign
        self.assert_matches_loop(pred, truth, window_starts(60, 10, 3), 10)

    def test_identical_sequences_score_zero(self, rng):
        positions = rng.normal(size=(50, 9, 3))
        got = self.assert_matches_loop(positions, positions.copy(), window_starts(50, 12, 5), 12)
        assert all(float.hex(report.npss) == float.hex(0.0) for report in got)
        assert all(report.euclidean == 0.0 == report.acceleration_error for report in got)

    def test_order_and_repeated_starts(self, rng):
        pred, truth = rng.normal(size=(2, 30, 4, 3))
        self.assert_matches_loop(pred, truth, [20, 0, 7, 7], 10)
        assert window_reports(pred, truth, [], 10) == []

    @pytest.mark.parametrize("layout", ("fortran", "row-strided", "column-strided"))
    def test_any_input_layout(self, rng, layout):
        pred, truth = rng.normal(size=(2, 180, 7, 6))
        pred[:, 0] = truth[:, 0] = 0.0  # the root
        if layout == "fortran":  # flattened by a copy
            pred, truth = np.asfortranarray(pred[:90, :, :3]), np.asfortranarray(truth[:90, :, :3])
        elif layout == "row-strided":  # flattened to (90, 21) rows 84 values apart, no copy
            pred, truth = pred.reshape(180, 14, 3)[::2, :7], truth.reshape(180, 14, 3)[::2, :7]
        else:  # flattened to (90, 21) columns 2 values apart, no copy
            pred, truth = pred[:90, :, ::2], truth[:90, :, ::2]
        assert not pred.flags.c_contiguous and not truth.flags.c_contiguous
        assert np.shares_memory(pred.reshape(90, -1), pred) == (layout != "fortran")
        copies = np.ascontiguousarray(pred), np.ascontiguousarray(truth)
        for horizon, stride in ((30, 7), (90, 1), (3, 11)):
            starts = window_starts(90, horizon, stride)
            got = self.assert_matches_loop(pred, truth, starts, horizon)
            # no value depends on the layout, the means included, which reduce in memory order
            assert bits(got) == bits(window_reports(*copies, starts, horizon))
        assert bits([report_between(pred, truth)]) == bits([report_between(*copies)])
        assert float.hex(acceleration_of(pred)) == float.hex(acceleration_of(copies[0]))

    def test_npss_between_still_matches_oracle(self, rng):
        for frames in (2, 3, 30):
            pred, truth = rng.normal(size=(2, frames, 19, 3))
            assert abs(npss_between(pred, truth) - npss_oracle(pred, truth)) < 1e-9


class TestWindowReportErrors:
    """`window_reports` raises what `report_between` raises on the same
    windows, before any arithmetic."""

    @pytest.mark.parametrize("shapes, error, message", [
        (((6, 4, 3), (5, 4, 3)), LengthMismatchError, "differ in length"),
        (((6, 4, 3), (6, 3, 3)), ShapeMismatchError, "differ in shape"),
        (((6, 12), (6, 12)), ShapeMismatchError, "expected a \\(F, J, 3\\) position array"),
        (((), ()), ShapeMismatchError, "expected a \\(F, J, 3\\) position array"),
    ], ids=["length", "shape", "rank", "scalar"])
    def test_pair(self, shapes, error, message):
        pred, truth = (np.zeros(shape) for shape in shapes)
        with pytest.raises(error, match=message):
            report_between(pred, truth)
        with pytest.raises(error, match=message):
            window_reports(pred, truth, [0], 3)

    def test_horizon_below_three(self, rng):
        pred, truth = rng.normal(size=(2, 2, 4, 3))
        with pytest.raises(TooFewFramesError, match="acceleration needs at least 3 frames"):
            report_between(pred, truth)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice" on the way
            for horizon in (2, 1, 0):
                with pytest.raises(TooFewFramesError,
                                   match="acceleration needs at least 3 frames"):
                    window_reports(pred, truth, [0], horizon)

    @pytest.mark.parametrize("starts, horizon", [
        ([1.5], 3), ([0], 3.5), (["1"], 3), ([0, True], 3), ([0], False), ([None], 3),
        ([0], np.float64(3.0)),
    ], ids=["float start", "float horizon", "string start", "bool start", "bool horizon",
            "no start", "numpy float horizon"])
    def test_starts_and_horizon_are_integers(self, rng, starts, horizon):
        pred, truth = rng.normal(size=(2, 10, 4, 3))
        with pytest.raises(InvalidValueError, match="must be integers, not"):
            window_reports(pred, truth, starts, horizon)

    def test_starts_are_a_sequence(self, rng):
        pred, truth = rng.normal(size=(2, 10, 4, 3))
        with pytest.raises(InvalidValueError, match="must be a sequence of integers, not 1"):
            window_reports(pred, truth, 1, 3)

    def test_numpy_integers_are_integers(self, rng):
        pred, truth = rng.normal(size=(2, 10, 4, 3))
        got = window_reports(pred, truth, np.arange(0, 7, 3), np.int32(4))
        assert bits(got) == bits(window_reports(pred, truth, [0, 3, 6], 4))

    @pytest.mark.parametrize("start", (-1, 8), ids=("before", "past the end"))
    def test_window_outside_the_clip(self, rng, start):
        pred, truth = rng.normal(size=(2, 10, 4, 3))
        with pytest.raises(InvalidValueError, match="is not inside the 10 frames"):
            window_reports(pred, truth, [0, start], 3)


METRICS_SOURCE = Path(metrics.__file__)


def is_fft(func: ast.AST) -> bool:
    """`np.fft.fft` or `numpy.fft.fft`."""
    return (isinstance(func, ast.Attribute) and func.attr == "fft"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "fft"
            and isinstance(func.value.value, ast.Name) and func.value.value.id in ("np", "numpy"))


def is_dft_basis(func: ast.AST) -> bool:
    """The DFT basis builder, bare or as `metrics._dft_basis`."""
    return (isinstance(func, ast.Name) and func.id == "_dft_basis"
            or isinstance(func, ast.Attribute) and func.attr == "_dft_basis")


def callers(tree: ast.AST, called) -> list:
    """Name of the innermost function around each call in `tree` whose
    callee satisfies `called`, "<module>" outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and called(child.func):
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_npss_body():
    tree = ast.parse(METRICS_SOURCE.read_text())
    assert set(callers(tree, is_fft)) == {"_npss"}, callers(tree, is_fft)
    assert callers(tree, is_dft_basis) == ["_npss"]


def test_the_check_sees_a_second_npss_body():
    source = """
import numpy as np

def _npss(pred, truth):
    basis = _dft_basis(len(pred))
    return np.fft.fft(pred, axis=0), np.fft.fft(truth, axis=0)

def npss_between(pred, truth):
    def inner(x):
        return numpy.fft.fft(x)
    return np.fft.fft(pred), np.fft.rfft(truth), inner(pred), metrics._dft_basis(3)

SPECTRUM = np.fft.fft([1.0, 2.0])
BASIS = _dft_basis(30)
"""
    tree = ast.parse(source)
    found = callers(tree, is_fft)
    assert found == ["_npss", "_npss", "inner", "npss_between", "<module>"]
    assert set(found) != {"_npss"}
    assert callers(tree, is_dft_basis) == ["_npss", "npss_between", "<module>"]
