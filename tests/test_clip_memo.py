"""The rows an `EncodedClip` keeps for the loss terms: its unit blocks, its
rotations in each space, its positions and its bones, each derived once
and kept read-only in the clip's private `_derived_rows`.

Every term reads the kept rows instead of deriving them again, so a clip
scored twice must give the reports and gradients of a fresh copy, bit for
bit. A clip built from another one (`replace`, `standardize`,
`destandardize`, a container read, `grad_check`'s bumps) starts with none
of them, and an error must come out of exactly the calls that raised it
before the memo.
"""

import dataclasses

import numpy as np
import pytest

from dqmotion import container, dualquat, losses, quat
from dqmotion.encoding import EncodedClip, ReprKind, destandardize, encode, fit_stats, standardize
from dqmotion.errors import DegenerateNormError, NotUnitError
from dqmotion.kinematics import _to_rows
from dqmotion.losses import GRAD_LOSSES, _analytic_gradient, grad_check, loss_total

import oracles

KINDS = (ReprKind.DUALQUAT, ReprKind.QUATERNIONS, ReprKind.QUATERNIONS_POSITIONS)


def pair(rng, kind, joints=7, frames=12, noise=0.05):
    """A truth clip and a noisy prediction of it, both of `kind`."""
    skeleton = oracles.random_skeleton(rng, joints, end_sites=True)
    truth = encode(oracles.random_poses(rng, skeleton, frames), kind)
    pred = EncodedClip(kind, skeleton, truth.frame_time,
                       truth.features + rng.normal(scale=noise, size=truth.features.shape))
    return pred, truth


def copy(clip: EncodedClip) -> EncodedClip:
    """A new clip of the same features, built from a copy of them."""
    return EncodedClip(clip.kind, clip.skeleton, clip.frame_time, clip.features.copy())


def terms(kind) -> list:
    return [name for name in GRAD_LOSSES if kind in losses._TERMS[name].kinds]


def score(pred, truth) -> tuple:
    """Both reports and every applicable gradient."""
    reports = [loss_total(pred, truth, rotation_space=space) for space in ("local", "current")]
    grads = {name: _analytic_gradient(name, pred, truth, truth.skeleton) for name in terms(pred.kind)}
    return reports, grads


def report_bits(report) -> list:
    values = [getattr(report, name) for name in
              ("mse", "rotational", "rotational_raw", "positional", "offset", "regularization",
               "weighted_total")]
    per_joint = [value for component in sorted(report.per_joint) for value in report.per_joint[component]]
    return [None if value is None else float.hex(value) for value in values + per_joint]


def kept(clip: EncodedClip) -> dict:
    return vars(clip).get("_derived_rows", {})


def kept_arrays(clip: EncodedClip) -> list:
    return [array for value in kept(clip).values()
            for array in (value if isinstance(value, tuple) else (value,))]


def spy(monkeypatch, name: str, module=losses) -> list:
    """Replace module.name by a wrapper that records its arguments."""
    calls = []
    original = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestSharedRows:
    def test_positional_and_offset_read_one_unit_rows(self, rng, monkeypatch):
        pred, truth = pair(rng, ReprKind.DUALQUAT)
        calls = spy(monkeypatch, "_dq_normalize_vjp")
        for name in ("positional", "offset"):
            _analytic_gradient(name, pred, truth, truth.skeleton)
        assert len(calls) == 2
        assert calls[0][0] is calls[1][0] is losses._unit_rows(pred)

    def test_the_offset_term_translates_the_bones_once(self, rng, monkeypatch):
        pred, truth = pair(rng, ReprKind.DUALQUAT)
        calls = spy(monkeypatch, "_translation_rows", dualquat)
        loss_total(pred, truth)
        _analytic_gradient("offset", pred, truth, truth.skeleton)
        bones = losses._bone_rows(pred)
        assert [args[0] is bones.rows for args in calls].count(True) == 1
        assert len(calls) == 3  # the bones, and each clip's positions

    @pytest.mark.parametrize("kind", losses._ROTATIONAL_KINDS, ids=lambda kind: kind.value)
    def test_both_rotational_terms_read_one_rotation_rows(self, rng, monkeypatch, kind):
        pred, truth = pair(rng, kind)
        calls = spy(monkeypatch, "_normalize_vjp")
        for name in ("rotational_local", "rotational_current"):
            _analytic_gradient(name, pred, truth, truth.skeleton)
        (rows, norm, _), (again, norm_again, _) = calls
        assert rows is again and norm is norm_again
        if kind is ReprKind.DUALQUAT:  # the real part of the unit rows, not a copy
            unit = losses._unit_rows(pred)
            assert rows.base is unit.rows and norm is unit.norm

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_each_clip_is_normalized_once(self, rng, monkeypatch, kind):
        pred, truth = pair(rng, kind)
        norms = spy(monkeypatch, "_unit_norms", quat)
        blocks = spy(monkeypatch, "_normalize_rows", dualquat)
        for _ in range(2):
            score(pred, truth)
        # one per clip: pred and truth (a dualquat clip's through `_normalize_rows`)
        assert (len(norms), len(blocks)) == ((2, 2) if kind is ReprKind.DUALQUAT else (2, 0))

    def test_kept_rotation_rows_are_the_normalized_real_part(self, rng):
        # The dq rotational terms read the unit rows' real part and norms:
        # `quat.normalize` and `quat.norm` of the real part, bit for bit.
        for _ in range(40):
            joints, frames = rng.integers(2, 41), rng.integers(1, 301)
            pred, _ = pair(rng, ReprKind.DUALQUAT, joints, frames, noise=rng.uniform(0.0, 0.3))
            scaled = EncodedClip(pred.kind, pred.skeleton, pred.frame_time,
                                 pred.features * rng.uniform(0.2, 5.0))
            rows, norm = losses._rotation_rows(scaled)
            real = scaled.joint_blocks()[..., :4]
            assert rows.tobytes() == _to_rows(quat.normalize(real)).tobytes()
            assert norm.tobytes() == quat.norm(real).T.copy().tobytes()


class TestKeptRows:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_every_kept_array_is_read_only(self, rng, kind):
        pred, truth = pair(rng, kind)
        score(pred, truth)
        for clip in (pred, truth):
            arrays = kept_arrays(clip)
            assert arrays
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0

    def test_what_a_dq_prediction_keeps(self, rng):
        pred, truth = pair(rng, ReprKind.DUALQUAT)
        score(pred, truth)
        names = {"_unit_rows", "_rotation_rows", "_in_space", "_position_rows"}
        assert {key[0] for key in kept(truth)} == names
        assert {key[0] for key in kept(pred)} == names | {"_bone_rows"}
        assert {key[1:] for key in kept(pred) if key[0] == "_in_space"} == {("local",), ("current",)}

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_a_clip_scored_twice_matches_a_fresh_copy(self, rng, kind):
        pred, truth = pair(rng, kind)
        first = score(pred, truth)
        again = score(pred, truth)
        fresh = score(copy(pred), copy(truth))
        for reports, grads in (again, fresh):
            assert [report_bits(r) for r in reports] == [report_bits(r) for r in first[0]]
            assert grads.keys() == first[1].keys()
            for name in grads:
                assert np.array_equal(grads[name], first[1][name]), name
        # the truth read twice as well, now as the prediction
        assert report_bits(loss_total(truth, pred)) == report_bits(loss_total(copy(truth), copy(pred)))

    def test_memo_is_not_a_field(self, rng):
        pred, truth = pair(rng, ReprKind.DUALQUAT)
        score(pred, truth)
        assert "_derived_rows" not in {field.name for field in dataclasses.fields(EncodedClip)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            pred._derived_rows = {}


class TestNewClipsStartEmpty:
    @pytest.fixture
    def filled(self, rng):
        pred, truth = pair(rng, ReprKind.DUALQUAT)
        score(pred, truth)
        assert kept(pred) and kept(truth)
        return pred, truth

    def test_derived_clips(self, filled):
        pred, _ = filled
        stats = fit_stats(pred)
        standardized = standardize(pred, stats)
        for clip in (dataclasses.replace(pred), standardized, destandardize(standardized),
                     container.from_bytes(container.to_bytes(pred))):
            assert clip is not pred and not kept(clip)

    def test_grad_check_bumps(self, filled, monkeypatch):
        pred, truth = filled
        entered = []
        original = losses._evaluate

        def recorded(name, clip, truth_clip, skeleton):
            if clip is not pred:
                entered.append(bool(kept(clip)))
            return original(name, clip, truth_clip, skeleton)

        monkeypatch.setattr(losses, "_evaluate", recorded)
        grad_check("offset", pred, truth)
        assert len(entered) == 2 * (pred.width - 3) and not any(entered)


class TestErrorsAreNotKept:
    @staticmethod
    def bad(clip: EncodedClip, columns: slice, value: float) -> EncodedClip:
        blocks = clip.joint_blocks().copy()
        blocks[-1, -1, columns] = value
        features = np.concatenate([clip.root_translation, blocks.reshape(clip.num_frames, -1)], axis=1)
        return EncodedClip(clip.kind, clip.skeleton, clip.frame_time, features)

    def test_huge_dual_part_after_a_rotational_call(self, rng):
        # The rotational terms normalize the blocks, which a huge dual part
        # survives; the translation's unit check then fails on every call.
        pred, truth = pair(rng, ReprKind.DUALQUAT)
        bad = self.bad(pred, slice(4, 8), 1e12)
        losses.loss_rotational(bad, truth)
        assert any(key[0] == "_unit_rows" for key in kept(bad))
        calls = [
            lambda: losses.loss_positional(bad, truth),
            lambda: losses.loss_positional(truth, bad),
            lambda: losses.loss_offset(bad),
            lambda: loss_total(bad, truth),
            lambda: _analytic_gradient("positional", bad, truth, truth.skeleton),
            lambda: _analytic_gradient("offset", bad, truth, truth.skeleton),
            lambda: grad_check("positional", bad, truth),
            lambda: grad_check("offset", bad, truth),
        ]
        for call in calls + calls:
            with pytest.raises(NotUnitError):
                call()
        assert not any(key[0] == "_position_rows" for key in kept(bad))

    @pytest.mark.parametrize("name", [name for name in GRAD_LOSSES if name not in ("mse", "regularization")])
    def test_degenerate_real_part_keeps_nothing(self, rng, name):
        pred, truth = pair(rng, ReprKind.DUALQUAT)
        bad = self.bad(pred, slice(0, 4), 1e-13)
        for _ in range(2):
            with pytest.raises(DegenerateNormError, match="dual-quaternion real part"):
                losses._loss_value(name, bad, truth)
        assert not kept(bad)
        # the same clip without the bad frame scores as a fresh copy does
        head = EncodedClip(bad.kind, bad.skeleton, bad.frame_time, bad.features[:-1])
        want = EncodedClip(bad.kind, bad.skeleton, bad.frame_time, pred.features[:-1].copy())
        short = EncodedClip(truth.kind, truth.skeleton, truth.frame_time, truth.features[:-1])
        assert losses._loss_value(name, head, short) == losses._loss_value(name, want, short)
