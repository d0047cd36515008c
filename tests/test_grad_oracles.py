"""The analytic gradients against the per-(frame, joint) loop oracle, the
component-major row kernels against the batched (F, J, .) forms they
replaced, and `grad_check`'s one-pass finite differences against the
per-element loop, together with the frame locality they rest on."""

import dataclasses

import numpy as np
import pytest

from dqmotion import kinematics, losses
from dqmotion.bvh import JointSpec, Skeleton
from dqmotion.encoding import EncodedClip, ReprKind, encode
from dqmotion.kinematics import LocalPose
from dqmotion.losses import GRAD_LOSSES, _analytic_gradient, _evaluate, grad_check, loss_total

import grad_oracles
import oracles

FRAMES = 16
QUAT_LOSSES = ("mse", "rotational_local", "rotational_current")


def branching_skeleton(rng) -> Skeleton:
    """A random tree in which some joint has at least three children, so a
    scatter that drops repeated parent indices shows up."""
    while True:
        skeleton = oracles.random_skeleton(rng, 10, end_sites=True)
        children = np.bincount(skeleton.encoded_parents[1:])
        if children.max() >= 3:
            return skeleton


def noisy_pair(rng, kind, skeleton, scale=0.05, frames=FRAMES):
    truth = encode(oracles.random_poses(rng, skeleton, frames), kind)
    features = truth.features + rng.normal(scale=scale, size=truth.features.shape)
    pred = EncodedClip(kind, skeleton, truth.frame_time, features)
    return pred, truth


def assert_matches_oracle(name, pred, truth, skeleton):
    got = _analytic_gradient(name, pred, truth, skeleton)
    want = grad_oracles.analytic_gradient(name, pred, truth, skeleton)
    assert got.shape == want.shape
    assert np.all(np.isfinite(got)), name
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


@pytest.mark.parametrize("name", GRAD_LOSSES)
def test_dualquat_matches_loop_oracle(rng, name):
    skeleton = branching_skeleton(rng)
    for _ in range(3):
        pred, truth = noisy_pair(rng, ReprKind.DUALQUAT, skeleton)
        assert_matches_oracle(name, pred, truth, skeleton)


@pytest.mark.parametrize("name", QUAT_LOSSES)
def test_quaternions_match_loop_oracle(rng, name):
    skeleton = branching_skeleton(rng)
    for _ in range(3):
        pred, truth = noisy_pair(rng, ReprKind.QUATERNIONS, skeleton)
        assert_matches_oracle(name, pred, truth, skeleton)


def test_offset_against_other_skeleton(rng):
    # The offset term measures against the skeleton it is given, which
    # need not be the clip's own.
    skeleton = branching_skeleton(rng)
    pred, truth = noisy_pair(rng, ReprKind.DUALQUAT, skeleton)
    other = Skeleton(
        [
            JointSpec(j.name, j.parent, j.offset * 1.5, j.channels, j.is_end_site)
            for j in skeleton.joints
        ]
    )
    assert_matches_oracle("offset", pred, truth, other)


def exact_clip(rng, kind=ReprKind.DUALQUAT):
    """Identity rotations on a skeleton with dyadic offsets: every extracted
    offset and every position is exact, so each distance is exactly zero."""
    skeleton = branching_skeleton(rng)
    joints = [
        JointSpec(j.name, j.parent, np.round(j.offset * 4.0) / 4.0, j.channels, j.is_end_site)
        for j in skeleton.joints
    ]
    skeleton = Skeleton(joints)
    rotations = np.zeros((skeleton.num_joints, 4))
    rotations[:, 0] = 1.0
    return encode(oracles.repeated(LocalPose(skeleton, np.zeros(3), rotations), FRAMES), kind)


def test_zero_distances_give_zero_gradients(rng):
    # The gradient at an exact zero distance is 0, not NaN.
    clip = exact_clip(rng)
    for name in ("offset", "positional"):
        got = _analytic_gradient(name, clip, clip, clip.skeleton)
        want = grad_oracles.analytic_gradient(name, clip, clip, clip.skeleton)
        assert not np.any(got), name
        assert not np.any(want), name


# ---------------------------------------------------------------------------
# the row kernels against the batched forms
# ---------------------------------------------------------------------------

#: Terms per kind: every term `loss_total` applies to it.
KIND_TERMS = {
    ReprKind.DUALQUAT: GRAD_LOSSES,
    ReprKind.QUATERNIONS: QUAT_LOSSES,
    ReprKind.QUATERNIONS_POSITIONS: QUAT_LOSSES + ("positional",),
}


def edge_cases(rng, kind):
    """(case, pred, truth, skeleton) on the inputs where a row kernel could
    part from the batched forms."""
    branching = branching_skeleton(rng)
    root_only = oracles.random_skeleton(rng, 1, end_sites=True)
    assert root_only.num_encoded == 1  # the offset term has no columns
    zero = exact_clip(rng, kind)
    return [
        ("branching", *noisy_pair(rng, kind, branching), branching),
        ("root only", *noisy_pair(rng, kind, root_only), root_only),
        ("one frame", *noisy_pair(rng, kind, branching, frames=1), branching),
        ("zero distances", zero, zero, zero.skeleton),
    ]


def test_building_blocks_match_batched_forms(rng):
    # Random upstream gradients, unlike the terms' own, have components off
    # the tangent spaces the terms feed, so every part of each VJP shows.
    blocks = rng.normal(size=(5, 7, 8))
    g = rng.normal(size=(5, 7, 8))
    u = rng.normal(size=(5, 7, 3))
    unit = losses._unit_rows(EncodedClip(
        ReprKind.DUALQUAT, oracles.random_skeleton(rng, 7), 1 / 30,
        np.concatenate([np.zeros((5, 3)), blocks.reshape(5, -1)], axis=1)))
    rows = kinematics._to_rows

    def assert_close(got, want):
        want = want.transpose(2, 1, 0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    assert_close(losses._dq_normalize_vjp(unit, rows(g)), grad_oracles._dq_normalize_vjp(blocks, g))
    assert_close(losses._normalize_vjp(unit.rows[:4], unit.norm, rows(g[..., :4])),
                 grad_oracles._normalize_vjp(blocks[..., :4], g[..., :4]))
    assert_close(losses._translation_vjp(rows(blocks), rows(u)),
                 grad_oracles._translation_vjp(blocks, u))


@pytest.mark.parametrize("kind", KIND_TERMS, ids=lambda kind: kind.value)
def test_row_kernels_match_batched_forms(rng, kind):
    for case, pred, truth, skeleton in edge_cases(rng, kind):
        for name in KIND_TERMS[kind]:
            got = _evaluate(name, pred, truth, skeleton)
            want = grad_oracles.BATCHED_TERMS[name](pred, truth, skeleton)
            label = f"{case}: {name}"
            # values bit for bit, in the same C-ordered layout
            assert got.values.flags.c_contiguous, label
            assert got.values.shape == want.values.shape, label
            assert np.array_equal(got.values, want.values), label
            if want.unaligned is not None:
                assert np.array_equal(got.unaligned, want.unaligned), label
            grad, want_grad = got.grad(), want.grad()
            assert grad.shape == want_grad.shape, label
            assert np.all(np.isfinite(grad)), label
            assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad)), label


@pytest.mark.parametrize("kind", KIND_TERMS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("space", ("local", "current"))
def test_loss_total_unchanged_against_batched_forms(rng, monkeypatch, kind, space):
    cases = edge_cases(rng, kind)
    reports = [loss_total(pred, truth, rotation_space=space, truth_skeleton=skeleton).to_json()
               for _, pred, truth, skeleton in cases]
    for name, evaluate in grad_oracles.BATCHED_TERMS.items():
        monkeypatch.setitem(
            losses._TERMS, name, dataclasses.replace(losses._TERMS[name], evaluate=evaluate))
    for (case, pred, truth, skeleton), report in zip(cases, reports):
        want = loss_total(pred, truth, rotation_space=space, truth_skeleton=skeleton).to_json()
        assert report == want, case


# ---------------------------------------------------------------------------
# grad_check's one pass against the per-element loop
# ---------------------------------------------------------------------------

#: Every (kind, term) pair a term applies to; a rotational term's name
#: carries its space.
KIND_TERM_PAIRS = [(kind, name) for name, term in losses._TERMS.items() for kind in term.kinds]
PAIR_IDS = [f"{kind.value}-{name}" for kind, name in KIND_TERM_PAIRS]


@pytest.mark.parametrize("frames", (1, 3, 7))
@pytest.mark.parametrize("kind, name", KIND_TERM_PAIRS, ids=PAIR_IDS)
def test_grad_check_matches_per_element_differences(rng, kind, name, frames):
    skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
    pred, truth = noisy_pair(rng, kind, skeleton, frames=frames)
    result = grad_check(name, pred, truth)
    want = grad_oracles.numeric_gradient(name, pred, truth, skeleton)
    assert result.numeric.shape == want.shape
    assert np.max(np.abs(result.numeric - want)) <= 1e-8 * np.max(np.abs(result.analytic))
    # grad_check skips the root-translation columns, which no term reads
    assert not np.any(result.analytic[:, :3])
    assert not np.any(result.numeric[:, :3])


@pytest.mark.parametrize("kind, name", KIND_TERM_PAIRS, ids=PAIR_IDS)
def test_term_values_are_frame_local(rng, kind, name):
    # grad_check bumps a column in every frame at once, which is exact only
    # while a frame's values read that frame's features alone. A temporal
    # term fails here.
    skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
    pred, truth = noisy_pair(rng, kind, skeleton, frames=5)
    features = pred.features.copy()
    features[2] += rng.normal(scale=0.05, size=pred.width)
    bumped = EncodedClip(kind, skeleton, pred.frame_time, features)
    before = _evaluate(name, pred, truth, skeleton).values
    after = _evaluate(name, bumped, truth, skeleton).values
    others = [0, 1, 3, 4]
    assert np.array_equal(before[others], after[others])
    assert not np.array_equal(before[2], after[2])


def test_grad_check_evaluates_the_clip_twice_per_joint_column(rng, monkeypatch):
    skeleton = oracles.random_skeleton(rng, 5, end_sites=True)
    pred, truth = noisy_pair(rng, ReprKind.DUALQUAT, skeleton, frames=7)
    calls = []
    original = losses._evaluate

    def spy(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(losses, "_evaluate", spy)
    grad_check("positional", pred, truth)
    # every column but the three root-translation ones, bumped both ways
    assert calls == ["positional"] * (2 * (pred.width - 3) + 1)
