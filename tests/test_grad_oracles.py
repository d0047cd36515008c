"""Batched analytic gradients against the per-(frame, joint) loop oracle."""

import numpy as np
import pytest

from dqmotion.bvh import JointSpec, Skeleton
from dqmotion.encoding import EncodedClip, ReprKind, encode
from dqmotion.kinematics import LocalPose
from dqmotion.losses import GRAD_LOSSES, _analytic_gradient

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


def noisy_pair(rng, kind, skeleton, scale=0.05):
    truth = encode(oracles.random_poses(rng, skeleton, FRAMES), kind)
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


def test_zero_distances_give_zero_gradients(rng):
    # Identity rotations and dyadic offsets make every extracted offset
    # and every position exact, so each distance is exactly zero: the
    # gradient there is 0, not NaN.
    skeleton = branching_skeleton(rng)
    joints = [
        JointSpec(j.name, j.parent, np.round(j.offset * 4.0) / 4.0, j.channels, j.is_end_site)
        for j in skeleton.joints
    ]
    skeleton = Skeleton(joints)
    rotations = np.zeros((skeleton.num_joints, 4))
    rotations[:, 0] = 1.0
    clip = encode(oracles.repeated(LocalPose(skeleton, np.zeros(3), rotations), FRAMES),
                  ReprKind.DUALQUAT)
    for name in ("offset", "positional"):
        got = _analytic_gradient(name, clip, clip, skeleton)
        want = grad_oracles.analytic_gradient(name, clip, clip, skeleton)
        assert not np.any(got), name
        assert not np.any(want), name
