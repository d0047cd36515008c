"""The one forward hierarchy sweep: `kinematics.compose` and `relative` on
component rows, held bit for bit to the (..., J, D) callback forms that
`pose_oracles` keeps, for quaternions (C = 4) and dual quaternions (C = 8)."""

import numpy as np
import pytest

from dqmotion import dualquat, quat
from dqmotion.errors import ShapeMismatchError
from dqmotion.kinematics import _from_rows, _to_rows, compose, relative

import oracles
import pose_oracles

ALGEBRA = {4: (quat.mul, quat.conjugate), 8: (dualquat.mul, dualquat.conjugate)}
CASES = ("branching", "one frame", "root only", "leading (2, 3)", "broadcast", "signed zeros")


def branching_skeleton(rng):
    """A random tree with end sites in which some joint has at least three
    children, so a level that drops siblings shows up."""
    while True:
        skeleton = oracles.random_skeleton(rng, 12, end_sites=True)
        if np.bincount(skeleton.parent_indices[1:]).max() >= 3:
            return skeleton


def normal(rng, c: int):
    """Draws (..., J, C) normal values, about a third of their components
    replaced by +0.0 or -0.0 when asked for zeros."""
    def draw(shape, zeros=False):
        values = rng.normal(size=shape + (c,))
        if zeros:
            replaced = rng.random(values.shape) < 1 / 3
            values[replaced] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[replaced]
        return values
    return draw


def case(rng, name: str, draw):
    """(skeleton, values) for one case; `draw` draws (..., J, C) values."""
    skeleton = oracles.random_skeleton(rng, 1) if name == "root only" else branching_skeleton(rng)
    j = skeleton.num_joints
    if name == "one frame":
        return skeleton, draw((1, j))
    if name == "leading (2, 3)":
        return skeleton, draw((2, 3, j))
    if name == "broadcast":
        values = draw((1, j))
        return skeleton, np.broadcast_to(values, (5,) + values.shape[1:])
    return skeleton, draw((16, j), zeros=name == "signed zeros")


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", ALGEBRA)
@pytest.mark.parametrize("name", CASES)
class TestRowsMatchCallbackForms:
    def test_compose(self, rng, name, c):
        skeleton, values = case(rng, name, normal(rng, c))
        for levels in (skeleton.levels, skeleton.encoded_levels):
            want = pose_oracles.compose(levels, values, ALGEBRA[c][0])
            assert same_bits(_from_rows(compose(levels, _to_rows(values))), want)

    def test_relative(self, rng, name, c):
        skeleton, values = case(rng, name, normal(rng, c))
        for parents in (skeleton.parent_indices, skeleton.encoded_parents):
            values = values[..., :len(parents), :]
            want = pose_oracles.relative(parents, values, *ALGEBRA[c])
            assert same_bits(_from_rows(relative(parents, _to_rows(values))), want)


def test_rows_are_fresh_and_inverse(rng):
    values = rng.normal(size=(6, 5, 8))
    rows = _to_rows(values)
    assert rows.shape == (8, 5, 6) and rows.flags.c_contiguous
    assert not np.shares_memory(rows, values)
    back = _from_rows(rows)
    assert back.flags.c_contiguous and same_bits(back, values)


def test_inputs_are_not_written(rng):
    skeleton = branching_skeleton(rng)
    rows = _to_rows(rng.normal(size=(4, skeleton.num_joints, 8)))
    kept = rows.copy()
    compose(skeleton.levels, rows)
    relative(skeleton.parent_indices, rows)
    assert same_bits(rows, kept)


def test_other_component_counts_are_rejected(rng):
    skeleton = branching_skeleton(rng)
    rows = rng.normal(size=(3, skeleton.num_joints, 2))
    with pytest.raises(ShapeMismatchError):
        compose(skeleton.levels, rows)
    with pytest.raises(ShapeMismatchError):
        relative(skeleton.parent_indices, rows)
