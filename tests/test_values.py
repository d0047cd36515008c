"""Every value the layers pass is immutable once built.

`JointSpec`, `Skeleton`, `ChannelTable`, `RotationPlan`, `MotionClip`,
`LocalPose`, `EncodedClip`, `NormalizationStats` and `LossWeights` are
frozen dataclasses, and the arrays they hold are read-only, so a value that
passed its constructor's checks cannot be edited into one that fails
them. The layers that produce arrays hand them over read-only; what a
caller hands over writable is copied once. A value that holds arrays
compares and hashes by identity; `Skeleton` alone has a value equality.
"""

import dataclasses

import numpy as np
import pytest

import dqmotion
from dqmotion import bvh, container
from dqmotion.bvh import MotionClip
from dqmotion.encoding import (
    EncodedClip,
    NormalizationStats,
    ReprKind,
    destandardize,
    encode,
    fit_stats,
    standardize,
)
from dqmotion.errors import MotionError, NonFiniteError
from dqmotion.kinematics import LocalPose, clip_to_local, local_to_clip
from dqmotion.losses import GradCheckResult, LossReport, LossWeights
from dqmotion.metrics import MetricReport


INPUT_VALUES = (
    bvh.JointSpec, bvh.Skeleton, bvh.ChannelTable, bvh.RotationPlan, MotionClip, LocalPose,
    EncodedClip, NormalizationStats, LossWeights,
)
OUTPUT_RECORDS = (LossReport, MetricReport, GradCheckResult)


@pytest.fixture
def clip(fixtures_dir):
    return bvh.parse_file(fixtures_dir / "humanoid.bvh")


@pytest.fixture
def encoded(clip):
    return encode(clip_to_local(clip), ReprKind.DUALQUAT, clip.frame_time)


def test_every_input_value_is_frozen():
    for value in INPUT_VALUES:
        assert value.__dataclass_params__.frozen, value.__name__


def test_every_exported_dataclass_is_listed():
    """A new exported dataclass must join one of the two lists above."""
    exported = [getattr(dqmotion, name) for name in dqmotion.__all__]
    exported += [getattr(bvh, name) for name in dir(bvh)]
    dataclass_types = {value for value in exported
                       if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert dataclass_types == set(INPUT_VALUES) | set(OUTPUT_RECORDS)


# Every array a layer hands over inside a value, from the humanoid clip.
PRODUCED = {
    "parse.frames": lambda clip, enc: clip.frames,
    "subsample.frames": lambda clip, enc: bvh.subsample(clip, 30.0).frames,
    "local_to_clip.frames": lambda clip, enc: local_to_clip(
        clip_to_local(clip), clip.skeleton, clip.frame_time).frames,
    "encode.features": lambda clip, enc: enc.features,
    "fit_stats.mean": lambda clip, enc: fit_stats(enc).mean,
    "fit_stats.std": lambda clip, enc: fit_stats(enc).std,
    "standardize.features": lambda clip, enc: standardize(enc, fit_stats(enc)).features,
    "destandardize.features": lambda clip, enc: destandardize(standardize(enc, fit_stats(enc))).features,
    "from_bytes.features": lambda clip, enc: container.from_bytes(container.to_bytes(enc)).features,
    "from_bytes.std": lambda clip, enc: container.from_bytes(
        container.to_bytes(standardize(enc, fit_stats(enc)))).stats.std,
}


@pytest.mark.parametrize("name", PRODUCED)
def test_produced_arrays_are_read_only(clip, encoded, name):
    array = PRODUCED[name](clip, encoded)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        array += 1.0


def test_fields_cannot_be_reassigned(clip, encoded):
    standardized = standardize(encoded, fit_stats(encoded))
    for value, field, new in [
        (encoded, "features", encoded.features[:, :10]),
        (standardized, "stats", None),
        (standardized.stats, "std", np.ones(encoded.width)),
        (clip, "frames", clip.frames[:2]),
        (clip, "frame_time", -1.0),
        (LossWeights(), "offset", -5.0),
    ]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, new)


def test_bytearray_container_is_copied(encoded):
    blob = bytearray(container.to_bytes(standardize(encoded, fit_stats(encoded))))
    read = container.from_bytes(blob)
    features, mean = read.features.copy(), read.stats.mean.copy()
    blob[:] = bytes(len(blob))
    assert read.features.tobytes() == features.tobytes()
    assert read.stats.mean.tobytes() == mean.tobytes()


@pytest.mark.parametrize("build", [
    lambda clip, enc, bad: MotionClip(clip.skeleton, clip.frame_time, bad(clip.frames)),
    lambda clip, enc, bad: EncodedClip(enc.kind, enc.skeleton, enc.frame_time, bad(enc.features)),
    lambda clip, enc, bad: NormalizationStats(bad(np.zeros(enc.width)), np.ones(enc.width)),
    lambda clip, enc, bad: NormalizationStats(np.zeros(enc.width), bad(np.ones(enc.width))),
], ids=["MotionClip.frames", "EncodedClip.features", "NormalizationStats.mean",
        "NormalizationStats.std"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise_a_motion_error(clip, encoded, build, value):
    def bad(array):
        array = array.copy()
        array.flat[array.size // 2] = value
        return array

    with pytest.raises(MotionError) as info:
        build(clip, encoded, bad)
    assert isinstance(info.value, NonFiniteError) and isinstance(info.value, ValueError)


# One value of each class that holds arrays, from the humanoid clip.
ARRAY_VALUES = {
    "JointSpec": lambda clip, enc: clip.skeleton.joints[1],
    "ChannelTable": lambda clip, enc: clip.skeleton.channel_table,
    "RotationPlan": lambda clip, enc: clip.skeleton.channel_table.rotations,
    "MotionClip": lambda clip, enc: clip,
    "NormalizationStats": lambda clip, enc: fit_stats(enc),
    "EncodedClip": lambda clip, enc: enc,
    "LocalPose": lambda clip, enc: clip_to_local(clip),
    "GradCheckResult": lambda clip, enc: GradCheckResult(0.0, False, enc.features, enc.features),
}


@pytest.mark.parametrize("name", ARRAY_VALUES)
def test_array_values_compare_by_identity(clip, encoded, name):
    """`==` on arrays has no single truth value, so these classes compare
    and hash by identity: no numpy ValueError, no unhashable TypeError."""
    value = ARRAY_VALUES[name](clip, encoded)
    assert type(value).__name__ == name
    twin = dataclasses.replace(value)
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert hash(value) == hash(value) and len({value, twin}) == 2


def test_skeleton_keeps_its_value_equality(clip):
    twin = dataclasses.replace(clip.skeleton)
    assert twin is not clip.skeleton and twin == clip.skeleton
