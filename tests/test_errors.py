"""One error rule: every failure is a `MotionError` that carries its own
CLI exit code.

Bad values raise `InvalidValueError`, which is both a `MotionError` and a
`ValueError`; each error class names its exit code in `exit_code`, and
`cli.main` returns it with one `error:` line; and no module raises a
builtin exception class, except the two sentinels inside the BVH parser
that their own callers catch.
"""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

from dqmotion import bvh, cli, errors, quat
from dqmotion.bvh import JointSpec, MotionClip, Skeleton
from dqmotion.encoding import (
    EncodedClip,
    NormalizationStats,
    ReprKind,
    decode,
    destandardize,
    encode,
    fit_stats,
    standardize,
)
from dqmotion.errors import InvalidValueError, MotionError
from dqmotion.kinematics import clip_to_local
from dqmotion.losses import LossWeights, grad_check, loss_rotational, loss_total

from conftest import FIXTURES

SOURCES = Path(__file__).parent.parent / "src" / "dqmotion"


@pytest.fixture(scope="module")
def clip():
    return bvh.parse_file(FIXTURES / "humanoid.bvh")


@pytest.fixture(scope="module")
def encoded(clip):
    return encode(clip_to_local(clip), ReprKind.DUALQUAT, clip.frame_time)


def _duplicate_joint_name(clip, encoded):
    root = clip.skeleton.joints[0]
    Skeleton((root, JointSpec(root.name, 0, np.zeros(3), ())))


BAD_VALUES = {
    "MotionClip.frame_time negative": lambda clip, enc: MotionClip(clip.skeleton, -1.0, clip.frames),
    "MotionClip.frame_time rate not finite":
        lambda clip, enc: MotionClip(clip.skeleton, 1e-320, clip.frames),
    "MotionClip.frames too narrow":
        lambda clip, enc: MotionClip(clip.skeleton, clip.frame_time, clip.frames[:, :5]),
    "EncodedClip.frame_time negative":
        lambda clip, enc: EncodedClip(enc.kind, enc.skeleton, -1.0, enc.features),
    "NormalizationStats.std zero":
        lambda clip, enc: NormalizationStats(np.zeros(enc.width), np.zeros(enc.width)),
    "LossWeights.offset negative": lambda clip, enc: LossWeights(offset=-5.0),
    "LossWeights.from_mapping unknown key": lambda clip, enc: LossWeights.from_mapping({"bogus": 1}),
    "Skeleton duplicate joint name": _duplicate_joint_name,
    "quat.from_euler order": lambda clip, enc: quat.from_euler(np.zeros(3), "XXY"),
    "loss_rotational space": lambda clip, enc: loss_rotational(enc, enc, space="world"),
    "decode standardized": lambda clip, enc: decode(standardize(enc, fit_stats(enc))),
    "destandardize without stats": lambda clip, enc: destandardize(enc),
    "JointSpec.offset two numbers": lambda clip, enc: JointSpec("a", None, [1.0, 2.0], ()),
    "JointSpec.parent a float": lambda clip, enc: JointSpec("a", 0.0, [0.0, 1.0, 0.0], ()),
    "JointSpec.parent a string": lambda clip, enc: JointSpec("a", "0", [0.0, 1.0, 0.0], ()),
    "JointSpec.parent a bool": lambda clip, enc: JointSpec("a", False, [0.0, 1.0, 0.0], ()),
    "LossWeights.mse not a number": lambda clip, enc: LossWeights(mse="x"),
    "LossWeights.from_mapping not a number": lambda clip, enc: LossWeights.from_mapping({"mse": "x"}),
    "loss_total weights a mapping": lambda clip, enc: loss_total(enc, enc, weights={"mse": 1.0}),
    "grad_check pair term without truth": lambda clip, enc: grad_check("mse", enc, None),
    "loss_total without truth": lambda clip, enc: loss_total(enc, None),
    "encode kind a string": lambda clip, enc: encode(clip_to_local(clip), "dualquat"),
    "encode kind a short name": lambda clip, enc: encode(clip_to_local(clip), "dq"),
    "encode kind None": lambda clip, enc: encode(clip_to_local(clip), None),
}


@pytest.mark.parametrize("build", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_values_raise_a_motion_error_that_is_a_value_error(clip, encoded, build):
    with pytest.raises(InvalidValueError) as info:
        build(clip, encoded)
    assert isinstance(info.value, MotionError) and isinstance(info.value, ValueError)


def test_encode_checks_the_kind_before_any_work(clip):
    # A single-frame pose would raise ShapeMismatchError once read.
    with pytest.raises(InvalidValueError, match="ReprKind"):
        encode(clip_to_local(clip)[0], "dq")


def test_weights_error_points_to_from_mapping(encoded):
    with pytest.raises(InvalidValueError, match=r"LossWeights\.from_mapping"):
        loss_total(encoded, encoded, weights={"mse": 1.0})


@pytest.mark.parametrize("name", ("offset", "regularization"))
def test_grad_check_of_a_pred_only_term_needs_no_truth(rng, encoded, name):
    # Without truth, the pred-only terms measure against the clip's own
    # skeleton, as loss_offset does.
    features = encoded.features[:1] + rng.normal(scale=0.05, size=(1, encoded.width))
    pred = EncodedClip(encoded.kind, encoded.skeleton, encoded.frame_time, features)
    result = grad_check(name, pred, None)
    assert not result.nondifferentiable
    assert result.max_relative_deviation < 1e-5


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def motion_error_classes(cls=MotionError):
    """`cls` and every subclass of it, recursively."""
    found = [cls]
    for sub in cls.__subclasses__():
        found += motion_error_classes(sub)
    return found


#: The codes the CLI gave each class before the codes moved onto the
#: classes: `main` mapped these eleven by name, the CLI's own usage error
#: (now `InvalidValueError`) to 2, and the BVH loader turned a
#: `NonFiniteError` into a format error (3).
EARLIER_EXIT_CODES = {
    errors.BvhSyntaxError: 3,
    errors.ChannelMismatchError: 3,
    errors.UnsupportedChannelError: 3,
    errors.ContainerError: 3,
    errors.BadRateError: 2,
    errors.ShapeMismatchError: 2,
    errors.LengthMismatchError: 2,
    errors.TooFewFramesError: 2,
    errors.NotInvertibleError: 1,
    errors.NotUnitError: 1,
    errors.DegenerateNormError: 1,
    errors.NoPositionsError: 1,
    errors.InvalidValueError: 2,
    errors.NonFiniteError: 3,
}


def test_every_error_class_has_an_exit_code_in_1_to_3():
    classes = motion_error_classes()
    assert set(EARLIER_EXIT_CODES) <= set(classes)
    for cls in classes:
        assert cls.exit_code in (1, 2, 3), cls.__name__


@pytest.mark.parametrize("cls", EARLIER_EXIT_CODES, ids=lambda cls: cls.__name__)
def test_exit_codes_are_kept(cls):
    assert cls.exit_code == EARLIER_EXIT_CODES[cls]


@pytest.mark.parametrize("cls", motion_error_classes(), ids=lambda cls: cls.__name__)
def test_main_returns_the_class_exit_code(monkeypatch, capsys, cls):
    error = cls(7, "boom") if issubclass(cls, errors.BvhSyntaxError) else cls("boom")

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert cli.main(["inspect", "any.bvh"]) == cls.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {error}"]


# ---------------------------------------------------------------------------
# no bare builtin raise
# ---------------------------------------------------------------------------

#: The `ValueError` that stands in for `float()`'s own error; its callers
#: catch it and raise a line-anchored `BvhSyntaxError`.
SENTINELS = {("bvh.py", "_number")}


def builtin_raises():
    """(file, enclosing top-level function or class, exception name) for
    every `raise` of a builtin exception class in the package."""
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for raise_ in (n for n in ast.walk(node) if isinstance(n, ast.Raise)):
                exc = raise_.exc.func if isinstance(raise_.exc, ast.Call) else raise_.exc
                value = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
                if isinstance(value, type) and issubclass(value, BaseException):
                    found.append((path.name, getattr(node, "name", "<module>"), exc.id))
    return found


def test_no_builtin_exception_is_raised_outside_the_parser_sentinels():
    found = builtin_raises()
    assert [hit for hit in found if hit[:2] not in SENTINELS] == []
    assert {hit[:2] for hit in found} == SENTINELS  # the walk sees the sentinels
