"""Exception taxonomy shared across the package.

Every error dqmotion raises is a :class:`MotionError`, and each class
carries the CLI exit code it maps to in `exit_code`: 1 for a validation
failure (data that fail a unit, invertibility or position check), 2 for
a usage error (a value or flag the operation does not take; the default)
and 3 for an I/O or format error (input that does not parse or holds
non-finite numbers). A bad value raises `InvalidValueError`, which is
also a `ValueError`.
"""


class MotionError(Exception):
    """Base class for all dqmotion errors."""

    exit_code = 2


class InvalidValueError(MotionError, ValueError):
    """A value a constructor or function does not accept."""


class DegenerateNormError(MotionError):
    """A quaternion or dual-quaternion real part has (near-)zero norm."""

    exit_code = 1


class NotUnitError(MotionError):
    """An operation requiring a unit element received a non-unit one."""

    exit_code = 1


class BvhSyntaxError(MotionError):
    """Malformed BVH structure. Carries the offending 1-based line number."""

    exit_code = 3

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class ChannelMismatchError(BvhSyntaxError):
    """A MOTION row width differs from the declared channel count."""


class UnsupportedChannelError(BvhSyntaxError):
    """A CHANNELS declaration names an unknown channel tag."""


class BadRateError(MotionError):
    """Requested frame rate exceeds the source rate."""


class TooFewFramesError(MotionError):
    """An operation needs more frames than the input provides."""


class ShapeMismatchError(MotionError):
    """Two inputs that must share kind/width/shape do not."""


class NotInvertibleError(MotionError):
    """The representation cannot be decoded back to rotations."""

    exit_code = 1


class NoPositionsError(MotionError):
    """The representation carries no positional information."""

    exit_code = 1


class LengthMismatchError(MotionError):
    """Two sequences that must have equal length do not."""


class ContainerError(MotionError):
    """A binary encoded-clip container is corrupt or unreadable."""

    exit_code = 3


class NonFiniteError(InvalidValueError):
    """Clip frames or features, or normalization statistics, hold NaN or
    inf, or a norm of finite values overflows."""

    exit_code = 3
