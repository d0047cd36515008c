"""Exception taxonomy shared across the package.

Every error raised by dqmotion derives from :class:`MotionError`, so callers
can catch one base class. The CLI maps subtypes onto its exit codes.
"""


class MotionError(Exception):
    """Base class for all dqmotion errors."""


class DegenerateNormError(MotionError):
    """A quaternion or dual-quaternion real part has (near-)zero norm."""


class NotUnitError(MotionError):
    """An operation requiring a unit element received a non-unit one."""


class BvhSyntaxError(MotionError):
    """Malformed BVH structure. Carries the offending 1-based line number."""

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


class NoPositionsError(MotionError):
    """The representation carries no positional information."""


class LengthMismatchError(MotionError):
    """Two sequences that must have equal length do not."""


class ContainerError(MotionError):
    """A binary encoded-clip container is corrupt or unreadable."""


class NonFiniteError(MotionError, ValueError):
    """Clip frames or features, or normalization statistics, hold NaN or inf."""
