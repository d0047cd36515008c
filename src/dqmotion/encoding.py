"""Flat feature encodings of a frame-batched pose.

A frame-batched `LocalPose` (a whole clip; a single frame is rejected)
becomes an (F, 3 + D*J) matrix: the first three columns hold the root
translation, followed by J per-joint blocks of width D. J counts the
skeleton's non-end-site joints. Six block layouts are supported:

==============================  ===  =========================================
kind                             D   per-joint block
==============================  ===  =========================================
positions                        3   root-relative position
quaternions                      4   local rotation quaternion (w, x, y, z)
ortho6d                          6   first two columns of the local rotation
                                     matrix (column-major)
quaternions_positions            7   local quaternion, then position
dualquat                         8   root-relative unit dual quaternion
ortho6d_positions                9   six-value block, then position
==============================  ===  =========================================

Quaternion and dual-quaternion blocks receive the antipodal sign
correction along time at encode time, once; the correction never changes
the rigid transform a block encodes.

A block is a row of parts, and `_KIND_PARTS` is the one definition of
each kind's: its parts and the column each starts at. The rotation part
(sign-corrected quaternions, six-value block or sign-corrected dual
quaternion) starts at column 0, and stored positions take the last three
columns. `block_dim`, `has_positions`, `sign_sensitive` and `decode`'s
choice of rotation reader all read it.

Every part reads the pose's one checked set of unit rotations
(`LocalPose._rotation_rows`), so every kind raises what `pose.positions`
raises. The quaternion and six-value parts are those rows at the encoded
joints, the positions part is `LocalPose.positions` there, and each
dual-quaternion block is (q, 1/2 (0, p) q) of the current rotation q and
position p that the pose's one forward sweep keeps: no encoding runs a
sweep of its own.

Encoding one pose under several kinds builds each part once. Once a clip
is built, `encode` keeps each part it holds in the pose's private
`LocalPose._encoded_parts` as a read-only view into that clip's
features, never as an array of its own, so the pose pins only clips its
caller was handed. A later encode of the same pose copies the part from
there, bit for bit what it would build. A slice of the pose starts with
no parts (the sign correction seeds at the slice's own first frame), and
an encode that raises keeps nothing, so the next call raises again.

`EncodedClip` and `NormalizationStats` are immutable values, like every
value the package passes: frozen dataclasses with read-only arrays, so the
constructor's checks (width, finiteness, matching stats) hold while nobody
else holds those arrays. `encode`, `fit_stats`, `standardize` and
`destandardize` hand over fresh ones; a writable array given to a
constructor is copied once (`bvh._frozen`). A clip also keeps the rows
that the loss terms derive from its features, in its private
`_derived_rows`, which a new clip starts without.
"""

import enum
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _rotmat, dualquat, quat
from .bvh import Skeleton, _frozen, _read_only, finite_rate
from .errors import (
    InvalidValueError,
    NonFiniteError,
    NotInvertibleError,
    ShapeMismatchError,
    TooFewFramesError,
)
from .kinematics import LocalPose, _from_rows, _unit_rows, relative

#: Smallest standard deviation kept when fitting normalization statistics.
STD_FLOOR = 1e-8


class ReprKind(enum.Enum):
    POSITIONS = "positions"
    QUATERNIONS = "quaternions"
    ORTHO6D = "ortho6d"
    QUATERNIONS_POSITIONS = "quaternions_positions"
    DUALQUAT = "dualquat"
    ORTHO6D_POSITIONS = "ortho6d_positions"

    @property
    def block_dim(self) -> int:
        return _BLOCK_DIMS[self]

    @property
    def has_positions(self) -> bool:
        """Whether per-joint positions can be read off the blocks: stored,
        or the translations of the dual quaternions."""
        return not _KIND_PARTS[self].keys().isdisjoint(("positions", "dualquat"))

    @property
    def has_rotations(self) -> bool:
        return self is not ReprKind.POSITIONS

    @property
    def sign_sensitive(self) -> bool:
        """Kinds whose blocks carry an antipodal sign (q and -q collide):
        those with a sign-corrected part, quaternions or dual quaternions."""
        return not _KIND_PARTS[self].keys().isdisjoint(("quaternions", "dualquat"))


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-column mean and (floored) standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen(np.reshape(self.mean, -1)))
        object.__setattr__(self, "std", _frozen(np.reshape(self.std, -1)))
        if self.mean.shape != self.std.shape:
            raise ShapeMismatchError("mean and std must have the same width")
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.std)):
            raise NonFiniteError("non-finite statistics")
        if np.any(self.std <= 0.0):
            raise InvalidValueError("std must be strictly positive")

    @property
    def width(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class EncodedClip:
    """Frame-major encoded motion plus its layout metadata.

    `stats` present means the features are stored standardized with those
    statistics; decode and the non-MSE losses want raw features.
    """

    kind: ReprKind
    skeleton: Skeleton
    frame_time: float
    features: np.ndarray  # (F, 3 + D*J)
    stats: NormalizationStats | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen(self.features))
        expected = 3 + self.kind.block_dim * self.skeleton.num_encoded
        if self.features.ndim != 2 or self.features.shape[1] != expected:
            raise ShapeMismatchError(
                f"{self.kind.value} features for this skeleton must have width {expected}"
            )
        if self.features.shape[0] < 1:
            raise TooFewFramesError("need at least one frame")
        if not np.all(np.isfinite(self.features)):
            raise NonFiniteError("non-finite feature values")
        if not (self.frame_time > 0.0 and finite_rate(self.frame_time)):
            raise InvalidValueError(
                "frame_time must be positive and finite, with a finite rate 1/frame_time"
            )
        if self.stats is not None and self.stats.width != self.features.shape[1]:
            raise ShapeMismatchError("stats width does not match features")

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    @property
    def joint_count(self) -> int:
        return self.skeleton.num_encoded

    @property
    def standardized(self) -> bool:
        return self.stats is not None

    @property
    def root_translation(self) -> np.ndarray:
        return self.features[:, :3]

    def joint_blocks(self) -> np.ndarray:
        """(F, J, D) view of the per-joint blocks."""
        f = self.num_frames
        return self.features[:, 3:].reshape(f, self.joint_count, self.kind.block_dim)

    @cached_property
    def _derived_rows(self) -> dict:
        """The rows that the loss terms derive from the features (unit
        blocks, rotations in each space, positions, bones), each kept
        read-only on first use. Filled only by `losses._kept`; a clip built
        by `replace` (`standardize`, `destandardize`) or read from a
        container starts empty. True while nobody else holds the features'
        owner (`bvh._frozen`)."""
        return {}


# ---------------------------------------------------------------------------
# antipodal sign correction
# ---------------------------------------------------------------------------

def _seed_signs(first: np.ndarray) -> np.ndarray:
    """Frame-0 sign choice: +1 when a block's first nonzero component is
    positive or the block is all zero, otherwise -1 (NaN counts as nonzero)."""
    nonzero = first != 0.0
    lead = np.take_along_axis(first, np.argmax(nonzero, axis=-1)[..., None], axis=-1)[..., 0]
    return np.where((lead > 0) | ~nonzero.any(axis=-1), 1.0, -1.0)


def antipodal_correct(blocks: np.ndarray) -> np.ndarray:
    """Pick the sign of each quaternion / dual-quaternion block so that it
    is nearest (in Euclidean distance) to the previous corrected frame.

    `blocks` has shape (F, ..., D) with time first. Equivalent condition:
    after correction every consecutive dot product is >= 0. Frame 0 uses
    the deterministic seed rule above. Sign flips never change the rigid
    transform a block encodes.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.shape[0] == 0:
        raise TooFewFramesError("antipodal correction needs at least one frame")
    steps = np.where(quat.dot(blocks[:-1], blocks[1:]) < 0, -1.0, 1.0)
    signs = np.concatenate(
        [_seed_signs(blocks[0])[None], steps], axis=0
    ).cumprod(axis=0)
    return blocks * signs[..., None]


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def _ortho6d_of_quats(quats: np.ndarray) -> np.ndarray:
    """First two columns of each rotation matrix, column-major: entry
    (r, c) goes to block column 3 c + r."""
    blocks = np.empty(quats.shape[:-1] + (6,))
    for c in range(2):
        for r in range(3):
            _rotmat.entry(quats, r, c, out=blocks[..., 3 * c + r])
    return blocks


def _sign_corrected(pose: LocalPose, indices: list) -> np.ndarray:
    return antipodal_correct(pose._rotation_rows.take(indices, axis=1).T)


def _six_value(pose: LocalPose, indices: list) -> np.ndarray:
    return _ortho6d_of_quats(pose._rotation_rows.take(indices, axis=1).T)


def _joint_positions(pose: LocalPose, indices: list) -> np.ndarray:
    return pose.positions[:, indices]


def _dual_quaternions(pose: LocalPose, indices: list) -> np.ndarray:
    # (q, 1/2 (0, p) q) from the pose's one sweep: its current rotations
    # and positions
    rotations, positions = pose._sweep
    rows = np.empty((8, len(indices)) + rotations.shape[2:])
    dualquat._from_rotation_translation_rows(rotations.take(indices, axis=1), positions[:, indices].T, rows)
    blocks = _from_rows(rows)
    del rows  # freed before the sign correction's temporaries
    return antipodal_correct(blocks)


#: The parts a block is made of: name -> (width, builder).
_PARTS = {
    "quaternions": (4, _sign_corrected),
    "ortho6d": (6, _six_value),
    "positions": (3, _joint_positions),
    "dualquat": (8, _dual_quaternions),
}

#: Per kind, its parts and the block column each starts at: the one
#: definition of each block. The rotation part starts at column 0, stored
#: positions take the last three columns.
_KIND_PARTS = {
    ReprKind.POSITIONS: {"positions": 0},
    ReprKind.QUATERNIONS: {"quaternions": 0},
    ReprKind.ORTHO6D: {"ortho6d": 0},
    ReprKind.QUATERNIONS_POSITIONS: {"positions": 4, "quaternions": 0},
    ReprKind.DUALQUAT: {"dualquat": 0},
    ReprKind.ORTHO6D_POSITIONS: {"positions": 6, "ortho6d": 0},
}

_BLOCK_DIMS = {kind: sum(_PARTS[name][0] for name in parts) for kind, parts in _KIND_PARTS.items()}


def encode(pose: LocalPose, kind: ReprKind, frame_time: float = 1.0 / 30.0) -> EncodedClip:
    """Encode a batched LocalPose under the requested representation.

    Each part of the kind's block (`_KIND_PARTS`) goes to its columns.
    Every part reads the pose's checked unit rotations, so every kind
    raises what `positions` raises. The positions and dual quaternions
    read the pose's one forward sweep (`LocalPose.positions` and the
    current rotations kept beside them), so encoding a pose under several
    kinds sweeps the hierarchy once, and a slice of a swept pose not at
    all. Each part is built once per pose: the first encode that builds
    one keeps it as a read-only view into the features of the clip it
    returns, and a later encode of the same pose copies it from there. A
    slice of the pose starts with none of them (its sign correction
    seeds at its own first frame), and an encode that raises keeps
    nothing. A `kind` that is not a `ReprKind` raises InvalidValueError.
    """
    if not isinstance(kind, ReprKind):
        raise InvalidValueError(f"kind must be a ReprKind, not {kind!r}")
    frames = len(pose)
    skeleton = pose.skeleton
    indices = list(skeleton.encoded_indices)
    features = np.empty((frames, 3 + kind.block_dim * skeleton.num_encoded))
    features[:, :3] = pose.root_translation
    blocks = features[:, 3:].reshape(frames, skeleton.num_encoded, kind.block_dim)
    kept = pose._encoded_parts
    parts = _KIND_PARTS[kind].items()
    for name, start in parts:
        width, build = _PARTS[name]
        part = kept.get(name)
        blocks[..., start:start + width] = build(pose, indices) if part is None else part

    clip = EncodedClip(kind=kind, skeleton=skeleton, frame_time=frame_time, features=_read_only(features))
    held = clip.joint_blocks()
    for name, start in parts:
        kept.setdefault(name, held[..., start:start + _PARTS[name][0]])
    return clip


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

#: Shepperd's candidates in rows of the table that `_ortho6d_to_quats`
#: builds: line n below lists where the four components of candidate n,
#: 4 q_n (w, x, y, z), sit, so component c of it is row _SHEPPERD_ROWS[c, n].
_SHEPPERD_ROWS = np.array([
    [0, 4, 5, 6],
    [4, 1, 7, 8],
    [5, 7, 2, 9],
    [6, 8, 9, 3],
]).T


def _ortho6d_to_quats(blocks: np.ndarray) -> np.ndarray:
    """Unit quaternions (..., 4) of the six-value blocks in blocks[..., :6].

    Gram-Schmidt makes the columns x, y of an orthonormal matrix from the
    two three-vectors of each block, and z = x cross y; Shepperd's method
    then divides candidate n (4 q_n q) by 4 q_n, for the n picked per
    element: 0 where the trace is positive, else the largest diagonal
    entry, ties to the later one. No matrix is built: each entry and sum
    keeps the terms, in order, of the whole-matrix form, so the bits are
    those of Shepperd's method on the Gram-Schmidt matrix.
    """
    blocks = np.asarray(blocks, dtype=float)
    shape = blocks.shape[:-1]
    # One component-major copy: every later pass reads contiguous rows.
    a, b = quat._rows(blocks[..., :6], shape).reshape(2, 3, -1)
    x = a / quat._unit_norms(a, "degenerate first column in six-value block")
    along = quat._row_dot(x, b)
    along += 0.0  # np.sum starts from +0.0: a sum of -0.0 terms is +0.0
    b = b - along * x
    y = b / quat._unit_norms(b, "six-value block columns are collinear")
    z = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])

    # The matrix has columns x, y, z. Rows 0..3 of `table` are the four
    # candidates for 4 q_n q_n, rows 4..9 sums and differences of
    # off-diagonal entries.
    m00, m11, m22 = x[0], y[1], z[2]
    table = np.empty((10,) + m00.shape)
    np.add(1.0 + m00 + m11, m22, out=table[0])
    np.subtract(1.0 + m00 - m11, m22, out=table[1])
    np.subtract(1.0 - m00 + m11, m22, out=table[2])
    np.add(1.0 - m00 - m11, m22, out=table[3])
    np.subtract(y[2], z[1], out=table[4])  # m21 - m12
    np.subtract(z[0], x[2], out=table[5])  # m02 - m20
    np.subtract(x[1], y[0], out=table[6])  # m10 - m01
    np.add(y[0], x[1], out=table[7])  # m01 + m10
    np.add(z[0], x[2], out=table[8])  # m02 + m20
    np.add(z[1], y[2], out=table[9])  # m12 + m21

    # Branch n as integer arithmetic on the three tests, then each value
    # gathered from its table row: no branching per element.
    branch = 3 - (m11 > m22)
    branch -= ((m00 > m11) & (m00 > m22)) * (branch - 1)
    branch *= ~(m00 + m11 + m22 > 0.0)
    size = m00.size
    cells = np.arange(size)
    flat = table.reshape(-1)
    lead = flat[branch * size + cells]
    q = np.empty((4, size))
    for c in range(4):
        q[c] = flat[_SHEPPERD_ROWS[c][branch] * size + cells]
    q /= 2.0 * np.sqrt(lead)
    q /= quat.norm(q.T)
    return np.ascontiguousarray(q.T).reshape(shape + (4,))


def decode(clip: EncodedClip) -> LocalPose:
    """Recover the batched local pose; the inverse of encode for
    rotation-bearing kinds.

    Positions alone cannot be inverted (limb roll is unobservable), so the
    positions kind raises NotInvertibleError. Standardized clips must be
    destandardized first. A rotation block whose norm is under the 1e-12
    floor raises DegenerateNormError, one whose squared norm overflows
    NonFiniteError.
    """
    if clip.standardized:
        raise InvalidValueError("clip is standardized; call destandardize first")
    if clip.kind is ReprKind.POSITIONS:
        raise NotInvertibleError("positions carry no rotations to decode")

    skeleton = clip.skeleton
    blocks = clip.joint_blocks()  # the rotation part starts at column 0
    parts = _KIND_PARTS[clip.kind]
    if "dualquat" in parts:
        # Local rotations fall out of parent-conjugate products
        # (`relative` on rows); offsets come from the skeleton.
        current = _unit_rows(blocks[..., :4])
        quats = _from_rows(relative(skeleton.encoded_parents, current))
    elif "quaternions" in parts:
        quats = quat.normalize(blocks[..., :4])
    else:  # "ortho6d"
        quats = _ortho6d_to_quats(blocks)

    rotations = np.zeros((clip.num_frames, skeleton.num_joints, 4))
    rotations[..., 0] = 1.0  # end sites stay at identity
    rotations[:, list(skeleton.encoded_indices)] = quats
    return LocalPose(skeleton, _read_only(clip.root_translation.copy()), _read_only(rotations))


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def fit_stats(clip: EncodedClip) -> NormalizationStats:
    """Column means and population standard deviations, std floored."""
    if clip.num_frames < 2:
        raise TooFewFramesError("need at least 2 frames to fit statistics")
    mean = clip.features.mean(axis=0)
    std = np.maximum(clip.features.std(axis=0), STD_FLOOR)
    return NormalizationStats(mean=_read_only(mean), std=_read_only(std))


def standardize(clip: EncodedClip, stats: NormalizationStats) -> EncodedClip:
    """Affine map (x - mean) / std; the result carries the stats."""
    if stats.width != clip.width:
        raise ShapeMismatchError(
            f"stats width {stats.width} does not match clip width {clip.width}"
        )
    return replace(clip, features=_read_only((clip.features - stats.mean) / stats.std), stats=stats)


def destandardize(clip: EncodedClip) -> EncodedClip:
    """Exact inverse of standardize with the stats the clip carries; the
    result carries no stats."""
    stats = clip.stats
    if stats is None:
        raise InvalidValueError("clip carries no stats")
    return replace(clip, features=_read_only(clip.features * stats.std + stats.mean), stats=None)
