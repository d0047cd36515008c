"""Training losses between encoded clips, with closed-form gradients.

Five losses compare a predicted clip against ground truth (or, for the
offset and regularization terms, against the skeleton / the unit
conditions alone). Reduction convention, applied uniformly: mean over
joint blocks, then mean over frames; the MSE additionally averages over
the block components. The three root-translation columns never enter a
loss; the root displacement is modeled as a separate signal.

Each term is written once, as one entry of the table `_TERMS`: the kinds
it applies to, its input checks, where its kink lies, and one function
that returns the term's per-(frame, joint) values together with the
gradient of their mean with respect to the predicted feature matrix. The
`loss_*` functions, `loss_total` and `grad_check` all read that table.
The gradients are closed forms batched over frames, built from the
forward pass's own intermediates, with no per-(frame, joint) Jacobian
matrices. Forward passes and gradients work on the (C, J, F) rows of
`kinematics`. The rows a term reads are derived once per clip and kept on
it, read-only, in `EncodedClip._derived_rows`: a dualquat clip's blocks
normalized once (`_unit_rows`, whose real part and norms the rotational
terms read too), the rotation rows of the other kinds and their norms,
the rotations in each space (one `kinematics.compose` or `relative`
sweep), the positions and a dualquat prediction's bones. Only the
builders decorated with `_kept` derive them, so a loss and its gradient
on the same clips, or a truth clip scored again, reuse them; a build that
raises keeps nothing. Every distance, product and VJP after that is a
whole-row operation. Every Hamilton product runs through the one kernel
`quat._products`: through `kinematics._mul_rows`, whose tables fold in
the conjugates that the reverse sweeps multiply by, or on
`_translation_vjp`'s table, which skips the zero real row of its pure
left operand. The reverse sweeps live here (`_relative_vjp` is the one
adjoint of `relative`); a parent scatter adds one child rank at a time,
in `np.add.at`'s order.

`grad_check` verifies the gradients against central finite differences
in one pass: every term's values of a frame read only that frame's
features, so bumping one feature column in all frames at once gives the
difference of every frame from the per-frame sums of the values. No term
reads the three root-translation columns, so it skips them: 2·(W − 3) + 1
evaluations in all. Its kink rule is the term's own `kink` predicate. The
tests also hold the gradients to a per-(frame, joint) loop oracle and to
the batched (F, J, .) forms they replaced, and the one-pass differences
to the per-element loop they replaced.
"""

import functools
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import dualquat, quat
from .bvh import Skeleton, _read_only
from .encoding import EncodedClip, ReprKind
from .errors import InvalidValueError, NoPositionsError, NonFiniteError, ShapeMismatchError
from .kinematics import _from_rows, _mul_rows, _to_rows, compose, relative

_ROTATIONAL_KINDS = tuple(kind for kind in ReprKind if kind.sign_sensitive)
#: Block columns of the joint position in the kinds that store one.
_POSITION_COLUMNS = slice(-3, None)

GRAD_EPS = 1e-6  # grad_check's finite-difference step


@dataclass(frozen=True)
class LossWeights:
    """Aggregation weights; defaults follow the reference configuration
    (rotational and positional at 1/3, regularizer at 0.01)."""

    mse: float = 1.0
    rotational: float = 1.0 / 3.0
    positional: float = 1.0 / 3.0
    offset: float = 1.0
    regularization: float = 0.01

    def __post_init__(self):
        for weight in fields(self):
            value = getattr(self, weight.name)
            if not isinstance(value, numbers.Real) or not np.isfinite(value) or value < 0:
                raise InvalidValueError(f"weight {weight.name} must be a finite, non-negative number")

    _ALIASES = {
        "mse": "mse",
        "quat": "rotational",
        "rotational": "rotational",
        "pos": "positional",
        "positional": "positional",
        "offset": "offset",
        "reg": "regularization",
        "regularization": "regularization",
    }

    @classmethod
    def from_mapping(cls, mapping) -> "LossWeights":
        """Build weights from e.g. {"reg": 0.01, "pos": 0.5}; unknown keys
        raise, and so do two keys that name one weight ("quat", "rotational")."""
        kwargs = {}
        for key, value in mapping.items():
            if key not in cls._ALIASES:
                raise InvalidValueError(f"unknown loss weight {key!r}")
            if cls._ALIASES[key] in kwargs:
                raise InvalidValueError(f"loss weight {cls._ALIASES[key]!r} is given more than once")
            try:
                kwargs[cls._ALIASES[key]] = float(value)
            except (TypeError, ValueError):
                raise InvalidValueError(f"loss weight {key!r} must be a number, not {value!r}") from None
        return cls(**kwargs)


@dataclass
class LossReport:
    """All loss components of one comparison; inapplicable ones are None."""

    kind: str
    rotation_space: str
    standardized_inputs: bool
    weights: LossWeights
    mse: float | None = None
    rotational: float | None = None
    rotational_raw: float | None = None
    positional: float | None = None
    offset: float | None = None
    regularization: float | None = None
    weighted_total: float = 0.0
    per_joint: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = []
        for name in ("mse", "rotational", "rotational_raw", "positional", "offset", "regularization"):
            value = getattr(self, name)
            lines.append(f"{name} = {'n/a' if value is None else format(value, '.12g')}")
        lines.append(f"weighted_total = {self.weighted_total:.12g}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _check_space(space: str):
    if space not in ("local", "current"):
        raise InvalidValueError(f"space must be 'local' or 'current', got {space!r}")


def _mean(values: np.ndarray) -> float:
    """Mean of a per-(frame, joint) term; 0.0 for a term with no joints."""
    return float(np.mean(values)) if values.size else 0.0


def _kept(build):
    """`build(clip, *args)` run once per clip and arguments: the rows it
    derives from the clip's features are made read-only and kept in the
    clip's memo, `EncodedClip._derived_rows`, which only this helper fills.
    A build that raises keeps nothing, so the next call raises again."""

    @functools.wraps(build)
    def derived(clip: EncodedClip, *args):
        memo = clip._derived_rows
        key = (build.__name__,) + args
        if key not in memo:
            value = build(clip, *args)
            for array in value if isinstance(value, tuple) else (value,):
                _read_only(array)
            memo[key] = value
        return memo[key]

    return derived


class _UnitRows(NamedTuple):
    """The normalized blocks of a dualquat clip, as (8, J, F) rows, with
    the (J, F) norms of their real parts and the projections of their dual
    parts along them (the two scalars of `dualquat.normalize`)."""

    rows: np.ndarray
    norm: np.ndarray
    along: np.ndarray


@_kept
def _unit_rows(clip: EncodedClip) -> _UnitRows:
    raw = _to_rows(clip.joint_blocks())
    rows = np.empty(raw.shape)
    return _UnitRows(rows, *dualquat._normalize_rows(raw, rows))


@_kept
def _rotation_rows(clip: EncodedClip) -> tuple:
    """(4, J, F) rows of the normalized rotation part at column 0 and
    their (J, F) norms, `quat.normalize` and `quat.norm` bit for bit: a
    dualquat clip's unit rows' real part and norms, or the rows of the
    other kinds divided in place by their one `quat._unit_norms`."""
    if clip.kind is ReprKind.DUALQUAT:
        unit = _unit_rows(clip)
        return unit.rows[:4], unit.norm
    rows = _to_rows(clip.joint_blocks()[..., :4])
    norm = quat._unit_norms(rows)
    rows /= norm
    return rows, norm


@_kept
def _in_space(clip: EncodedClip, space: str) -> np.ndarray:
    """The (4, J, F) `_rotation_rows` of `clip` in `space`: the rows
    themselves, or one `compose` or `relative` sweep."""
    rows = _rotation_rows(clip)[0]
    # dual-quaternion real parts are current (root-relative) rotations,
    # quaternion-valued blocks hold local ones
    if (clip.kind is ReprKind.DUALQUAT) == (space == "current"):
        return rows
    if space == "local":
        return relative(clip.skeleton.encoded_parents, rows)
    return compose(clip.skeleton.encoded_levels, rows)


@_kept
def _position_rows(clip: EncodedClip) -> np.ndarray:
    """(3, J, F) rows of the per-joint positions read off the representation."""
    if clip.kind is ReprKind.DUALQUAT:
        return dualquat._translation_rows(_unit_rows(clip).rows)
    if clip.kind.has_positions:
        return _to_rows(clip.joint_blocks()[..., _POSITION_COLUMNS])
    raise NoPositionsError(f"kind {clip.kind.value} carries no positions")


class _Bones(NamedTuple):
    """Each non-root joint's transform relative to its parent's, as
    (8, J-1, F) rows, and their (3, J-1, F) translations."""

    rows: np.ndarray
    translations: np.ndarray


@_kept
def _bone_rows(clip: EncodedClip) -> _Bones:
    """The bones of a dualquat clip: `relative` of its unit rows without
    the root, and their translations (with their unit check)."""
    rows = relative(clip.skeleton.encoded_parents, _unit_rows(clip).rows)[:, 1:]
    return _Bones(rows, dualquat._translation_rows(rows))


# ---------------------------------------------------------------------------
# gradient building blocks
# ---------------------------------------------------------------------------
# Every gradient is a closed form on component-major (C, J, F) rows, one
# row per block component, read from the clip's kept rows; no arithmetic
# runs over a short component axis. A Jacobian-transpose product M.T @ v
# becomes a Hamilton product on rows, using L(q).T = L(q*) and
# R(q).T = R(q*) for the matrices of q x and x q. A parent scatter adds
# the children's rows one child rank at a time
# (`Skeleton._encoded_child_ranks`), in `np.add.at`'s order. The quaternion
# kinds' current-space rotational gradient walks the skeleton's depth
# levels in reverse, the same levels `compose` walks forward.

def _add_to_parents(bar: np.ndarray, groups: tuple, children: np.ndarray) -> None:
    """bar[:, parent] += children[:, position] for every child, one rank
    group at a time: np.add.at's sums, bit for bit."""
    for positions, parents in groups:
        bar[:, parents] += children[:, positions]


def _relative_vjp(bar: np.ndarray, y: np.ndarray, skeleton: Skeleton, rows: np.ndarray) -> None:
    """y, the gradient w.r.t. the non-root rows of `relative` of `rows`,
    into `bar`, which y must not overlap: bar[:, 1:] = p y and
    bar[:, p] += c y* per child row c of parent row p. For C = 8 both
    products swap the real and dual rows: the transposed Jacobians of
    x -> a x and x -> x b map v to swap(a* swap(v)) and swap(swap(v) b*)."""
    _mul_rows(rows.take(skeleton.encoded_parents[1:], axis=1), y, bar[:, 1:], swap=True)
    to_parent = _mul_rows(rows[:, 1:], y, swap=True, conjugate="b")
    _add_to_parents(bar, skeleton._encoded_child_ranks[0], to_parent)


def _normalize_vjp(unit: np.ndarray, norm: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(4, ...) rows g through the Jacobian (I - r^ r^T) / |r| of r -> r / |r|,
    at the point whose normalization is `unit` and norm is `norm`."""
    return (g - unit * quat._row_dot(unit, g)) / norm


def _dq_normalize_vjp(unit: _UnitRows, g: np.ndarray) -> np.ndarray:
    """(8, ...) rows g through the Jacobian of dualquat.normalize.

    With n the real part's norm, k the projection of the dual part along
    it and (r^, e^) the normalized value, the transposed Jacobian maps g
    to ((g_r - r^ (<r^, g_r> + <e^, g_e> - k a) - e^ a - k g_e) / n,
    (g_e - r^ a) / n), where a = <r^, g_e>.
    """
    r, e = unit.rows[:4], unit.rows[4:]
    g_r, g_e = g[:4], g[4:]
    a = quat._row_dot(r, g_e)
    out = np.empty(g.shape)
    out[:4] = g_r - r * (quat._row_dot(r, g_r) + quat._row_dot(e, g_e) - unit.along * a)
    out[:4] -= e * a + unit.along * g_e
    out[4:] = g_e - r * a
    out /= unit.norm
    return out


#: The products u~ m_d and u~ m_r of `_translation_vjp`, without the
#: terms of u~'s zero real row.
_TRANSLATION_VJP_TERMS = quat._product_terms([(k, 0, b) for b in (4, 0) for k in range(4)], 3,
                                             a_parts=(None, 0, 1, 2))


def _translation_vjp(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(3, ...) rows u through the Jacobian of the translation
    2 vec(m_d m_r*) of the (8, ...) rows m.

    With u~ = (0, u): the real part is 2 (m_d* u~)* = -2 u~ m_d, since u~
    is pure, and the dual part is 2 u~ m_r.
    """
    out = np.empty((8,) + u.shape[1:])
    quat._products(_TRANSLATION_VJP_TERMS, u, m, out)
    out[:4] *= -2.0
    out[4:] *= 2.0
    return out


def _unit_directions(delta: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """(3, ...) rows delta / dist, 0 where dist is 0, divided by the number
    of distances the loss averages."""
    return delta / np.where(dist > 0, dist, 1.0) / dist.size


def _scatter(rows: np.ndarray, clip: EncodedClip, columns=slice(None)) -> np.ndarray:
    """(C, J, F) rows of block gradients into the `columns` of every joint
    block of a (F, W) feature gradient that is zero elsewhere."""
    out = np.zeros((clip.num_frames, clip.width))
    blocks = out[:, 3:].reshape(clip.num_frames, clip.joint_count, clip.kind.block_dim)
    blocks[..., columns].transpose(2, 1, 0)[...] = rows
    return out


# ---------------------------------------------------------------------------
# the terms
# ---------------------------------------------------------------------------
# Each term maps (pred, truth, skeleton) to an `_Evaluation`. The public
# losses, loss_total and grad_check's kink test all reduce its values.

class _Evaluation(NamedTuple):
    """One term at one point."""

    values: np.ndarray  # per (frame, joint)
    grad: Callable[[], np.ndarray]  # of the values' mean w.r.t. pred.features
    unaligned: np.ndarray | None = None  # rotational terms: before sign alignment


def _mse(pred: EncodedClip, truth: EncodedClip, skeleton) -> _Evaluation:
    diff = pred.joint_blocks() - truth.joint_blocks()
    return _Evaluation(
        quat.dot(diff, diff) / diff.shape[-1],
        lambda: _scatter((2.0 * diff / diff.size).transpose(2, 1, 0), pred),
    )


def _rotational(space: str):
    """The term 1 - |<q, q~>| on unit rotations in `space`."""

    def evaluate(pred: EncodedClip, truth: EncodedClip, skeleton) -> _Evaluation:
        rows, norm = _rotation_rows(pred)
        q_pred = _in_space(pred, space)
        q_truth = _in_space(truth, space)
        dots = _from_rows(quat._row_dot(q_pred, q_truth))

        def grad() -> np.ndarray:
            f, j = dots.shape
            # `bar` starts as the gradient w.r.t. q_pred and is carried back,
            # row by row, to the gradient w.r.t. the unit blocks.
            bar = -np.where(dots >= 0, 1.0, -1.0).T * q_truth
            bar /= f * j
            if pred.kind is ReprKind.DUALQUAT and space == "local":
                # q_pred = relative(parents, rows)
                _relative_vjp(bar, bar[:, 1:].copy(), pred.skeleton, rows)
            elif pred.kind is not ReprKind.DUALQUAT and space == "current":
                # Reverse sweep: each current rotation feeds all its
                # descendants, and a level's upstream is complete once every
                # deeper level is done.
                levels = zip(pred.skeleton.encoded_levels, pred.skeleton._encoded_child_ranks[1])
                for (level, parent_rows), groups in reversed(list(levels)):
                    children = bar.take(level, axis=1)
                    to_parent = _mul_rows(children, rows.take(level, axis=1), conjugate="b")
                    bar[:, level] = _mul_rows(q_pred.take(parent_rows, axis=1), children, conjugate="a")
                    _add_to_parents(bar, groups, to_parent)
            return _scatter(_normalize_vjp(rows, norm, bar), pred, slice(0, 4))

        return _Evaluation(1.0 - np.abs(dots), grad, unaligned=1.0 - dots)

    return evaluate


def _positional(pred: EncodedClip, truth: EncodedClip, skeleton) -> _Evaluation:
    delta = _position_rows(pred) - _position_rows(truth)
    dist = quat._row_norm(delta)

    def grad() -> np.ndarray:
        directions = _unit_directions(delta, dist)
        if pred.kind is ReprKind.DUALQUAT:  # chain through normalization and translation
            unit = _unit_rows(pred)
            return _scatter(_dq_normalize_vjp(unit, _translation_vjp(unit.rows, directions)), pred)
        return _scatter(directions, pred, _POSITION_COLUMNS)

    return _Evaluation(_from_rows(dist), grad)


def _offset(pred: EncodedClip, truth, skeleton: Skeleton) -> _Evaluation:
    """Bone-offset violations, (F, J-1): no columns for a root-only skeleton."""
    # local = n_p* n for every non-root row n with parent n_p
    local, translations = _bone_rows(pred)
    expected = skeleton.offsets[list(skeleton.encoded_indices[1:])].T[..., None]
    delta = translations - expected
    dist = quat._row_norm(delta)

    def grad() -> np.ndarray:
        unit = _unit_rows(pred)
        v = _translation_vjp(local, _unit_directions(delta, dist))
        bar = np.zeros(unit.rows.shape)
        _relative_vjp(bar, v, pred.skeleton, unit.rows)
        return _scatter(_dq_normalize_vjp(unit, bar), pred)

    return _Evaluation(_from_rows(dist), grad)


def _regularization(pred: EncodedClip, truth, skeleton) -> _Evaluation:
    """Squared unit-condition residuals of the blocks as stored."""
    blocks = pred.joint_blocks()
    norm_res, ortho_res = dualquat.unitary_residual(blocks)

    def grad() -> np.ndarray:
        f, j, _ = blocks.shape
        grad = np.empty_like(blocks)
        grad[..., :4] = (
            4.0 * norm_res[..., None] * blocks[..., :4]
            + 2.0 * ortho_res[..., None] * blocks[..., 4:]
        )
        grad[..., 4:] = 2.0 * ortho_res[..., None] * blocks[..., :4]
        return _scatter((grad / (f * j)).transpose(2, 1, 0), pred)

    return _Evaluation(norm_res**2 + ortho_res**2, grad)


def _no_kink(values: np.ndarray) -> bool:
    return False


def _near_sign_tie(values: np.ndarray) -> bool:
    """1 - |<q, q~>| close to 1: the sign alignment is about to flip."""
    return bool(np.max(values) > 1.0 - 1e-3)


def _near_zero_distance(values: np.ndarray) -> bool:
    return bool(np.min(values, initial=np.inf) < 1e-9)


@dataclass(frozen=True)
class _Term:
    """Everything about one loss term that its callers read."""

    evaluate: Callable[..., _Evaluation]  # (pred, truth, skeleton)
    component: str  # the LossReport component it fills, and its LossWeights weight
    kinds: tuple
    pair: bool = True  # compares pred with truth; False: reads pred alone
    accepts_standardized: bool = False
    space: str | None = None  # rotation space of a rotational term
    kink: Callable[[np.ndarray], bool] = _no_kink  # values near a kink


_TERMS = {
    "mse": _Term(_mse, "mse", tuple(ReprKind), accepts_standardized=True),
    "rotational_local": _Term(
        _rotational("local"), "rotational", _ROTATIONAL_KINDS, space="local", kink=_near_sign_tie
    ),
    "rotational_current": _Term(
        _rotational("current"), "rotational", _ROTATIONAL_KINDS, space="current", kink=_near_sign_tie
    ),
    "positional": _Term(
        _positional, "positional", tuple(k for k in ReprKind if k.has_positions),
        kink=_near_zero_distance,
    ),
    "offset": _Term(_offset, "offset", (ReprKind.DUALQUAT,), pair=False, kink=_near_zero_distance),
    "regularization": _Term(_regularization, "regularization", (ReprKind.DUALQUAT,), pair=False),
}
GRAD_LOSSES = tuple(_TERMS)


def _evaluate(name: str, pred: EncodedClip, truth: EncodedClip | None, truth_skeleton=None) -> _Evaluation:
    """Term `name` at pred, after the one copy of the input checks (pair,
    skeleton, kind, raw features) that its loss, `loss_total` and its
    gradient share.

    The skeleton the offset term scores against is `truth_skeleton` when
    given, else truth's, else pred's. Unless it is pred's own, its topology
    must match pred's, whatever the term; so must a pair term's truth
    clip's, whether `truth_skeleton` is given or not.
    """
    if name not in _TERMS:
        raise InvalidValueError(f"unknown loss {name!r}; expected one of {GRAD_LOSSES}")
    term = _TERMS[name]
    if term.pair and truth is None:
        raise InvalidValueError(f"{name} loss compares pred with truth; truth is None")
    skeleton = truth_skeleton or (pred if truth is None else truth).skeleton
    for other in (skeleton, truth.skeleton) if term.pair else (skeleton,):
        if other is not pred.skeleton and not np.array_equal(
                other.encoded_parents, pred.skeleton.encoded_parents):
            raise ShapeMismatchError("skeleton topology differs from the clip's")
    if term.pair and pred.kind is not truth.kind:
        raise ShapeMismatchError(f"kind mismatch: {pred.kind.value} vs {truth.kind.value}")
    if term.pair and (pred.width != truth.width or pred.num_frames != truth.num_frames):
        raise ShapeMismatchError("feature shapes differ")
    if pred.kind not in term.kinds:
        raise ShapeMismatchError(f"{name} loss is undefined for kind {pred.kind.value}")
    clips = (pred, truth) if term.pair else (pred,)
    if not term.accepts_standardized and any(clip.standardized for clip in clips):
        raise InvalidValueError("loss needs raw features; destandardize the clip first")
    if term.pair and not _same_stats(pred.stats, truth.stats):
        raise InvalidValueError(f"{name} loss compares features standardized with different stats")
    evaluation = term.evaluate(pred, truth, skeleton)
    if not np.isfinite(evaluation.values).all():
        raise NonFiniteError(f"{name} loss overflows: values too large for float64")
    return evaluation


def _same_stats(a, b) -> bool:
    """Both clips raw, or both standardized with one mean and std."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)


def _loss_value(name: str, pred: EncodedClip, truth: EncodedClip | None, truth_skeleton=None) -> float:
    return _mean(_evaluate(name, pred, truth, truth_skeleton).values)


def _analytic_gradient(name: str, pred: EncodedClip, truth: EncodedClip, truth_skeleton):
    """Gradient of loss `name` w.r.t. pred.features, after the loss's own
    input checks."""
    return _evaluate(name, pred, truth, truth_skeleton).grad()


# ---------------------------------------------------------------------------
# the losses
# ---------------------------------------------------------------------------

def loss_mse(pred: EncodedClip, truth: EncodedClip) -> float:
    """Mean squared error over the per-joint blocks."""
    return _loss_value("mse", pred, truth)


def loss_rotational(pred: EncodedClip, truth: EncodedClip, space: str = "local") -> float:
    """1 - <q, q~> on unit rotations, sign-aligned; mean over joints/frames.

    `space` selects local (parent-relative, recovered through the
    hierarchy for the dualquat kind) or current (root-relative) rotations.
    """
    _check_space(space)
    return _loss_value(f"rotational_{space}", pred, truth)


def loss_positional(pred: EncodedClip, truth: EncodedClip) -> float:
    """Mean Euclidean distance between represented joint positions."""
    return _loss_value("positional", pred, truth)


def loss_offset(pred: EncodedClip, truth_skeleton: Skeleton | None = None) -> float:
    """Mean violation of the bone offsets of `truth_skeleton` (default:
    pred's own; see `_evaluate`), non-root joints.

    A skeleton whose only encoded joint is the root has no bones, and the
    term is 0.
    """
    return _loss_value("offset", pred, None, truth_skeleton)


def loss_regularization(pred: EncodedClip) -> float:
    """Squared unit-condition residuals of the raw blocks.

    Computed on the blocks as stored, prior to any normalization: the
    term exists precisely to penalize drift off the unit manifold.
    """
    return _loss_value("regularization", pred, None)


def loss_total(
    pred: EncodedClip,
    truth: EncodedClip,
    weights: LossWeights | None = None,
    rotation_space: str = "local",
    truth_skeleton: Skeleton | None = None,
) -> LossReport:
    """Weighted sum of every component applicable to the clips' kind, each
    term evaluated through `_evaluate`, which holds the input checks and
    resolves `truth_skeleton`."""
    _check_space(rotation_space)
    if truth is None:
        raise InvalidValueError("loss_total compares pred with truth; truth is None")
    if weights is None:
        weights = LossWeights()
    elif not isinstance(weights, LossWeights):
        raise InvalidValueError(
            f"weights must be a LossWeights, not {type(weights).__name__}; "
            "build one with LossWeights.from_mapping")
    report = LossReport(
        kind=pred.kind.value,
        rotation_space=rotation_space,
        standardized_inputs=pred.standardized or truth.standardized,
        weights=weights,
    )
    total = 0.0
    for name, term in _TERMS.items():
        if pred.kind not in term.kinds or term.space not in (None, rotation_space):
            continue
        evaluation = _evaluate(name, pred, truth, truth_skeleton)
        value = _mean(evaluation.values)
        setattr(report, term.component, value)
        report.per_joint[term.component] = np.mean(evaluation.values, axis=0).tolist()
        total += getattr(weights, term.component) * value
        if evaluation.unaligned is not None:
            report.rotational_raw = _mean(evaluation.unaligned)
    report.weighted_total = float(total)
    return report


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GradCheckResult:
    max_relative_deviation: float
    nondifferentiable: bool
    analytic: np.ndarray
    numeric: np.ndarray


def grad_check(
    name: str,
    pred: EncodedClip,
    truth: EncodedClip,
    truth_skeleton: Skeleton | None = None,
) -> GradCheckResult:
    """Compare the analytic gradient against central finite differences.

    One pass at the step GRAD_EPS, 2·(W − 3) + 1 evaluations: each joint
    column is bumped by ±GRAD_EPS in every frame at once, and a frame's
    difference is taken from that frame's sum of the term's values. That
    is exact because each term's per-(frame, joint) values read only their
    own frame's features. A point near the term's kink (antipodal sign
    ties, zero distances) is marked non-differentiable rather than
    raising. The reported deviation is the largest componentwise
    difference relative to the gradient magnitude. `truth_skeleton` goes
    to `_evaluate` as given.
    """
    evaluation = _evaluate(name, pred, truth, truth_skeleton)
    analytic = evaluation.grad()

    # no term reads the root-translation columns 0..2; they stay zero
    numeric = np.zeros(pred.features.shape)
    for column in range(3, pred.width):
        frame_sums = []
        for step in (GRAD_EPS, -GRAD_EPS):
            features = pred.features.copy()
            features[:, column] += step
            bumped = replace(pred, features=_read_only(features))
            values = _evaluate(name, bumped, truth, truth_skeleton).values
            frame_sums.append(values.sum(axis=1))
        # a term with no values (offset on a root-only skeleton) has a zero sum
        numeric[:, column] = (frame_sums[0] - frame_sums[1]) / (2.0 * GRAD_EPS * max(values.size, 1))

    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return GradCheckResult(
        max_relative_deviation=float(np.max(np.abs(analytic - numeric)) / scale),
        nondifferentiable=_TERMS[name].kink(evaluation.values),
        analytic=analytic,
        numeric=numeric,
    )
