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
forward pass's own intermediates: Hamilton products on whole (F, J, .)
arrays, with no per-(frame, joint) Jacobian matrices. `grad_check`
verifies them against central finite differences, and the tests also
hold them to a per-(frame, joint) loop oracle.
"""

import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import dualquat, quat
from .bvh import Skeleton, _read_only
from .encoding import EncodedClip, ReprKind
from .errors import InvalidValueError, NoPositionsError, ShapeMismatchError
from .kinematics import compose, relative

_ROTATIONAL_KINDS = (ReprKind.DUALQUAT, ReprKind.QUATERNIONS, ReprKind.QUATERNIONS_POSITIONS)
#: Block columns of the joint position in the kinds that store one.
_POSITION_COLUMNS = slice(-3, None)

GRAD_EPS_LADDER = (1e-4, 1e-5, 1e-6)


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


def _rotation_quats(clip: EncodedClip, space: str) -> np.ndarray:
    """(F, J, 4) rotations in the requested space for a rotational kind."""
    return _in_space(clip, quat.normalize(clip.joint_blocks()[..., :4]), space)


def _in_space(clip: EncodedClip, rotations: np.ndarray, space: str) -> np.ndarray:
    """The normalized rotation blocks `rotations` of `clip` in `space`."""
    # dual-quaternion real parts are current (root-relative) rotations,
    # quaternion-valued blocks hold local ones
    if (clip.kind is ReprKind.DUALQUAT) == (space == "current"):
        return rotations
    if space == "local":
        return relative(clip.skeleton.encoded_parents, rotations, quat.mul, quat.conjugate)
    return compose(clip.skeleton.encoded_levels, rotations, quat.mul)


def _positions(clip: EncodedClip) -> np.ndarray:
    """(F, J, 3) per-joint positions read off the representation."""
    blocks = clip.joint_blocks()
    if clip.kind is ReprKind.DUALQUAT:
        return dualquat.translation(dualquat.normalize(blocks))
    if clip.kind.has_positions:
        return blocks[..., _POSITION_COLUMNS]
    raise NoPositionsError(f"kind {clip.kind.value} carries no positions")


def _offset_errors(clip: EncodedClip, skeleton: Skeleton):
    """Offset errors of the non-root joints of a dualquat clip.

    Returns the normalized (F, J, 8) blocks, the (F, J-1, 8) parent-relative
    transforms of the non-root joints, and their (F, J-1, 3) translations
    minus the bone offsets of `skeleton`.
    """
    current = dualquat.normalize(clip.joint_blocks())
    local = relative(clip.skeleton.encoded_parents, current, dualquat.mul, dualquat.conjugate)[:, 1:]
    expected = skeleton.offsets[list(skeleton.encoded_indices[1:])]
    return current, local, dualquat.translation(local) - expected


# ---------------------------------------------------------------------------
# gradient building blocks
# ---------------------------------------------------------------------------
# Every gradient is a closed form over the whole (F, J, .) block array. A
# Jacobian-transpose product M.T @ v becomes a Hamilton product, using
# L(q).T = L(q*) and R(q).T = R(q*) for the matrices of q x and x q. The
# quaternion kinds' current-space rotational gradient walks the skeleton's
# depth levels in reverse, the same levels `compose` walks forward.

def _swap(d: np.ndarray) -> np.ndarray:
    """Exchange the real and dual halves of a dual quaternion."""
    return np.concatenate([d[..., 4:], d[..., :4]], axis=-1)


def _normalize_vjp(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g through the Jacobian (I - r^ r^T) / |r| of r -> r / |r|."""
    n = quat.norm(r)[..., None]
    r_hat = r / n
    return (g - r_hat * quat.dot(r_hat, g)[..., None]) / n


def _dq_normalize_vjp(d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g through the Jacobian of dualquat.normalize at d.

    The Jacobian is [[A, 0], [B, A]] with symmetric blocks
    A = (I - r^ r^T) / n and B = -(e r^T + r e^T + k I) / n^3 + 3k r r^T / n^5,
    where n = |r| and k = <r, e>; its transpose maps g to
    (A g_r + B g_e, A g_e).
    """
    r, e = d[..., :4], d[..., 4:]
    g_e = g[..., 4:]
    n = quat.norm(r)[..., None]
    k = quat.dot(r, e)[..., None]
    r_ge = quat.dot(r, g_e)[..., None]
    e_ge = quat.dot(e, g_e)[..., None]
    b_ge = -(e * r_ge + r * e_ge + k * g_e) / n**3 + 3.0 * k * r_ge * r / n**5
    return np.concatenate(
        [_normalize_vjp(r, g[..., :4]) + b_ge, _normalize_vjp(r, g_e)], axis=-1
    )


def _translation_vjp(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u (..., 3) through the Jacobian of the translation 2 vec(m_d m_r*).

    With u~ = (0, u): the real part is 2 (m_d* u~)* = -2 u~ m_d, since u~
    is pure, and the dual part is 2 u~ m_r.
    """
    u_q = np.concatenate([np.zeros(u.shape[:-1] + (1,)), u], axis=-1)
    return 2.0 * np.concatenate([quat.mul(u_q, -m[..., 4:]), quat.mul(u_q, m[..., :4])], axis=-1)


def _unit_directions(delta: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """delta / dist along the last axis, 0 where dist is 0, divided by the
    number of distances the loss averages."""
    return delta / np.where(dist > 0, dist, 1.0)[..., None] / dist.size


def _scatter(grad_blocks: np.ndarray, clip: EncodedClip) -> np.ndarray:
    """(F, J, D) block gradients into a (F, W) feature gradient."""
    out = np.zeros((clip.num_frames, clip.width))
    out[:, 3:] = grad_blocks.reshape(clip.num_frames, -1)
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
        quat.dot(diff, diff) / diff.shape[-1], lambda: _scatter(2.0 * diff / diff.size, pred)
    )


def _rotational(space: str):
    """The term 1 - |<q, q~>| on unit rotations in `space`."""

    def evaluate(pred: EncodedClip, truth: EncodedClip, skeleton) -> _Evaluation:
        blocks = pred.joint_blocks()
        unit = quat.normalize(blocks[..., :4])
        q_pred = _in_space(pred, unit, space)
        q_truth = _rotation_quats(truth, space)
        dots = quat.dot(q_pred, q_truth)

        def grad() -> np.ndarray:
            f, j, _ = blocks.shape
            # `bar` starts as the gradient w.r.t. q_pred and is carried back,
            # row by row, to the gradient w.r.t. the unit blocks.
            bar = -np.where(dots >= 0, 1.0, -1.0)[..., None] * q_truth / (f * j)
            if pred.kind is ReprKind.DUALQUAT and space == "local":
                # q_pred = u_p* u for every non-root row u with parent u_p.
                parents = pred.skeleton.encoded_parents[1:]
                to_parent = quat.mul(unit[:, 1:], quat.conjugate(bar[:, 1:]))
                bar[:, 1:] = quat.mul(unit[:, parents], bar[:, 1:])
                np.add.at(bar, (slice(None), parents), to_parent)
            elif pred.kind is not ReprKind.DUALQUAT and space == "current":
                # Reverse sweep: each current rotation feeds all its
                # descendants, and a level's upstream is complete once every
                # deeper level is done.
                for rows, parent_rows in reversed(pred.skeleton.encoded_levels):
                    to_parent = quat.mul(bar[:, rows], quat.conjugate(unit[:, rows]))
                    bar[:, rows] = quat.mul(quat.conjugate(q_pred[:, parent_rows]), bar[:, rows])
                    np.add.at(bar, (slice(None), parent_rows), to_parent)
            grad = np.zeros_like(blocks)
            grad[..., :4] = _normalize_vjp(blocks[..., :4], bar)
            return _scatter(grad, pred)

        return _Evaluation(1.0 - np.abs(dots), grad, unaligned=1.0 - dots)

    return evaluate


def _positional(pred: EncodedClip, truth: EncodedClip, skeleton) -> _Evaluation:
    delta = _positions(pred) - _positions(truth)
    dist = quat.norm(delta)

    def grad() -> np.ndarray:
        unit = _unit_directions(delta, dist)
        blocks = pred.joint_blocks()
        if pred.kind is ReprKind.DUALQUAT:  # chain through normalization and translation
            grad = _dq_normalize_vjp(blocks, _translation_vjp(dualquat.normalize(blocks), unit))
        else:
            grad = np.zeros_like(blocks)
            grad[..., _POSITION_COLUMNS] = unit
        return _scatter(grad, pred)

    return _Evaluation(dist, grad)


def _offset(pred: EncodedClip, truth, skeleton: Skeleton) -> _Evaluation:
    """Bone-offset violations, (F, J-1): no columns for a root-only skeleton."""
    normalized, local, delta = _offset_errors(pred, skeleton)
    dist = quat.norm(delta)

    def grad() -> np.ndarray:
        # local = n_p* n for every non-root row n with parent n_p. For dual
        # quaternions the transposed Jacobians of x -> a x and x -> x b map v
        # to swap(a* swap(v)) and swap(swap(v) b*), conjugating both halves.
        swapped = _swap(_translation_vjp(local, _unit_directions(delta, dist)))
        parents = pred.skeleton.encoded_parents[1:]
        grad_normalized = np.zeros_like(normalized)
        grad_normalized[:, 1:] = _swap(dualquat.mul(normalized[:, parents], swapped))
        np.add.at(
            grad_normalized,
            (slice(None), parents),
            _swap(dualquat.mul(normalized[:, 1:], dualquat.conjugate(swapped))),
        )
        return _scatter(_dq_normalize_vjp(pred.joint_blocks(), grad_normalized), pred)

    return _Evaluation(dist, grad)


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
        return _scatter(grad / (f * j), pred)

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


def _evaluate(name: str, pred: EncodedClip, truth: EncodedClip | None, skeleton=None) -> _Evaluation:
    """Term `name` at pred, after the one copy of the input checks (pair,
    kind, raw features) that its loss, `loss_total` and its gradient share."""
    if name not in _TERMS:
        raise InvalidValueError(f"unknown loss {name!r}; expected one of {GRAD_LOSSES}")
    term = _TERMS[name]
    if term.pair and pred.kind is not truth.kind:
        raise ShapeMismatchError(f"kind mismatch: {pred.kind.value} vs {truth.kind.value}")
    if term.pair and (pred.width != truth.width or pred.num_frames != truth.num_frames):
        raise ShapeMismatchError("feature shapes differ")
    if pred.kind not in term.kinds:
        raise ShapeMismatchError(f"{name} loss is undefined for kind {pred.kind.value}")
    clips = (pred, truth) if term.pair else (pred,)
    if not term.accepts_standardized and any(clip.standardized for clip in clips):
        raise InvalidValueError("loss needs raw features; destandardize the clip first")
    return term.evaluate(pred, truth, skeleton)


def _loss_value(name: str, pred: EncodedClip, truth: EncodedClip | None, skeleton=None) -> float:
    return _mean(_evaluate(name, pred, truth, skeleton).values)


def _analytic_gradient(name: str, pred: EncodedClip, truth: EncodedClip, skeleton: Skeleton):
    """Gradient of loss `name` w.r.t. pred.features, after the loss's own
    input checks."""
    return _evaluate(name, pred, truth, skeleton).grad()


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


def loss_rotational_raw(pred: EncodedClip, truth: EncodedClip, space: str = "local") -> float:
    """Same but without sign alignment; ranges over [0, 2] per joint."""
    _check_space(space)
    return _mean(_evaluate(f"rotational_{space}", pred, truth).unaligned)


def loss_positional(pred: EncodedClip, truth: EncodedClip) -> float:
    """Mean Euclidean distance between represented joint positions."""
    return _loss_value("positional", pred, truth)


def loss_offset(pred: EncodedClip, truth_skeleton: Skeleton | None = None) -> float:
    """Mean violation of the skeleton's bone offsets, non-root joints.

    A skeleton whose only encoded joint is the root has no bones, and the
    term is 0.
    """
    skeleton = truth_skeleton if truth_skeleton is not None else pred.skeleton
    return _loss_value("offset", pred, None, skeleton)


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
    term evaluated through `_evaluate`, which holds the input checks."""
    _check_space(rotation_space)
    weights = weights or LossWeights()
    report = LossReport(
        kind=pred.kind.value,
        rotation_space=rotation_space,
        standardized_inputs=pred.standardized or truth.standardized,
        weights=weights,
    )
    skeleton = truth_skeleton if truth_skeleton is not None else truth.skeleton
    total = 0.0
    for name, term in _TERMS.items():
        if pred.kind not in term.kinds or term.space not in (None, rotation_space):
            continue
        evaluation = _evaluate(name, pred, truth, skeleton)
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

@dataclass
class GradCheckResult:
    max_relative_deviation: float
    nondifferentiable: bool
    analytic: np.ndarray
    numeric: np.ndarray
    deviation_by_eps: dict


def grad_check(
    name: str,
    pred: EncodedClip,
    truth: EncodedClip,
    eps: float = 1e-6,
    truth_skeleton: Skeleton | None = None,
) -> GradCheckResult:
    """Compare the analytic gradient against central finite differences.

    The finite-difference gradient is recomputed over a ladder of epsilon
    scales; disagreement across scales, or proximity to a known kink
    (antipodal sign ties, zero distances), marks the point as
    non-differentiable rather than raising. The reported deviation is the
    largest componentwise difference relative to the gradient magnitude.
    """
    if not 1e-8 <= eps <= 1e-3:
        raise InvalidValueError("eps must lie in [1e-8, 1e-3]")
    skeleton = truth_skeleton if truth_skeleton is not None else truth.skeleton
    evaluation = _evaluate(name, pred, truth, skeleton)
    analytic = evaluation.grad()

    base = pred.features
    f, w = base.shape

    def bumped_loss(fi: int, wi: int, step: float) -> float:
        features = base.copy()
        features[fi, wi] += step
        clip = EncodedClip(pred.kind, pred.skeleton, pred.frame_time, _read_only(features), pred.stats)
        return _loss_value(name, clip, truth, skeleton)

    def fd_gradient(step: float) -> np.ndarray:
        out = np.zeros_like(base)
        for fi in range(f):
            for wi in range(w):
                out[fi, wi] = (bumped_loss(fi, wi, step) - bumped_loss(fi, wi, -step)) / (2.0 * step)
        return out

    ladder = sorted(set(GRAD_EPS_LADDER) | {eps}, reverse=True)
    numeric_by_eps = {step: fd_gradient(step) for step in ladder}
    numeric = numeric_by_eps[eps]

    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    deviation_by_eps = {
        step: float(np.max(np.abs(analytic - grid)) / scale)
        for step, grid in numeric_by_eps.items()
    }

    cross_scale = 0.0
    for a in ladder:
        for b in ladder:
            if a < b:
                cross_scale = max(
                    cross_scale,
                    float(np.max(np.abs(numeric_by_eps[a] - numeric_by_eps[b])) / scale),
                )
    nondifferentiable = cross_scale > 1e-3 or _TERMS[name].kink(evaluation.values)

    return GradCheckResult(
        max_relative_deviation=deviation_by_eps[eps],
        nondifferentiable=nondifferentiable,
        analytic=analytic,
        numeric=numeric,
        deviation_by_eps=deviation_by_eps,
    )
