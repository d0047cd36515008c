"""Training losses between encoded clips, with closed-form gradients.

Five losses compare a predicted clip against ground truth (or, for the
offset and regularization terms, against the skeleton / the unit
conditions alone). Reduction convention, applied uniformly: mean over
joint blocks, then mean over frames; the MSE additionally averages over
the block components. The three root-translation columns never enter a
loss; the root displacement is modeled as a separate signal.

Each loss has an analytic gradient with respect to the predicted feature
matrix. The gradients are closed forms batched over frames: Hamilton
products on whole (F, J, .) arrays, with no per-(frame, joint) Jacobian
matrices. `grad_check` verifies them against central finite differences,
and the tests also hold them to a per-(frame, joint) loop oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from . import dualquat, quat
from .bvh import Skeleton
from .encoding import EncodedClip, ReprKind
from .errors import DegenerateNormError, ShapeMismatchError
from .kinematics import compose, relative

_ROTATIONAL_KINDS = (ReprKind.DUALQUAT, ReprKind.QUATERNIONS, ReprKind.QUATERNIONS_POSITIONS)

GRAD_EPS_LADDER = (1e-4, 1e-5, 1e-6)
GRAD_LOSSES = (
    "mse",
    "rotational_local",
    "rotational_current",
    "positional",
    "offset",
    "regularization",
)


@dataclass
class LossWeights:
    """Aggregation weights; defaults follow the reference configuration
    (rotational and positional at 1/3, regularizer at 0.01)."""

    mse: float = 1.0
    rotational: float = 1.0 / 3.0
    positional: float = 1.0 / 3.0
    offset: float = 1.0
    regularization: float = 0.01

    def __post_init__(self):
        for name in ("mse", "rotational", "positional", "offset", "regularization"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"weight {name} must be finite and non-negative")

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
        """Build weights from e.g. {"reg": 0.01, "pos": 0.5}; unknown keys raise."""
        kwargs = {}
        for key, value in mapping.items():
            if key not in cls._ALIASES:
                raise ValueError(f"unknown loss weight {key!r}")
            kwargs[cls._ALIASES[key]] = float(value)
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
        return {
            "schema_version": 1,
            "kind": self.kind,
            "rotation_space": self.rotation_space,
            "standardized_inputs": self.standardized_inputs,
            "weights": {
                "mse": self.weights.mse,
                "rotational": self.weights.rotational,
                "positional": self.weights.positional,
                "offset": self.weights.offset,
                "regularization": self.weights.regularization,
            },
            "mse": self.mse,
            "rotational": self.rotational,
            "rotational_raw": self.rotational_raw,
            "positional": self.positional,
            "offset": self.offset,
            "regularization": self.regularization,
            "weighted_total": self.weighted_total,
            "per_joint": {k: list(v) for k, v in self.per_joint.items()},
        }

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

def _check_pair(pred: EncodedClip, truth: EncodedClip):
    if pred.kind is not truth.kind:
        raise ShapeMismatchError(f"kind mismatch: {pred.kind.value} vs {truth.kind.value}")
    if pred.width != truth.width or pred.num_frames != truth.num_frames:
        raise ShapeMismatchError("feature shapes differ")


def _require_raw(*clips: EncodedClip):
    for clip in clips:
        if clip.standardized:
            raise ValueError("loss needs raw features; destandardize the clip first")


def _check_inputs(name: str, pred: EncodedClip, truth: EncodedClip | None = None):
    """The input checks of loss `name`, shared by the loss and its gradient.

    Offset and regularization see the prediction alone and are defined for
    the dualquat kind; every other loss compares a pair, and only the MSE
    accepts standardized features.
    """
    if name in ("offset", "regularization"):
        if pred.kind is not ReprKind.DUALQUAT:
            raise ShapeMismatchError(f"{name} loss is defined for the dualquat kind")
        _require_raw(pred)
        return
    _check_pair(pred, truth)
    if name != "mse":
        _require_raw(pred, truth)


def _mean(values: np.ndarray) -> float:
    """Mean of a per-(frame, joint) term; 0.0 for a term with no joints."""
    return float(np.mean(values)) if values.size else 0.0


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis. einsum is several times faster
    than a reduction over an axis of length 4 or 8."""
    return np.einsum("...i,...i->...", a, b)


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _normalized_quats(blocks: np.ndarray) -> np.ndarray:
    norms = _norm(blocks)
    if np.any(norms <= 1e-12):
        raise DegenerateNormError("quaternion block with vanishing norm")
    return blocks / norms[..., None]


def _rotation_quats(clip: EncodedClip, space: str) -> np.ndarray:
    """(F, J, 4) rotations in the requested space for a rotational kind."""
    if space not in ("local", "current"):
        raise ValueError(f"space must be 'local' or 'current', got {space!r}")
    if clip.kind not in _ROTATIONAL_KINDS:
        raise ShapeMismatchError(f"rotational loss undefined for kind {clip.kind.value}")
    rotations = _normalized_quats(clip.joint_blocks()[..., :4])
    # dual-quaternion real parts are current (root-relative) rotations,
    # quaternion-valued blocks hold local ones
    if (clip.kind is ReprKind.DUALQUAT) == (space == "current"):
        return rotations
    if space == "local":
        return relative(clip.skeleton.encoded_parents, rotations, quat.mul, quat.conjugate)
    return compose(clip.skeleton.encoded_levels, rotations, quat.mul)


def _positions(clip: EncodedClip) -> np.ndarray:
    """(F, J, 3) per-joint positions read off the representation."""
    from .errors import NoPositionsError

    blocks = clip.joint_blocks()
    if clip.kind is ReprKind.POSITIONS:
        return blocks
    if clip.kind is ReprKind.QUATERNIONS_POSITIONS:
        return blocks[..., 4:7]
    if clip.kind is ReprKind.ORTHO6D_POSITIONS:
        return blocks[..., 6:9]
    if clip.kind is ReprKind.DUALQUAT:
        return dualquat.translation(dualquat.normalize(blocks))
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
# the losses
# ---------------------------------------------------------------------------
# Each term has one body giving a per-(frame, joint) array; the public loss,
# loss_total and grad_check's kink test all reduce that same array.

def _squared_errors(pred: EncodedClip, truth: EncodedClip) -> np.ndarray:
    diff = pred.joint_blocks() - truth.joint_blocks()
    return _dot(diff, diff) / diff.shape[-1]


def _rotational_terms(pred: EncodedClip, truth: EncodedClip, space: str):
    q_pred = _rotation_quats(pred, space)
    q_truth = _rotation_quats(truth, space)
    dots = _dot(q_pred, q_truth)
    raw = 1.0 - dots
    aligned = 1.0 - np.abs(dots)
    return aligned, raw, dots


def _position_distances(pred: EncodedClip, truth: EncodedClip) -> np.ndarray:
    return _norm(_positions(pred) - _positions(truth))


def _offset_violations(pred: EncodedClip, skeleton: Skeleton) -> np.ndarray:
    """(F, J-1) bone-offset violations; no columns for a root-only skeleton."""
    return _norm(_offset_errors(pred, skeleton)[2])


def _unit_residuals(pred: EncodedClip) -> np.ndarray:
    norm_res, ortho_res = dualquat.unitary_residual(pred.joint_blocks())
    return norm_res**2 + ortho_res**2


def loss_mse(pred: EncodedClip, truth: EncodedClip) -> float:
    """Mean squared error over the per-joint blocks."""
    _check_inputs("mse", pred, truth)
    return _mean(_squared_errors(pred, truth))


def loss_rotational(pred: EncodedClip, truth: EncodedClip, space: str = "local") -> float:
    """1 - <q, q~> on unit rotations, sign-aligned; mean over joints/frames.

    `space` selects local (parent-relative, recovered through the
    hierarchy for the dualquat kind) or current (root-relative) rotations.
    """
    _check_inputs("rotational", pred, truth)
    aligned, _, _ = _rotational_terms(pred, truth, space)
    return _mean(aligned)


def loss_rotational_raw(pred: EncodedClip, truth: EncodedClip, space: str = "local") -> float:
    """Same but without sign alignment; ranges over [0, 2] per joint."""
    _check_inputs("rotational", pred, truth)
    _, raw, _ = _rotational_terms(pred, truth, space)
    return _mean(raw)


def loss_positional(pred: EncodedClip, truth: EncodedClip) -> float:
    """Mean Euclidean distance between represented joint positions."""
    _check_inputs("positional", pred, truth)
    return _mean(_position_distances(pred, truth))


def loss_offset(pred: EncodedClip, truth_skeleton: Skeleton | None = None) -> float:
    """Mean violation of the skeleton's bone offsets, non-root joints.

    A skeleton whose only encoded joint is the root has no bones, and the
    term is 0.
    """
    _check_inputs("offset", pred)
    skeleton = truth_skeleton if truth_skeleton is not None else pred.skeleton
    return _mean(_offset_violations(pred, skeleton))


def loss_regularization(pred: EncodedClip) -> float:
    """Squared unit-condition residuals of the raw blocks.

    Computed on the blocks as stored, prior to any normalization: the
    term exists precisely to penalize drift off the unit manifold.
    """
    _check_inputs("regularization", pred)
    return _mean(_unit_residuals(pred))


def _applicable(kind: ReprKind) -> set:
    names = {"mse"}
    if kind in _ROTATIONAL_KINDS:
        names.add("rotational")
    if kind.has_positions:
        names.add("positional")
    if kind is ReprKind.DUALQUAT:
        names.update(("offset", "regularization"))
    return names


def loss_total(
    pred: EncodedClip,
    truth: EncodedClip,
    weights: LossWeights | None = None,
    rotation_space: str = "local",
    truth_skeleton: Skeleton | None = None,
) -> LossReport:
    """Weighted sum of every component applicable to the clips' kind."""
    _check_pair(pred, truth)
    weights = weights or LossWeights()
    report = LossReport(
        kind=pred.kind.value,
        rotation_space=rotation_space,
        standardized_inputs=pred.standardized or truth.standardized,
        weights=weights,
    )
    names = _applicable(pred.kind)
    if report.standardized_inputs and names != {"mse"}:
        raise ValueError("loss_total needs raw clips; destandardize first")

    terms = {"mse": _squared_errors(pred, truth)}
    if "rotational" in names:
        aligned, raw, _ = _rotational_terms(pred, truth, rotation_space)
        report.rotational_raw = _mean(raw)
        terms["rotational"] = aligned
    if "positional" in names:
        terms["positional"] = _position_distances(pred, truth)
    if "offset" in names:
        skeleton = truth_skeleton if truth_skeleton is not None else truth.skeleton
        terms["offset"] = _offset_violations(pred, skeleton)
    if "regularization" in names:
        terms["regularization"] = _unit_residuals(pred)

    total = 0.0
    for name, values in terms.items():
        value = _mean(values)
        setattr(report, name, value)
        report.per_joint[name] = np.mean(values, axis=0).tolist()
        total += getattr(weights, name) * value
    report.weighted_total = float(total)
    return report


# ---------------------------------------------------------------------------
# analytic gradients
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
    n = _norm(r)[..., None]
    r_hat = r / n
    return (g - r_hat * _dot(r_hat, g)[..., None]) / n


def _dq_normalize_vjp(d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g through the Jacobian of dualquat.normalize at d.

    The Jacobian is [[A, 0], [B, A]] with symmetric blocks
    A = (I - r^ r^T) / n and B = -(e r^T + r e^T + k I) / n^3 + 3k r r^T / n^5,
    where n = |r| and k = <r, e>; its transpose maps g to
    (A g_r + B g_e, A g_e).
    """
    r, e = d[..., :4], d[..., 4:]
    g_e = g[..., 4:]
    n = _norm(r)[..., None]
    k = _dot(r, e)[..., None]
    r_ge = _dot(r, g_e)[..., None]
    e_ge = _dot(e, g_e)[..., None]
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


def _scatter(grad_blocks: np.ndarray, clip: EncodedClip) -> np.ndarray:
    """(F, J, D) block gradients into a (F, W) feature gradient."""
    out = np.zeros((clip.num_frames, clip.width))
    out[:, 3:] = grad_blocks.reshape(clip.num_frames, -1)
    return out


def _grad_mse(pred: EncodedClip, truth: EncodedClip) -> np.ndarray:
    diff = pred.joint_blocks() - truth.joint_blocks()
    return _scatter(2.0 * diff / diff.size, pred)


def _grad_regularization(pred: EncodedClip, truth: EncodedClip) -> np.ndarray:
    blocks = pred.joint_blocks()
    f, j, _ = blocks.shape
    norm_res, ortho_res = dualquat.unitary_residual(blocks)
    grad = np.empty_like(blocks)
    grad[..., :4] = (
        4.0 * norm_res[..., None] * blocks[..., :4]
        + 2.0 * ortho_res[..., None] * blocks[..., 4:]
    )
    grad[..., 4:] = 2.0 * ortho_res[..., None] * blocks[..., :4]
    return _scatter(grad / (f * j), pred)


def _unit_directions(delta: np.ndarray) -> np.ndarray:
    """delta / |delta| along the last axis, 0 where delta is 0, divided by
    the number of distances the loss averages."""
    dist = _norm(delta)[..., None]
    return delta / np.where(dist > 0, dist, 1.0) / (delta.size // delta.shape[-1])


def _grad_positional(pred: EncodedClip, truth: EncodedClip) -> np.ndarray:
    unit = _unit_directions(_positions(pred) - _positions(truth))
    blocks = pred.joint_blocks()
    grad = np.zeros_like(blocks)
    if pred.kind is ReprKind.POSITIONS:
        grad[...] = unit
    elif pred.kind is ReprKind.QUATERNIONS_POSITIONS:
        grad[..., 4:7] = unit
    elif pred.kind is ReprKind.ORTHO6D_POSITIONS:
        grad[..., 6:9] = unit
    else:  # dualquat: chain through normalization and translation
        grad = _dq_normalize_vjp(blocks, _translation_vjp(dualquat.normalize(blocks), unit))
    return _scatter(grad, pred)


def _grad_offset(pred: EncodedClip, truth: EncodedClip, skeleton: Skeleton) -> np.ndarray:
    if pred.joint_count == 1:
        return np.zeros_like(pred.features)  # no bones, constant zero loss
    normalized, local, delta = _offset_errors(pred, skeleton)
    # local = n_p* n for every non-root row n with parent n_p. For dual
    # quaternions the transposed Jacobians of x -> a x and x -> x b map v
    # to swap(a* swap(v)) and swap(swap(v) b*), conjugating both halves.
    swapped = _swap(_translation_vjp(local, _unit_directions(delta)))
    parents = pred.skeleton.encoded_parents[1:]
    grad_normalized = np.zeros_like(normalized)
    grad_normalized[:, 1:] = _swap(dualquat.mul(normalized[:, parents], swapped))
    np.add.at(
        grad_normalized,
        (slice(None), parents),
        _swap(dualquat.mul(normalized[:, 1:], dualquat.conjugate(swapped))),
    )
    return _scatter(_dq_normalize_vjp(pred.joint_blocks(), grad_normalized), pred)


def _grad_rotational(pred: EncodedClip, truth: EncodedClip, space: str) -> np.ndarray:
    parents = pred.skeleton.encoded_parents
    blocks = pred.joint_blocks()
    f, j, _ = blocks.shape
    unit = _normalized_quats(blocks[..., :4])
    q_pred = _rotation_quats(pred, space)
    q_truth = _rotation_quats(truth, space)
    signs = np.where(_dot(q_pred, q_truth) >= 0, 1.0, -1.0)
    # `bar` starts as the gradient w.r.t. q_pred and is carried back, row
    # by row, to the gradient w.r.t. the unit blocks.
    bar = -signs[..., None] * q_truth / (f * j)

    if pred.kind is ReprKind.DUALQUAT and space == "local":
        # q_pred = u_p* u for every non-root row u with parent u_p.
        to_parent = quat.mul(unit[:, 1:], quat.conjugate(bar[:, 1:]))
        bar[:, 1:] = quat.mul(unit[:, parents[1:]], bar[:, 1:])
        np.add.at(bar, (slice(None), parents[1:]), to_parent)
    elif pred.kind is not ReprKind.DUALQUAT and space == "current":
        # Reverse sweep: each current rotation feeds all its descendants,
        # and a level's upstream is complete once every deeper level is done.
        for rows, parent_rows in reversed(pred.skeleton.encoded_levels):
            to_parent = quat.mul(bar[:, rows], quat.conjugate(unit[:, rows]))
            bar[:, rows] = quat.mul(quat.conjugate(q_pred[:, parent_rows]), bar[:, rows])
            np.add.at(bar, (slice(None), parent_rows), to_parent)

    grad = np.zeros_like(blocks)
    grad[..., :4] = _normalize_vjp(blocks[..., :4], bar)
    return _scatter(grad, pred)


@dataclass
class GradCheckResult:
    max_relative_deviation: float
    nondifferentiable: bool
    analytic: np.ndarray
    numeric: np.ndarray
    deviation_by_eps: dict


def _loss_value(name: str, pred: EncodedClip, truth: EncodedClip, skeleton: Skeleton) -> float:
    if name == "mse":
        return loss_mse(pred, truth)
    if name == "rotational_local":
        return loss_rotational(pred, truth, "local")
    if name == "rotational_current":
        return loss_rotational(pred, truth, "current")
    if name == "positional":
        return loss_positional(pred, truth)
    if name == "offset":
        return loss_offset(pred, skeleton)
    if name == "regularization":
        return loss_regularization(pred)
    raise ValueError(f"unknown loss {name!r}; expected one of {GRAD_LOSSES}")


def _analytic_gradient(name: str, pred: EncodedClip, truth: EncodedClip, skeleton: Skeleton):
    """Gradient of loss `name` w.r.t. pred.features, after the loss's own
    input checks."""
    if name not in GRAD_LOSSES:
        raise ValueError(f"unknown loss {name!r}; expected one of {GRAD_LOSSES}")
    _check_inputs(name, pred, truth)
    if name == "mse":
        return _grad_mse(pred, truth)
    if name == "rotational_local":
        return _grad_rotational(pred, truth, "local")
    if name == "rotational_current":
        return _grad_rotational(pred, truth, "current")
    if name == "positional":
        return _grad_positional(pred, truth)
    if name == "offset":
        return _grad_offset(pred, truth, skeleton)
    return _grad_regularization(pred, truth)


def _boundary_proximity(name: str, pred: EncodedClip, truth: EncodedClip, skeleton: Skeleton) -> bool:
    """True when the point sits near a known kink of the loss surface."""
    if name in ("rotational_local", "rotational_current"):
        _, _, dots = _rotational_terms(pred, truth, name.split("_")[1])
        return bool(np.min(np.abs(dots)) < 1e-3)
    if name == "positional":
        dist = _position_distances(pred, truth)
    elif name == "offset":
        dist = _offset_violations(pred, skeleton)
    else:
        return False
    return bool(np.min(dist, initial=np.inf) < 1e-9)


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
        raise ValueError("eps must lie in [1e-8, 1e-3]")
    skeleton = truth_skeleton if truth_skeleton is not None else truth.skeleton
    analytic = _analytic_gradient(name, pred, truth, skeleton)

    base = pred.features
    f, w = base.shape

    def fd_gradient(step: float) -> np.ndarray:
        out = np.zeros_like(base)
        for fi in range(f):
            for wi in range(w):
                bumped = base.copy()
                bumped[fi, wi] = base[fi, wi] + step
                plus = _loss_value(
                    name,
                    EncodedClip(pred.kind, pred.skeleton, pred.frame_time, bumped, pred.stats),
                    truth,
                    skeleton,
                )
                bumped[fi, wi] = base[fi, wi] - step
                minus = _loss_value(
                    name,
                    EncodedClip(pred.kind, pred.skeleton, pred.frame_time, bumped, pred.stats),
                    truth,
                    skeleton,
                )
                out[fi, wi] = (plus - minus) / (2.0 * step)
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
    nondifferentiable = cross_scale > 1e-3 or _boundary_proximity(name, pred, truth, skeleton)

    return GradCheckResult(
        max_relative_deviation=deviation_by_eps[eps],
        nondifferentiable=nondifferentiable,
        analytic=analytic,
        numeric=numeric,
        deviation_by_eps=deviation_by_eps,
    )
