"""Equivalence oracles for the gradients of `losses`: two for the analytic
gradients, one for `grad_check`'s finite differences.

The per-(frame, joint) loop gradients are the original Jacobian-matrix
forms. Every derivative is an explicit 4x4 or 8x8 matrix built per
(frame, joint) and applied as `M.T @ v`, so they are slow but easy to
read against the math.

The batched forms (`BATCHED_TERMS`) are the terms as they were before
they moved to component-major rows: Hamilton products and VJPs on whole
(F, J, 4|8) arrays, and `np.add.at` parent scatters. Each is a drop-in
`evaluate` of a `losses._TERMS` entry, values and gradient.

`dqmotion.losses` computes the same products on (C, J, F) rows;
`test_grad_oracles.py` holds its gradients within 1e-12 relative of both
oracles and its values, bit for bit, to the batched forms.

`numeric_gradient` is the per-element central difference that
`grad_check` ran before it bumped a whole feature column at once: one
full-clip evaluation per (frame, column) and sign, so 2·F·W in all.

The helpers read the clip through `Skeleton.encoded_parents` and
`encoded_levels`, the (F, J, .) sweeps that `pose_oracles` keeps, and
their own copies of the old `_positions`, `_in_space` and
`_rotation_quats`; only the derivatives and these sweeps are independent.
"""

import numpy as np

from dqmotion import dualquat, quat
from dqmotion.encoding import EncodedClip, ReprKind
from dqmotion.losses import GRAD_EPS, _POSITION_COLUMNS, _evaluate, _Evaluation, _mean

from pose_oracles import compose, relative


def _in_space(clip, rotations: np.ndarray, space: str) -> np.ndarray:
    """The (F, J, 4) normalized rotation blocks `rotations` of `clip` in
    `space`, through the (..., J, D) sweeps of `pose_oracles`."""
    if (clip.kind is ReprKind.DUALQUAT) == (space == "current"):
        return rotations
    if space == "local":
        return relative(clip.skeleton.encoded_parents, rotations, quat.mul, quat.conjugate)
    return compose(clip.skeleton.encoded_levels, rotations, quat.mul)


def _rotation_quats(clip, space: str) -> np.ndarray:
    """(F, J, 4) rotations in the requested space for a rotational kind."""
    return _in_space(clip, quat.normalize(clip.joint_blocks()[..., :4]), space)


def _positions(clip) -> np.ndarray:
    """(F, J, 3) per-joint positions read off the representation."""
    blocks = clip.joint_blocks()
    if clip.kind is ReprKind.DUALQUAT:
        return dualquat.translation(dualquat.normalize(blocks))
    return blocks[..., _POSITION_COLUMNS]


def left_matrix(q: np.ndarray) -> np.ndarray:
    """L(q) with q x = L(q) @ x."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def right_matrix(q: np.ndarray) -> np.ndarray:
    """R(q) with x q = R(q) @ x."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


CONJ4 = np.diag([1.0, -1.0, -1.0, -1.0])
DQ_CONJ = np.kron(np.eye(2), CONJ4)


def normalize_jacobian(r: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(r)
    r_hat = r / n
    return (np.eye(4) - np.outer(r_hat, r_hat)) / n


def dq_normalize_jacobian(d: np.ndarray) -> np.ndarray:
    """8x8 Jacobian of dualquat.normalize at d."""
    r, e = d[:4], d[4:]
    n = np.linalg.norm(r)
    k = r @ e
    n3 = n**3
    n5 = n**5
    jac = np.zeros((8, 8))
    r_hat = r / n
    jac[:4, :4] = (np.eye(4) - np.outer(r_hat, r_hat)) / n
    jac[4:, 4:] = np.eye(4) / n - np.outer(r, r) / n3
    jac[4:, :4] = (
        -np.outer(e, r) / n3
        - k * np.eye(4) / n3
        - np.outer(r, e) / n3
        + 3.0 * k * np.outer(r, r) / n5
    )
    return jac


def dq_left_matrix(a: np.ndarray) -> np.ndarray:
    """Matrix of x -> a x (dual-quaternion product)."""
    out = np.zeros((8, 8))
    lr = left_matrix(a[:4])
    out[:4, :4] = lr
    out[4:, 4:] = lr
    out[4:, :4] = left_matrix(a[4:])
    return out


def dq_right_matrix(b: np.ndarray) -> np.ndarray:
    """Matrix of x -> x b (dual-quaternion product)."""
    out = np.zeros((8, 8))
    rr = right_matrix(b[:4])
    out[:4, :4] = rr
    out[4:, 4:] = rr
    out[4:, :4] = right_matrix(b[4:])
    return out


def translation_jacobian(m: np.ndarray) -> np.ndarray:
    """3x8 Jacobian of the translation 2*vec(m_d m_r^*) of a unit dq."""
    out = np.zeros((3, 8))
    out[:, :4] = 2.0 * (left_matrix(m[4:]) @ CONJ4)[1:, :]
    out[:, 4:] = 2.0 * right_matrix(quat.conjugate(m[:4]))[1:, :]
    return out


def scatter(grad_blocks: np.ndarray, clip) -> np.ndarray:
    """(F, J, D) block gradients into a (F, W) feature gradient."""
    out = np.zeros((clip.num_frames, clip.width))
    out[:, 3:] = grad_blocks.reshape(clip.num_frames, -1)
    return out


# ---------------------------------------------------------------------------
# the loop gradients
# ---------------------------------------------------------------------------

def grad_mse(pred, truth) -> np.ndarray:
    a, b = pred.joint_blocks(), truth.joint_blocks()
    grad = np.zeros_like(a)
    for fi in range(a.shape[0]):
        for ji in range(a.shape[1]):
            grad[fi, ji] = 2.0 * (a[fi, ji] - b[fi, ji]) / a.size
    return scatter(grad, pred)


def grad_regularization(pred, truth) -> np.ndarray:
    blocks = pred.joint_blocks()
    f, j, _ = blocks.shape
    grad = np.zeros_like(blocks)
    for fi in range(f):
        for ji in range(j):
            r, e = blocks[fi, ji, :4], blocks[fi, ji, 4:]
            norm_res, ortho_res = r @ r - 1.0, r @ e
            grad[fi, ji, :4] = 4.0 * norm_res * r + 2.0 * ortho_res * e
            grad[fi, ji, 4:] = 2.0 * ortho_res * r
    return scatter(grad / (f * j), pred)


def grad_positional(pred, truth) -> np.ndarray:
    delta = _positions(pred) - _positions(truth)
    dist = np.linalg.norm(delta, axis=-1, keepdims=True)
    unit = delta / np.where(dist > 0, dist, 1.0)
    f, j, _ = delta.shape
    unit /= f * j
    blocks = pred.joint_blocks()
    grad = np.zeros_like(blocks)
    if pred.kind is ReprKind.POSITIONS:
        grad[...] = unit
    elif pred.kind is ReprKind.QUATERNIONS_POSITIONS:
        grad[..., 4:7] = unit
    elif pred.kind is ReprKind.ORTHO6D_POSITIONS:
        grad[..., 6:9] = unit
    else:  # dualquat: chain through normalization and translation
        for fi in range(f):
            for ji in range(j):
                d = blocks[fi, ji]
                chain = translation_jacobian(dualquat.normalize(d)) @ dq_normalize_jacobian(d)
                grad[fi, ji] = chain.T @ unit[fi, ji]
    return scatter(grad, pred)


def grad_offset(pred, truth, skeleton) -> np.ndarray:
    parents = pred.skeleton.encoded_parents
    blocks = pred.joint_blocks()
    f, j, _ = blocks.shape
    normalized = dualquat.normalize(blocks)
    expected = skeleton.offsets[list(skeleton.encoded_indices)]
    grad_normalized = np.zeros_like(normalized)
    scale = 1.0 / (f * (j - 1)) if j > 1 else 0.0
    for fi in range(f):
        for ji in range(1, j):
            parent = parents[ji]
            n_p, n_j = normalized[fi, parent], normalized[fi, ji]
            local = dualquat.mul(dualquat.conjugate(n_p), n_j)
            delta = dualquat.translation(local) - expected[ji]
            dist = np.linalg.norm(delta)
            if dist == 0.0:
                continue
            upstream = (translation_jacobian(local).T @ (delta / dist)) * scale
            grad_normalized[fi, ji] += dq_left_matrix(dualquat.conjugate(n_p)).T @ upstream
            grad_normalized[fi, parent] += (dq_right_matrix(n_j) @ DQ_CONJ).T @ upstream
    grad = np.empty_like(blocks)
    for fi in range(f):
        for ji in range(j):
            grad[fi, ji] = dq_normalize_jacobian(blocks[fi, ji]).T @ grad_normalized[fi, ji]
    return scatter(grad, pred)


def grad_rotational(pred, truth, space: str) -> np.ndarray:
    parents = pred.skeleton.encoded_parents
    blocks = pred.joint_blocks()
    f, j, _ = blocks.shape
    raw = blocks[..., :4]
    unit = quat.normalize(raw)
    q_truth = _rotation_quats(truth, space)

    if pred.kind is ReprKind.DUALQUAT:
        # unit quats are root-relative; local space divides by the parent.
        if space == "current":
            q_pred = unit
        else:
            q_pred = np.empty_like(unit)
            for row in range(j):
                parent = parents[row]
                q_pred[:, row] = (
                    unit[:, row]
                    if parent < 0
                    else quat.mul(quat.conjugate(unit[:, parent]), unit[:, row])
                )
    else:
        if space == "local":
            q_pred = unit
        else:
            q_pred = np.empty_like(unit)
            for row in range(j):
                parent = parents[row]
                q_pred[:, row] = (
                    unit[:, row]
                    if parent < 0
                    else quat.mul(q_pred[:, parent], unit[:, row])
                )

    signs = np.where(np.sum(q_pred * q_truth, axis=-1) >= 0, 1.0, -1.0)
    grad_unit = np.zeros_like(unit)
    scale = 1.0 / (f * j)

    if pred.kind is ReprKind.DUALQUAT and space == "local":
        for fi in range(f):
            for row in range(j):
                upstream = -signs[fi, row] * q_truth[fi, row] * scale
                parent = parents[row]
                if parent < 0:
                    grad_unit[fi, row] += upstream
                else:
                    grad_unit[fi, row] += left_matrix(quat.conjugate(unit[fi, parent])).T @ upstream
                    grad_unit[fi, parent] += (right_matrix(unit[fi, row]) @ CONJ4).T @ upstream
    elif pred.kind is not ReprKind.DUALQUAT and space == "current":
        # Reverse sweep: each current rotation feeds all its descendants.
        bar_current = -signs[..., None] * q_truth * scale
        for row in range(j - 1, -1, -1):
            parent = parents[row]
            if parent < 0:
                grad_unit[:, row] += bar_current[:, row]
            else:
                for fi in range(f):
                    grad_unit[fi, row] += left_matrix(q_pred[fi, parent]).T @ bar_current[fi, row]
                    bar_current[fi, parent] += right_matrix(unit[fi, row]).T @ bar_current[fi, row]
    else:
        grad_unit = -signs[..., None] * q_truth * scale

    grad = np.zeros_like(blocks)
    for fi in range(f):
        for row in range(j):
            grad[fi, row, :4] = normalize_jacobian(raw[fi, row]).T @ grad_unit[fi, row]
    return scatter(grad, pred)


def analytic_gradient(name: str, pred, truth, skeleton) -> np.ndarray:
    """Loop counterpart of `losses._analytic_gradient` (no input checks)."""
    if name == "mse":
        return grad_mse(pred, truth)
    if name == "rotational_local":
        return grad_rotational(pred, truth, "local")
    if name == "rotational_current":
        return grad_rotational(pred, truth, "current")
    if name == "positional":
        return grad_positional(pred, truth)
    if name == "offset":
        return grad_offset(pred, truth, skeleton)
    if name == "regularization":
        return grad_regularization(pred, truth)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# the batched (F, J, .) forms
# ---------------------------------------------------------------------------

def _swap(d: np.ndarray) -> np.ndarray:
    """Exchange the real and dual halves of a dual quaternion."""
    return np.concatenate([d[..., 4:], d[..., :4]], axis=-1)


def _normalize_vjp(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g through the Jacobian (I - r^ r^T) / |r| of r -> r / |r|."""
    n = quat.norm(r)[..., None]
    r_hat = r / n
    return (g - r_hat * quat.dot(r_hat, g)[..., None]) / n


def _dq_normalize_vjp(d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g through the Jacobian [[A, 0], [B, A]] of dualquat.normalize at d,
    A = (I - r^ r^T) / n and B = -(e r^T + r e^T + k I) / n^3 + 3k r r^T / n^5."""
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
    """u (..., 3) through the Jacobian of the translation 2 vec(m_d m_r*)."""
    u_q = np.concatenate([np.zeros(u.shape[:-1] + (1,)), u], axis=-1)
    return 2.0 * np.concatenate([quat.mul(u_q, -m[..., 4:]), quat.mul(u_q, m[..., :4])], axis=-1)


def _unit_directions(delta: np.ndarray, dist: np.ndarray) -> np.ndarray:
    return delta / np.where(dist > 0, dist, 1.0)[..., None] / dist.size


def batched_mse(pred, truth, skeleton):
    diff = pred.joint_blocks() - truth.joint_blocks()
    return _Evaluation(
        quat.dot(diff, diff) / diff.shape[-1], lambda: scatter(2.0 * diff / diff.size, pred)
    )


def batched_rotational(space: str):
    def evaluate(pred, truth, skeleton):
        blocks = pred.joint_blocks()
        unit = quat.normalize(blocks[..., :4])
        q_pred = _in_space(pred, unit, space)
        q_truth = _rotation_quats(truth, space)
        dots = quat.dot(q_pred, q_truth)

        def grad():
            f, j, _ = blocks.shape
            bar = -np.where(dots >= 0, 1.0, -1.0)[..., None] * q_truth / (f * j)
            if pred.kind is ReprKind.DUALQUAT and space == "local":
                parents = pred.skeleton.encoded_parents[1:]
                to_parent = quat.mul(unit[:, 1:], quat.conjugate(bar[:, 1:]))
                bar[:, 1:] = quat.mul(unit[:, parents], bar[:, 1:])
                np.add.at(bar, (slice(None), parents), to_parent)
            elif pred.kind is not ReprKind.DUALQUAT and space == "current":
                for rows, parent_rows in reversed(pred.skeleton.encoded_levels):
                    to_parent = quat.mul(bar[:, rows], quat.conjugate(unit[:, rows]))
                    bar[:, rows] = quat.mul(quat.conjugate(q_pred[:, parent_rows]), bar[:, rows])
                    np.add.at(bar, (slice(None), parent_rows), to_parent)
            grad = np.zeros_like(blocks)
            grad[..., :4] = _normalize_vjp(blocks[..., :4], bar)
            return scatter(grad, pred)

        return _Evaluation(1.0 - np.abs(dots), grad, unaligned=1.0 - dots)

    return evaluate


def batched_positional(pred, truth, skeleton):
    delta = _positions(pred) - _positions(truth)
    dist = quat.norm(delta)

    def grad():
        unit = _unit_directions(delta, dist)
        blocks = pred.joint_blocks()
        if pred.kind is ReprKind.DUALQUAT:
            grad = _dq_normalize_vjp(blocks, _translation_vjp(dualquat.normalize(blocks), unit))
        else:
            grad = np.zeros_like(blocks)
            grad[..., _POSITION_COLUMNS] = unit
        return scatter(grad, pred)

    return _Evaluation(dist, grad)


def batched_offset(pred, truth, skeleton):
    normalized = dualquat.normalize(pred.joint_blocks())
    parents = pred.skeleton.encoded_parents[1:]
    local = dualquat.mul(dualquat.conjugate(normalized[:, parents]), normalized[:, 1:])
    expected = skeleton.offsets[list(skeleton.encoded_indices[1:])]
    delta = dualquat.translation(local) - expected
    dist = quat.norm(delta)

    def grad():
        swapped = _swap(_translation_vjp(local, _unit_directions(delta, dist)))
        grad_normalized = np.zeros_like(normalized)
        grad_normalized[:, 1:] = _swap(dualquat.mul(normalized[:, parents], swapped))
        np.add.at(
            grad_normalized,
            (slice(None), parents),
            _swap(dualquat.mul(normalized[:, 1:], dualquat.conjugate(swapped))),
        )
        return scatter(_dq_normalize_vjp(pred.joint_blocks(), grad_normalized), pred)

    return _Evaluation(dist, grad)


def batched_regularization(pred, truth, skeleton):
    blocks = pred.joint_blocks()
    norm_res, ortho_res = dualquat.unitary_residual(blocks)

    def grad():
        f, j, _ = blocks.shape
        grad = np.empty_like(blocks)
        grad[..., :4] = (
            4.0 * norm_res[..., None] * blocks[..., :4]
            + 2.0 * ortho_res[..., None] * blocks[..., 4:]
        )
        grad[..., 4:] = 2.0 * ortho_res[..., None] * blocks[..., :4]
        return scatter(grad / (f * j), pred)

    return _Evaluation(norm_res**2 + ortho_res**2, grad)


#: Drop-in `evaluate` functions for the entries of `losses._TERMS`.
BATCHED_TERMS = {
    "mse": batched_mse,
    "rotational_local": batched_rotational("local"),
    "rotational_current": batched_rotational("current"),
    "positional": batched_positional,
    "offset": batched_offset,
    "regularization": batched_regularization,
}


# ---------------------------------------------------------------------------
# the per-element finite differences
# ---------------------------------------------------------------------------

def numeric_gradient(name: str, pred, truth, skeleton, step: float = GRAD_EPS) -> np.ndarray:
    """Central differences of the mean of term `name`, one (frame, column)
    element of pred.features bumped at a time."""
    out = np.zeros(pred.features.shape)
    for index in np.ndindex(out.shape):
        means = []
        for bump in (step, -step):
            features = pred.features.copy()
            features[index] += bump
            bumped = EncodedClip(pred.kind, pred.skeleton, pred.frame_time, features, pred.stats)
            means.append(_mean(_evaluate(name, bumped, truth, skeleton).values))
        out[index] = (means[0] - means[1]) / (2.0 * step)
    return out
