"""Per-(frame, joint) loop gradients: the equivalence oracle for `losses`.

These are the original Jacobian-matrix forms of the analytic loss
gradients. Every derivative is an explicit 4x4 or 8x8 matrix built per
(frame, joint) and applied as `M.T @ v`, so they are slow but easy to
read against the math. `dqmotion.losses` computes the same products as
Hamilton products batched over frames; `test_grad_oracles.py` holds the
two within 1e-12 relative.

The helpers read the clip through the package's forward plumbing
(`_positions`, `_rotation_quats`, `Skeleton.encoded_parents`); only the
derivatives are independent.
"""

import numpy as np

from dqmotion import dualquat, quat
from dqmotion.encoding import ReprKind
from dqmotion.losses import _positions, _rotation_quats


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
