"""The online training kernel.

Every learner trains through :func:`mkl_stream`.  Its per-sample loop,
:func:`learner_block`, steps all P learners at once as one (P, 2D) block and
carries ``@njit``; with ``GRAPHRF_NUMBA=0`` the same code runs as plain
numpy.  The hedge weights are replayed after the loop in one vectorised
numpy pass, which is exact in structure because no learner's update reads
the weights.  Single-kernel training is the P = 1 case, so a one-kernel
multi-kernel run is bit-identical to the single-kernel path under either
backend.

Loss codes: 0 = least squares, 1 = hinge, 2 = logistic.  The cost and its
derivative act elementwise on arrays.
"""

import numpy as np

from ._accel import njit

LOSS_LS = 0
LOSS_HINGE = 1
LOSS_LOGISTIC = 2


def cost_value(code, pred, y):
    """Un-regularized cost C(pred, y), elementwise."""
    if code == 0:
        r = pred - y
        return r * r
    if code == 1:
        return np.maximum(1.0 - y * pred, 0.0)
    m = y * pred
    return np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(m)))


@njit(cache=True)
def cost_grad_scale(code, pred, y):
    """dC/dpred for an array of predictions against one label.

    Hinge uses the subgradient, 0 at the margin boundary.
    """
    if code == 0:
        return 2.0 * (pred - y)
    if code == 1:
        return np.where(y * pred < 1.0, -y, 0.0)
    m = y * pred
    e = np.exp(-np.abs(m))
    return -y * np.where(m >= 0.0, e, 1.0) / (1.0 + e)


@njit(cache=True)
def learner_block(zs, ys, eta, mu, code, thetas):
    """Constant-step descent of P independent learners over one stream.

    zs (P, T, 2D) holds one encoded stream per learner and thetas (P, 2D) is
    updated in place.  Returns a (3, T, P) record of each learner's
    pre-update prediction, squared weight norm and squared gradient norm.
    """
    n_learners, n_steps, width = zs.shape
    record = np.empty((3, n_steps, n_learners))
    shrink = 2.0 * mu
    # rows [z_t, theta_t]: one product and one sum give every learner's
    # prediction and squared norm
    work = np.empty((2, n_learners, width))
    theta = work[1]
    theta[:] = thetas
    for t in range(n_steps):
        z = zs[:, t]
        work[0] = z
        dots = (work * theta).sum(axis=2)
        record[:2, t] = dots
        g = cost_grad_scale(code, dots[0], ys[t])
        grad = g.reshape((n_learners, 1)) * z
        grad += shrink * theta
        record[2, t] = (grad * grad).sum(axis=1)
        grad *= eta
        theta -= grad
    thetas[:] = theta
    return record


def mkl_stream(zs, ys, eta, mu, code, thetas, logw):
    """Multi-kernel online pass with multiplicative weight updates.

    zs has shape (P, T, 2D): one encoded stream per kernel.  thetas (P, 2D)
    and logw (P,) are updated in place; logw is rescaled so its largest
    entry is 0, which leaves the normalized weights untouched.

    Returns (combined losses (T,), per-kernel losses (T, P), normalized
    weights used at each step (T, P), combined predictions (T,), largest
    gradient norm per kernel (P,)).  All recorded values are pre-update, as
    the online protocol requires.
    """
    record = learner_block(zs, ys, eta, mu, code, thetas)
    preds, norms, grad_sq = record
    y = ys[:, None]
    per_kernel = cost_value(code, preds, y) + mu * norms
    # rows: the starting log-weights, then the log-weights after each step,
    # so the weights used at step t are row t; one max and one subtraction
    # rescale every row, the last one included, to a largest entry of 0
    hist = np.empty((len(ys) + 1, len(logw)))
    hist[0] = logw
    after = hist[1:]
    np.minimum(np.maximum(per_kernel, 0.0, out=after), 1.0, out=after)
    np.add.accumulate(after, axis=0, out=after)
    after *= eta
    np.subtract(logw, after, out=after)
    hist -= np.maximum.reduce(hist, axis=1, keepdims=True)
    weights = np.exp(hist[:-1])
    weights /= np.add.reduce(weights, axis=1, keepdims=True)
    # weighted prediction and norm as (T, 1) columns, so that at P = 1 the
    # combined loss takes exactly the per-kernel loss's arithmetic
    f_hat, norm_bar = np.add.reduce(weights * record[:2], axis=2, keepdims=True)
    combined = (cost_value(code, f_hat, y) + mu * norm_bar)[:, 0]
    if len(ys):
        logw[:] = hist[-1]
    max_grad = np.sqrt(np.maximum.reduce(grad_sq, axis=0, initial=0.0))
    return combined, per_kernel, weights, f_hat[:, 0], max_grad
