"""The losses and the online training loop.

A loss is a pointwise cost C(prediction, label), named by its kind, plus a
squared-norm regularizer mu * ||theta||^2.  :func:`cost_value` and
:func:`cost_grad_scale` act elementwise on arrays; :func:`loss_value` and
:func:`loss_grad` state the same loss and its gradient one sample at a time.

Every learner trains through :func:`mkl_stream`.  Its per-sample loop,
:func:`learner_block`, steps all P learners at once as one (P, 2D) numpy
block.  The hedge weights are replayed after the loop in one vectorised
numpy pass, which is exact in structure because no learner's update reads
the weights.  Each learner's row takes the same arithmetic at any P, so a
learner of a P-kernel pass is bit-identical to the P = 1 pass over its
stream alone.

A pass of one sample over fewer than 8 kernels, which is what a labelled
join makes, takes a one-step branch inside :func:`mkl_stream` instead.  It
runs ``learner_block``'s numpy operations and the replay's arithmetic in the
same order, the P-length hedge arithmetic on Python floats, so it returns
the general path's arrays bit for bit at about half the fixed cost.  Where a
value is not finite, the general path runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOSS_KINDS = ("least_squares", "hinge", "logistic")

_CLASSIFICATION = ("hinge", "logistic")


@dataclass(frozen=True)
class LossKind:
    """A pointwise cost plus a squared-norm regularization weight mu.

    The logistic convention is Pr(y=+1 | a) = 1 / (1 + exp(-f(a))): larger
    scores mean the positive class is more likely.
    """

    kind: str = "least_squares"
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not self.mu >= 0:  # nan is refused too
            raise ValueError("mu must be >= 0")


def _check_label(loss: LossKind, label: float) -> float:
    label = float(label)
    if not math.isfinite(label):
        raise ValueError(f"labels must be finite, got {label}")
    if loss.kind in _CLASSIFICATION and label not in (-1.0, 1.0):
        raise ValueError(f"{loss.kind} loss requires labels in {{-1, +1}}, got {label}")
    return label


def cost_value(kind, pred, y):
    """Un-regularized cost C(pred, y), elementwise."""
    if kind == "least_squares":
        r = pred - y
        return r * r
    if kind == "hinge":
        return np.maximum(1.0 - y * pred, 0.0)
    m = y * pred
    return np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(m)))


def cost_grad_scale(kind, pred, y):
    """dC/dpred for an array of predictions against one label.

    Hinge uses the subgradient, 0 at the margin boundary.
    """
    if kind == "least_squares":
        return 2.0 * (pred - y)
    if kind == "hinge":
        return np.where(y * pred < 1.0, -y, 0.0)
    m = y * pred
    e = np.exp(-np.abs(m))
    return -y * np.where(m >= 0.0, e, 1.0) / (1.0 + e)


def loss_value(loss: LossKind, prediction: float, label: float, theta_norm2: float = 0.0) -> float:
    """Regularized loss C(prediction, label) + mu * ||theta||^2."""
    label = _check_label(loss, label)
    return float(cost_value(loss.kind, float(prediction), label) + loss.mu * theta_norm2)


def loss_grad(loss: LossKind, z, theta, label: float) -> np.ndarray:
    """Gradient of the regularized loss with respect to theta."""
    z = np.asarray(z, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if z.shape != theta.shape:
        raise ValueError(f"z and theta shapes differ: {z.shape} vs {theta.shape}")
    label = _check_label(loss, label)
    pred = np.array([np.dot(theta, z)])
    g = cost_grad_scale(loss.kind, pred, label)[0]
    return g * z + 2.0 * loss.mu * theta


def learner_block(zs, ys, eta, loss, thetas):
    """Constant-step descent of P independent learners over one stream.

    zs (P, T, 2D) holds one encoded stream per learner and thetas (P, 2D) is
    updated in place.  Returns a (3, T, P) record of each learner's
    pre-update prediction, squared weight norm and squared gradient norm.
    """
    n_learners, n_steps, width = zs.shape
    record = np.empty((3, n_steps, n_learners))
    kind, shrink = loss.kind, 2.0 * loss.mu
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
        g = cost_grad_scale(kind, dots[0], ys[t])
        grad = g.reshape((n_learners, 1)) * z
        grad += shrink * theta
        record[2, t] = (grad * grad).sum(axis=1)
        grad *= eta
        theta -= grad
    thetas[:] = theta
    return record


def mkl_stream(zs, ys, eta, loss, thetas, logw):
    """Multi-kernel online pass with multiplicative weight updates.

    zs has shape (P, T, 2D): one encoded stream per kernel.  thetas (P, 2D)
    and logw (P,) are updated in place; logw is rescaled so its largest
    entry is 0, which leaves the normalized weights untouched.

    Returns (combined losses (T,), per-kernel losses (T, P), normalized
    weights used at each step (T, P), combined predictions (T,), largest
    gradient norm per kernel (P,)).  All recorded values are pre-update, as
    the online protocol requires.

    One sample over fewer than 8 kernels takes :func:`_one_step`, which
    returns the same arrays bit for bit.
    """
    if len(ys) == 1 and len(logw) < 8:
        step = _one_step(zs[:, 0], float(ys[0]), eta, loss, thetas, logw)
        if step is not None:
            return step
    record = learner_block(zs, ys, eta, loss, thetas)
    preds, norms, grad_sq = record
    kind, mu = loss.kind, loss.mu
    y = ys[:, None]
    per_kernel = cost_value(kind, preds, y) + mu * norms
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
    combined = (cost_value(kind, f_hat, y) + mu * norm_bar)[:, 0]
    if len(ys):
        logw[:] = hist[-1]
    max_grad = np.sqrt(np.maximum.reduce(grad_sq, axis=0, initial=0.0))
    return combined, per_kernel, weights, f_hat[:, 0], max_grad


def _cost_floats(kind, preds, y):
    """:func:`cost_value` of each float in ``preds``, rounded as numpy rounds
    it: least squares and hinge take plain IEEE arithmetic, and logistic goes
    through numpy's exp and log1p, which may round differently from libm's."""
    if kind == "least_squares":
        return [(p - y) * (p - y) for p in preds]
    if kind == "hinge":
        return [max(1.0 - y * p, 0.0) for p in preds]
    return cost_value(kind, np.array(preds), y).tolist()


def _grad_floats(kind, preds, y):
    """:func:`cost_grad_scale` of each float in ``preds``, rounded as numpy
    rounds it."""
    if kind == "least_squares":
        return [2.0 * (p - y) for p in preds]
    if kind == "hinge":
        return [-y if y * p < 1.0 else 0.0 for p in preds]
    return cost_grad_scale(kind, np.array(preds), y).tolist()


def _weights_floats(log_weights):
    """The normalised hedge weights of fewer than 8 finite log-weights, as
    floats rounded as :func:`mkl_stream` rounds them.  Of equal entries (0.0
    and -0.0) numpy's maximum keeps the last, as max over the reversed list
    does, and numpy sums fewer than 8 entries left to right from 0.0.  (From 8
    entries on it sums in pairs, and this order no longer holds.)"""
    top = max(reversed(log_weights))
    scale = np.exp(np.array([w - top for w in log_weights])).tolist()
    total = 0.0
    for s in scale:
        total += s
    return [s / total for s in scale]


def hedge_mix(log_weights, values) -> float:
    """The hedge-weighted sum of P per-kernel values, rounded as
    :func:`mkl_stream` rounds its combined prediction."""
    if len(log_weights) >= 8:
        weights = np.exp(log_weights - log_weights.max())
        weights /= weights.sum()
        return float((weights * values).sum())
    total = 0.0
    for w, v in zip(_weights_floats(log_weights.tolist()), values.tolist()):
        total += w * v
    return total


def _one_step(z, y, eta, loss, thetas, logw):
    """:func:`mkl_stream` over one sample of P < 8 kernels, bit for bit.

    ``z`` is the (P, 2D) encoding.  Every operation of ``learner_block`` and
    of the hedge replay runs in the same order, the P-length hedge arithmetic
    on Python floats.  Returns None, having changed nothing, when a
    prediction, norm, label, step or log-weight is not finite; the general
    path then runs.
    """
    kind, mu = loss.kind, loss.mu
    # rows [z * theta, theta * theta]: one sum gives predictions and norms
    work = np.empty((2,) + z.shape)
    np.multiply(z, thetas, work[0])
    np.multiply(thetas, thetas, work[1])
    preds, norms = np.add.reduce(work, 2).tolist()
    log_weights = logw.tolist()
    if not all(map(math.isfinite, [y, eta, mu, *preds, *norms, *log_weights])):
        return None
    grad = np.array(_grad_floats(kind, preds, y))[:, None] * z
    grad += np.multiply(thetas, 2.0 * mu, work[0])
    grad_sq = np.add.reduce(np.multiply(grad, grad, work[1]), 1)
    grad *= eta
    thetas -= grad
    per_kernel, after, used = [], [], _weights_floats(log_weights)
    f_hat = norm_bar = 0.0
    for c, p, n, w, u in zip(_cost_floats(kind, preds, y), preds, norms, log_weights, used):
        c += mu * n
        per_kernel.append(c)
        after.append(w - eta * min(max(c, 0.0), 1.0))
        f_hat += u * p
        norm_bar += u * n
    combined = _cost_floats(kind, [f_hat], y)[0] + mu * norm_bar
    top = max(reversed(after))  # numpy's maximum, as in _weights_floats
    logw[:] = [w - top for w in after]
    return (np.array([combined]), np.array([per_kernel]), np.array([used]), np.array([f_hat]),
            np.sqrt(grad_sq))
