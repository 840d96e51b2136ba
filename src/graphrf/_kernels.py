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
    """
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
