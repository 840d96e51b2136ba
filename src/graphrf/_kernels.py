"""The losses and the online training loop.

A loss is a pointwise cost C(prediction, label), named by its kind, plus a
squared-norm regularizer mu * ||theta||^2.  :func:`cost_value` and
:func:`cost_grad_scale` are the one statement of each cost and its
derivative, elementwise on arrays or on one float; a learner's gradient is
``cost_grad_scale(kind, z·θ, y)·z + 2μθ``.

Every learner trains through :func:`mkl_stream`, in a μ grid of G models
over the same P kernels: one pass of R = G·P rows, where each group of P
rows has its own μ and all share one loss kind.  The stream's per-sample
loop, :func:`learner_block`, steps all learners at once as one (R, 2D)
numpy block, and each step computes only the prediction, the gradient and
the update.  The record's squared weight and gradient norms are reduced once
per block of steps, from buffers that keep the weights before each step and
each step's gradient.  The hedge weights are replayed after the loop in one
vectorised numpy pass, which is exact in structure because no learner's
update reads the weights.  Each learner's row takes the same arithmetic at
any R, so a learner of a P-kernel pass is bit-identical to the P = 1 pass
over its stream alone.  The hedge is replayed per group, so each group's
arrays are those of its own pass, bit for bit.

Every sum and maximum over the kernel axis folds its P entries left to
right, at any P: a sum adds from 0.0, and of equal entries (0.0 and -0.0) a
maximum keeps the last.  A pass of one sample and one μ, which is what a
labelled join and ``mkl_update`` make, takes a one-step branch inside
:func:`mkl_stream` instead.  It runs ``learner_block``'s numpy operations
and the replay's arithmetic in the same order, the P-length hedge
arithmetic on Python floats, so it returns the general path's arrays bit
for bit at about half the fixed cost.  Where a value is not finite, the
general path runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOSS_KINDS = ("least_squares", "hinge", "logistic")

_CLASSIFICATION = ("hinge", "logistic")

# Byte budget of learner_block's two block buffers, the weights before each
# step and each step's gradient: the record's norm columns are reduced once
# per block of steps, and the buffers stay in cache.
_STEP_BLOCK_BYTES = 1 << 18


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
    """dC/dpred, elementwise.

    Hinge uses the subgradient, 0 at the margin boundary.
    """
    if kind == "least_squares":
        return 2.0 * (pred - y)
    if kind == "hinge":
        return np.where(y * pred < 1.0, -y, 0.0)
    m = y * pred
    e = np.exp(-np.abs(m))
    return -y * np.where(m >= 0.0, e, 1.0) / (1.0 + e)


def learner_block(zs, ys, eta, kind, mus, thetas):
    """Constant-step descent of R independent learners over one stream.

    zs (R, T, 2D) holds one encoded stream per learner and thetas (R, 2D) is
    updated in place.  Every row descends the loss ``kind``; the rows form
    G = len(mus) groups of R / G consecutive rows, and group g's μ = mus[g]
    sets its rows' shrink 2μ.  Returns a (3, T, R) record of each learner's
    pre-update prediction, squared weight norm and squared gradient norm.

    A step computes the prediction, the gradient and the update.  The
    weights before each step and each step's gradient stay in two block
    buffers of ``_STEP_BLOCK_BYTES`` together, and the record's two norm
    columns are reduced once per block, with the elementwise products and
    the per-row sum over 2D that a step would take, so the record is the
    same bit for bit.
    """
    n_rows, n_steps, width = zs.shape
    # the step's operands are whole (R, 2D) arrays: numpy multiplies two equal
    # shapes faster than it broadcasts a column or a Python float
    shape = (n_rows, width)
    shrink = np.repeat([2.0 * mu for mu in mus], n_rows // len(mus) * width).reshape(shape)
    rate = np.full(shape, eta, dtype=np.float64)
    record = np.empty((3, n_steps, n_rows))
    block = max(1, min(n_steps, _STEP_BLOCK_BYTES // (16 * n_rows * width)))
    # history[k] holds the weights before step k of a block, and the step
    # writes its update into history[k + 1]
    history = np.empty((block + 1,) + shape)
    grads = np.empty((block,) + shape)
    prod = np.empty(shape)
    scale = np.empty(n_rows)
    column = scale[:, None]
    history[0] = thetas
    rows = list(zip(history, history[1:], grads))
    by_step = zs.transpose(1, 0, 2)
    # local names for the nine numpy calls a step makes
    multiply, subtract, add, row_sum = np.multiply, np.subtract, np.add, np.add.reduce
    least_squares = kind == "least_squares"
    for t0 in range(0, n_steps, block):
        t1 = min(t0 + block, n_steps)
        labels = np.repeat(ys[t0:t1, None], n_rows, axis=1)
        for (theta, after, grad), z, y, pred in zip(rows, by_step[t0:t1], labels, record[0, t0:t1]):
            multiply(z, theta, prod)
            row_sum(prod, 1, None, pred)
            if least_squares:
                # cost_grad_scale's 2 (pred - y); x + x rounds as 2 x does
                subtract(pred, y, scale)
                add(scale, scale, scale)
            else:
                scale[:] = cost_grad_scale(kind, pred, y)
            multiply(column, z, grad)
            multiply(shrink, theta, prod)
            add(grad, prod, grad)
            multiply(grad, rate, prod)
            subtract(theta, prod, after)
        n = t1 - t0
        for buffer, out in ((history[:n], record[1, t0:t1]), (grads[:n], record[2, t0:t1])):
            multiply(buffer, buffer, buffer)
            row_sum(buffer, 2, None, out)
        history[0] = history[n]
    thetas[:] = history[0]
    return record


def mkl_stream(zs, ys, eta, kind, mus, thetas, logw):
    """Multi-kernel online pass with multiplicative weight updates, for a μ
    grid of G = len(mus) models of P kernels under the loss ``kind``.

    zs (G·P, T, 2D) holds one encoded stream per learner and thetas
    (G·P, 2D) its weights, the groups one after another; logw is (G, P).
    thetas and logw are updated in place; each row of logw is rescaled so its
    largest entry is 0, which leaves the normalized weights untouched.

    Returns (combined losses (T, G), per-kernel losses (T, G, P), normalized
    weights used at each step (T, G, P), combined predictions (T, G), largest
    gradient norm per kernel (G, P)).  All recorded values are pre-update, as
    the online protocol requires.  The hedge is replayed per group, and rows
    and groups never mix, so each group's arrays are those of its own pass,
    bit for bit.

    One sample and one μ take :func:`_one_step`, which returns the same
    arrays bit for bit: the replay folds the kernel axis as it does.
    """
    if len(ys) == 1 and len(mus) == 1:
        step = _one_step(zs[:, 0], float(ys[0]), eta, kind, mus[0], thetas, logw)
        if step is not None:
            return step
    record = learner_block(zs, ys, eta, kind, mus, thetas)
    n_steps = len(ys)
    # predictions and squared norms as (2, T, G, P)
    pred_norm = record[:2].reshape((2, n_steps) + logw.shape)
    preds, norms = pred_norm
    # μ as a (G, 1) column beside the kernel axis
    mu = np.array(mus)[:, None]
    y = ys[:, None, None]
    per_kernel = cost_value(kind, preds, y) + mu * norms
    # rows: the starting log-weights, then the log-weights after each step,
    # so the weights used at step t are row t; one max and one subtraction
    # rescale every row, the last one included, to a largest entry of 0
    hist = np.empty((n_steps + 1,) + logw.shape)
    hist[0] = logw
    after = hist[1:]
    np.minimum(np.maximum(per_kernel, 0.0, out=after), 1.0, out=after)
    np.add.accumulate(after, axis=0, out=after)
    after *= eta
    np.subtract(logw, after, out=after)
    hist -= np.maximum.accumulate(hist, axis=-1)[..., -1:]
    weights = np.exp(hist[:-1])
    weights /= np.add.accumulate(weights, axis=-1)[..., -1:]
    # weighted prediction and norm as (T, G, 1) columns, so that at P = 1 the
    # combined loss takes exactly the per-kernel loss's arithmetic; + 0.0
    # signs a sum of -0.0 entries as a sum that starts from 0.0
    f_hat, norm_bar = np.add.accumulate(weights * pred_norm, axis=-1)[..., -1:] + 0.0
    combined = (cost_value(kind, f_hat, y) + mu * norm_bar)[..., 0]
    if n_steps:
        logw[:] = hist[-1]
    max_grad = np.sqrt(np.maximum.reduce(record[2], axis=0, initial=0.0)).reshape(logw.shape)
    return combined, per_kernel, weights, f_hat[..., 0], max_grad


def _weights_floats(log_weights):
    """The normalised hedge weights of finite log-weights, as floats rounded
    as :func:`mkl_stream` rounds them.  Of equal entries (0.0 and -0.0)
    np.maximum keeps the later, as max over the reversed list does, and the
    sum runs left to right from 0.0."""
    top = max(reversed(log_weights))
    scale = np.exp(np.array([w - top for w in log_weights])).tolist()
    total = 0.0
    for s in scale:
        total += s
    return [s / total for s in scale]


def hedge_mix(log_weights, values) -> float:
    """The hedge-weighted sum of P per-kernel values, rounded as
    :func:`mkl_stream` rounds its combined prediction."""
    total = 0.0
    for w, v in zip(_weights_floats(log_weights.tolist()), values.tolist()):
        total += w * v
    return total


def _one_step(z, y, eta, kind, mu, thetas, logw):
    """:func:`mkl_stream` over one sample of P kernels and one μ, bit for
    bit.

    ``z`` is the (P, 2D) encoding and logw is (1, P).  Every operation of
    ``learner_block`` and of the hedge replay runs in the same order, the
    P-length hedge arithmetic on Python floats, through :func:`cost_value`
    and :func:`cost_grad_scale` of each float (plain float arithmetic for
    least squares).  Returns None,
    having changed nothing, when a prediction, norm, label, step or
    log-weight is not finite; the general path then runs.
    """
    # rows [z * theta, theta * theta]: one sum gives predictions and norms
    work = np.empty((2,) + z.shape)
    np.multiply(z, thetas, work[0])
    np.multiply(thetas, thetas, work[1])
    preds, norms = np.add.reduce(work, 2).tolist()
    log_weights = logw.tolist()[0]
    if not all(map(math.isfinite, [y, eta, mu, *preds, *norms, *log_weights])):
        return None
    grad = np.array([cost_grad_scale(kind, p, y) for p in preds])[:, None] * z
    grad += np.multiply(thetas, 2.0 * mu, work[0])
    grad_sq = np.add.reduce(np.multiply(grad, grad, work[1]), 1)
    grad *= eta
    thetas -= grad
    per_kernel, after, used = [], [], _weights_floats(log_weights)
    f_hat = norm_bar = 0.0
    for p, n, w, u in zip(preds, norms, log_weights, used):
        c = cost_value(kind, p, y) + mu * n
        per_kernel.append(c)
        after.append(w - eta * min(max(c, 0.0), 1.0))
        f_hat += u * p
        norm_bar += u * n
    combined = cost_value(kind, f_hat, y) + mu * norm_bar
    top = max(reversed(after))  # numpy's maximum, as in _weights_floats
    logw[0] = [w - top for w in after]
    # the stream's shapes at T = G = 1; ndmin costs less than nested lists
    return (np.array(combined, ndmin=2), np.array(per_kernel, ndmin=3), np.array(used, ndmin=3),
            np.array(f_hat, ndmin=2), np.sqrt(grad_sq)[None])
