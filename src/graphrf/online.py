"""Single-kernel online learning in random-feature space.

The learner state is a 2D-dimensional weight vector updated by constant-step
online gradient descent.  Training consumes connectivity patterns, but the
update path itself only ever sees their encodings; see
:mod:`graphrf.features` for why that boundary matters.

Training is strictly sequential (updates are order-dependent).  States are
immutable snapshots.  Scoring, joining nodes and checkpoints are served by
:mod:`graphrf.mkl`, whose P = 1 model is this learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .features import RFMap

LOSS_KINDS = {
    "least_squares": _kernels.LOSS_LS,
    "hinge": _kernels.LOSS_HINGE,
    "logistic": _kernels.LOSS_LOGISTIC,
}

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
        if self.mu < 0:
            raise ValueError("mu must be >= 0")

    @property
    def code(self) -> int:
        return LOSS_KINDS[self.kind]


@dataclass(frozen=True)
class SingleKernelState:
    """Weight vector plus hyperparameters for one kernel's learner.

    eta = 0 is allowed and makes updates no-ops (useful for freezing a
    trained state); the multi-kernel combiner separately requires its step
    size in (0, 1].
    """

    theta: np.ndarray
    eta: float
    loss: LossKind
    map_ref: str

    def __post_init__(self):
        if not self.eta >= 0:
            raise ValueError("eta must be non-negative")
        t = np.ascontiguousarray(self.theta, dtype=np.float64).copy()
        t.setflags(write=False)
        object.__setattr__(self, "theta", t)


def init_state(rf_map: RFMap, eta: float, loss: LossKind) -> SingleKernelState:
    """Fresh all-zero state tied to a frozen map."""
    return SingleKernelState(
        theta=np.zeros(2 * rf_map.d), eta=eta, loss=loss, map_ref=rf_map.ref
    )


def _check_label(loss: LossKind, label: float) -> float:
    label = float(label)
    if not math.isfinite(label):
        raise ValueError(f"labels must be finite, got {label}")
    if loss.kind in _CLASSIFICATION and label not in (-1.0, 1.0):
        raise ValueError(f"{loss.kind} loss requires labels in {{-1, +1}}, got {label}")
    return label


def loss_value(loss: LossKind, prediction: float, label: float, theta_norm2: float = 0.0) -> float:
    """Regularized loss C(prediction, label) + mu * ||theta||^2."""
    label = _check_label(loss, label)
    return float(
        _kernels.cost_value(loss.code, float(prediction), label) + loss.mu * theta_norm2
    )


def loss_grad(loss: LossKind, z, theta, label: float) -> np.ndarray:
    """Gradient of the regularized loss with respect to theta."""
    z = np.asarray(z, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if z.shape != theta.shape:
        raise ValueError(f"z and theta shapes differ: {z.shape} vs {theta.shape}")
    label = _check_label(loss, label)
    pred = np.array([np.dot(theta, z)])
    g = _kernels.cost_grad_scale(loss.code, pred, label)[0]
    return g * z + 2.0 * loss.mu * theta


def ogd_step(state: SingleKernelState, z, label: float) -> SingleKernelState:
    """One constant-step gradient update on an encoded sample."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.shape != state.theta.shape:
        raise ValueError(
            f"encoded sample has length {z.shape[0] if z.ndim == 1 else z.shape}, "
            f"state expects {state.theta.shape[0]}"
        )
    label = _check_label(state.loss, label)
    new_state, _ = _stream(state, z[None, :], np.array([label]))
    return new_state


def _stream(state: SingleKernelState, zs: np.ndarray, labels: np.ndarray):
    """Run the learner over (T, 2D) encodings: the P = 1 case of the kernel."""
    thetas = state.theta[None, :].copy()
    _, losses, _, _, _ = _kernels.mkl_stream(
        zs[None], labels, state.eta, state.loss.mu, state.loss.code, thetas, np.zeros(1)
    )
    if not (np.isfinite(thetas).all() and np.isfinite(losses).all()):
        raise FloatingPointError(
            "training diverged to non-finite values; reduce eta or rescale labels"
        )
    new_state = SingleKernelState(
        theta=thetas[0], eta=state.eta, loss=state.loss, map_ref=state.map_ref
    )
    return new_state, losses[:, 0]


def _check_map(state: SingleKernelState, rf_map: RFMap) -> None:
    if state.map_ref != rf_map.ref:
        raise ValueError(f"state was trained with map {state.map_ref}, got {rf_map.ref}")


def _stack_samples(samples: Iterable, n: int):
    patterns, labels = [], []
    for pattern, label in samples:
        patterns.append(np.asarray(pattern, dtype=np.float64))
        labels.append(float(label))
    if not patterns:
        return np.empty((0, n)), np.empty(0)
    a = np.stack(patterns)
    if a.shape[1] != n:
        raise ValueError(f"connectivity vectors have length {a.shape[1]}, expected {n}")
    return a, np.array(labels)


def train_stream(
    state: SingleKernelState, samples: Sequence, rf_map: RFMap
) -> tuple[SingleKernelState, np.ndarray]:
    """Sequential online pass over (connectivity, label) samples.

    Returns the trained state and the per-step losses, each measured at the
    pre-update iterate as the regret bookkeeping requires.
    """
    _check_map(state, rf_map)
    patterns, labels = _stack_samples(samples, rf_map.n)
    for y in labels:
        _check_label(state.loss, y)
    zs = rf_map.encode_batch(patterns) if len(labels) else np.empty((0, 2 * rf_map.d))
    return _stream(state, zs, labels)
