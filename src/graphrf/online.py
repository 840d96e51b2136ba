"""The losses an online learner descends.

Each loss is a pointwise cost C(prediction, label) plus a squared-norm
regularizer mu * ||theta||^2.  Learners train in :mod:`graphrf.mkl`, whose
per-sample step runs in :mod:`graphrf._kernels`; :func:`loss_value` and
:func:`loss_grad` state the same loss and its gradient one sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

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
        if not self.mu >= 0:  # nan is refused too
            raise ValueError("mu must be >= 0")

    @property
    def code(self) -> int:
        return LOSS_KINDS[self.kind]


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
