"""Online multi-kernel learning with multiplicative weight updates.

P single-kernel learners run in parallel, each in its own random-feature
space; their predictions are combined with hedge weights that decay
exponentially in each kernel's own (clipped) loss.  With P = 1 the model
reduces bit-exactly to the single-kernel learner.

Weights are stored in the log domain.  Every update subtracts the running
maximum, which is a pure rescaling: normalized weights are invariant to it
and nothing can underflow on long streams.

Steps are strictly sequential; within a step the per-kernel updates are
independent.  Models are immutable snapshots, safe to share for prediction.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _kernels
from .features import RFMap, _map_bytes, _map_from_bytes, build_map
from .kernels import KernelSpec
from .online import (
    LossKind,
    SingleKernelState,
    _check_label,
    _stack_samples,
    checkpoint_record,
    init_state,
    state_from_record,
)


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-kernel integer seed derived from (base seed, index)."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


@dataclass(frozen=True)
class MklModel:
    """P learners, their frozen maps, and log-domain hedge weights."""

    learners: tuple[SingleKernelState, ...]
    maps: tuple[RFMap, ...]
    log_weights: np.ndarray
    eta: float
    seed: int | None = None

    def __post_init__(self):
        if len(self.learners) != len(self.maps) or not self.learners:
            raise ValueError("need one learner per map, at least one kernel")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1] for the weight update")
        w = np.ascontiguousarray(self.log_weights, dtype=np.float64).copy()
        if w.shape != (len(self.learners),):
            raise ValueError("log_weights length must equal the number of kernels")
        if not np.all(np.isfinite(w)):
            raise ValueError("log weights must be finite")
        for learner, rf_map in zip(self.learners, self.maps):
            if learner.map_ref != rf_map.ref:
                raise ValueError("learner/map pairing mismatch")
        w.setflags(write=False)
        object.__setattr__(self, "log_weights", w)

    @property
    def n_kernels(self) -> int:
        return len(self.learners)

    @property
    def weights(self) -> np.ndarray:
        """Un-normalized positive weights."""
        return np.exp(self.log_weights)

    @property
    def normalized_weights(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()


@dataclass(frozen=True)
class MklStepRecord:
    combined_loss: float
    per_kernel_losses: np.ndarray
    weights_used: np.ndarray


@dataclass(frozen=True)
class MklTraces:
    """Per-step records of one training pass (all pre-update quantities),
    plus each kernel's largest gradient norm over the pass."""

    combined_loss: np.ndarray
    per_kernel_loss: np.ndarray
    weights: np.ndarray
    prediction: np.ndarray
    max_grad: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.combined_loss.size)


def mkl_init(
    kernels: Sequence[KernelSpec],
    d: int,
    n: int,
    eta: float,
    mu: float,
    loss: LossKind | str,
    seed: int,
) -> MklModel:
    """Zero-initialized model with one independently seeded map per kernel."""
    maps = tuple(build_map(k, d, n, derive_seed(seed, p)) for p, k in enumerate(kernels))
    return mkl_from_maps(maps, eta, mu, loss, seed)


def mkl_from_maps(
    maps: Sequence[RFMap], eta: float, mu: float, loss: LossKind | str, seed: int | None
) -> MklModel:
    """Zero-initialized model over maps already drawn, e.g. by :func:`mkl_init`."""
    if not maps:
        raise ValueError("kernel dictionary is empty")
    if isinstance(loss, str):
        loss = LossKind(loss, mu)
    elif loss.mu != mu:
        loss = LossKind(loss.kind, mu)
    learners = tuple(init_state(m, eta, loss) for m in maps)
    log_weights = np.full(len(maps), -np.log(len(maps)))
    return MklModel(learners=learners, maps=tuple(maps), log_weights=log_weights, eta=eta, seed=seed)


def mkl_predict(model: MklModel, connectivity) -> float:
    """Hedge-weighted combination of the per-kernel predictions."""
    wbar = model.normalized_weights
    preds = np.array(
        [np.dot(lr.theta, m.encode(connectivity)) for lr, m in zip(model.learners, model.maps)]
    )
    return float(np.dot(wbar, preds))


def mkl_predict_batch(model: MklModel, patterns) -> np.ndarray:
    # one map's encoding at a time, each dropped once it has predicted
    preds = (m.encode_batch(patterns) @ lr.theta for lr, m in zip(model.learners, model.maps))
    return _combine(model, preds)


def mkl_predict_encoded(model: MklModel, zs: np.ndarray) -> np.ndarray:
    """Combined predictions from (P, T, 2D) encodings, e.g. of :func:`mkl_encode`."""
    return _combine(model, (z @ lr.theta for lr, z in zip(model.learners, zs)))


def _combine(model: MklModel, preds) -> np.ndarray:
    """Hedge-weighted sum of the per-kernel predictions, in kernel order."""
    out = None
    for w, pred in zip(model.normalized_weights, preds):
        contrib = w * pred
        out = contrib if out is None else out + contrib
    return out


def mkl_encode(model: MklModel, patterns) -> np.ndarray:
    """(P, T, 2D) encodings of T patterns under each of the P maps."""
    return np.stack([m.encode_batch(patterns) for m in model.maps])


def mkl_train_encoded(
    model: MklModel, zs: np.ndarray, labels
) -> tuple[MklModel, MklTraces]:
    """Sequential training pass over encodings from :func:`mkl_encode`."""
    labels = np.asarray(labels, dtype=np.float64)
    expected = (model.n_kernels, labels.size, 2 * model.maps[0].d)
    if zs.shape != expected:
        raise ValueError(f"encodings have shape {zs.shape}, expected {expected}")
    loss = model.learners[0].loss
    for y in labels:
        _check_label(loss, y)
    thetas = np.stack([lr.theta for lr in model.learners])
    logw = model.log_weights.copy()
    combined, per_kernel, weights_used, prediction, max_grad = _kernels.mkl_stream(
        zs, labels, model.eta, loss.mu, loss.code, thetas, logw
    )
    if not (np.isfinite(thetas).all() and np.isfinite(combined).all()):
        raise FloatingPointError("multi-kernel training diverged to non-finite values")
    learners = tuple(
        SingleKernelState(theta=thetas[p], eta=lr.eta, loss=lr.loss, map_ref=lr.map_ref)
        for p, lr in enumerate(model.learners)
    )
    new_model = MklModel(
        learners=learners, maps=model.maps, log_weights=logw, eta=model.eta, seed=model.seed
    )
    return new_model, MklTraces(combined, per_kernel, weights_used, prediction, max_grad)


def mkl_update(model: MklModel, connectivity, label: float) -> tuple[MklModel, MklStepRecord]:
    """One online step: every learner descends, every weight decays."""
    a = np.asarray(connectivity, dtype=np.float64)
    new_model, traces = mkl_train_encoded(model, mkl_encode(model, a[None, :]), [label])
    record = MklStepRecord(
        combined_loss=float(traces.combined_loss[0]),
        per_kernel_losses=traces.per_kernel_loss[0],
        weights_used=traces.weights[0],
    )
    return new_model, record


def mkl_train(model: MklModel, samples: Sequence) -> tuple[MklModel, MklTraces]:
    """Sequential pass over (connectivity, label) samples; see MklTraces."""
    patterns, labels = _stack_samples(samples, model.maps[0].n)
    return mkl_train_encoded(model, mkl_encode(model, patterns), labels)


def absorb_new_node_mkl(
    model: MklModel, connectivity, label: float | None = None
) -> tuple[float, MklModel]:
    """Combined prediction for a newly-joining node, plus an optional update.

    The node is encoded once per map; scoring and the update share it.
    """
    a = np.asarray(connectivity, dtype=np.float64)
    zs = mkl_encode(model, a[None, :])
    if label is None:
        thetas = np.stack([lr.theta for lr in model.learners])
        preds = (thetas * zs[:, 0]).sum(axis=1)
        return float((model.normalized_weights * preds).sum()), model
    new_model, traces = mkl_train_encoded(model, zs, [label])
    return float(traces.prediction[0]), new_model


def traces_to_tsv(traces: MklTraces, path) -> None:
    """One row per step: t, combined loss, P per-kernel losses, P weights."""
    n_kernels = traces.per_kernel_loss.shape[1] if traces.n_steps else 0
    _steps_to_tsv(
        path,
        ["combined_loss"] + [f"loss_{p}" for p in range(n_kernels)] + [f"weight_{p}" for p in range(n_kernels)],
        [traces.combined_loss, *traces.per_kernel_loss.T[:n_kernels], *traces.weights.T[:n_kernels]],
    )


def _steps_to_tsv(path, names, columns) -> None:
    """One row per step: t, then each column's value at that step, written
    with ``repr`` so it reads back bit-exactly."""
    lines = ["\t".join(["t", *names])]
    for t, values in enumerate(zip(*columns), start=1):
        lines.append("\t".join([str(t), *(repr(float(v)) for v in values)]))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_mkl_checkpoint(model: MklModel, path, config_text: str = "") -> None:
    """Bundle of learner checkpoints, weights, and a config fingerprint."""
    record = {
        "format": "graphrf-mkl-v2",
        "eta": model.eta,
        "seed": model.seed,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "log_weights_b64": base64.b64encode(
            np.ascontiguousarray(model.log_weights).astype("<f8").tobytes()
        ).decode("ascii"),
        "learners": [checkpoint_record(lr) for lr in model.learners],
        # the maps themselves, in save_map's layout: redrawing them from seeds
        # would depend on numpy's random streams staying the same
        "maps_b64": [base64.b64encode(_map_bytes(m)).decode("ascii") for m in model.maps],
    }
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def load_mkl_checkpoint(path) -> MklModel:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("format") == "graphrf-mkl-v1":
        raise ValueError("checkpoint stores map seeds, not the maps; it cannot be reloaded exactly")
    if record.get("format") != "graphrf-mkl-v2":
        raise ValueError("not a multi-kernel checkpoint")
    maps = tuple(_map_from_bytes(base64.b64decode(m, validate=True)) for m in record["maps_b64"])
    learners = tuple(state_from_record(r) for r in record["learners"])
    log_weights = np.frombuffer(
        base64.b64decode(record["log_weights_b64"]), dtype="<f8"
    ).astype(np.float64)
    return MklModel(
        learners=learners,
        maps=maps,
        log_weights=log_weights,
        eta=float(record["eta"]),
        seed=record["seed"],
    )


# ---------------------------------------------------------------------------
# Regret diagnostics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegretReport:
    """Cumulative online loss against a per-prefix batch comparator."""

    cumulative_online_loss: np.ndarray
    best_fixed_loss: np.ndarray
    regret: np.ndarray
    fitted_growth_exponent: float


def fit_growth_exponent(series: np.ndarray, t_min: int | None = None) -> float:
    """Log-log slope of a positive series against step index.

    Returns nan when fewer than two positive values fall in the fit window
    (e.g. an identically-zero regret series).
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n < 2:
        return float("nan")
    if t_min is None:
        t_min = max(8, n // 100)
    t = np.arange(1, n + 1)
    mask = (t >= t_min) & (series > 0)
    if mask.sum() < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(t[mask]), np.log(series[mask]), 1)
    return float(slope)


def static_regret(online_losses: np.ndarray, best_fixed_losses: np.ndarray) -> RegretReport:
    """Regret series: cumulative online loss minus the per-prefix oracle loss."""
    online_losses = np.asarray(online_losses, dtype=np.float64)
    best_fixed_losses = np.asarray(best_fixed_losses, dtype=np.float64)
    if online_losses.shape != best_fixed_losses.shape:
        raise ValueError("online and oracle loss series must have equal length")
    cum = np.cumsum(online_losses)
    regret = cum - best_fixed_losses
    return RegretReport(
        cumulative_online_loss=cum,
        best_fixed_loss=best_fixed_losses,
        regret=regret,
        fitted_growth_exponent=fit_growth_exponent(regret),
    )
