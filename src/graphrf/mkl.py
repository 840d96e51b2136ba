"""Online multi-kernel learning with multiplicative weight updates.

P online learners run in parallel, each in its own random-feature space;
their predictions are combined with hedge weights that decay exponentially
in each kernel's own (clipped) loss.  A one-kernel learner is the P = 1
model: its weight stays 1 and its combined loss is its learner's loss.
Each learner of a P-kernel model trains exactly as the P = 1 model over its
map alone would.

Weights are stored in the log domain.  Every update subtracts the running
maximum, which is a pure rescaling: normalized weights are invariant to it
and nothing can underflow on long streams.

Steps are strictly sequential; within a step the per-kernel updates are
independent.  Every pass is a μ-grid pass: :func:`mkl_train_grid` trains
one model at each μ of a grid in one pass, each as it would train alone,
and a labelled join is a grid of one.  Models are immutable snapshots, safe
to share for prediction.  A model scores and absorbs a newly-joining node
(:func:`absorb_new_node_mkl`) and saves to, and reloads exactly from, one
JSON checkpoint.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import _kernels
from ._kernels import _CLASSIFICATION, LossKind, _check_label
from .features import RFMap, _map_bytes, _map_from_bytes, build_map, encode_stacked, one_node, project_stacked
from .kernels import KernelSpec


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-kernel integer seed derived from (base seed, index)."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])


@dataclass(frozen=True)
class MklModel:
    """P learners over their frozen maps, and log-domain hedge weights.

    ``thetas`` is the read-only (P, 2D) block of the learners' weights, row p
    for ``maps[p]``.  All P learners share the step size ``eta``, which also
    drives the hedge weights, and the ``loss``.  A ``loss`` that is not a
    ``LossKind``, or a ``seed`` that is neither None nor an integer, is
    refused; a numpy integer seed is stored as an int.
    """

    maps: tuple[RFMap, ...]
    thetas: np.ndarray
    log_weights: np.ndarray
    eta: float
    loss: LossKind
    seed: int | None = None

    def __post_init__(self):
        if not self.maps:
            raise ValueError("need at least one kernel")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1] for the weight update")
        if not isinstance(self.loss, LossKind):
            raise ValueError(f"loss must be a LossKind, got {self.loss!r}")
        if self.seed is not None:
            # bool is an int, but a checkpoint cannot reload it as a seed
            if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
                raise ValueError(f"seed must be an integer or None, got {self.seed!r}")
            object.__setattr__(self, "seed", int(self.seed))
        d, n = self.maps[0].d, self.maps[0].n
        for m in self.maps[1:]:
            if m.d != d:
                raise ValueError(f"all maps must have the same D, got {d} and {m.d}")
            if m.n != n:
                raise ValueError(f"all maps must have the same N, got {n} and {m.n}")
        thetas = np.array(self.thetas, dtype=np.float64, order="C")
        w = np.array(self.log_weights, dtype=np.float64, order="C")
        if thetas.shape != (len(self.maps), 2 * d) or w.shape != (len(self.maps),):
            raise ValueError(
                f"the maps need (P, 2D) = {(len(self.maps), 2 * d)} thetas and (P,) log_weights, "
                f"got {thetas.shape} and {w.shape}"
            )
        if not np.isfinite(thetas).all():
            raise ValueError("learner weights must be finite")
        _freeze(thetas, w)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "log_weights", w)

    @cached_property
    def _v_block(self) -> np.ndarray:
        """The maps' spectral matrices as one (P, D, N) block."""
        block = np.stack([m.v_matrix for m in self.maps])
        block.setflags(write=False)
        return block

    @property
    def n_kernels(self) -> int:
        return len(self.maps)

    @property
    def normalized_weights(self) -> np.ndarray:
        return np.array(_kernels._weights_floats(self.log_weights.tolist()))

    @property
    def learners(self) -> tuple[SimpleNamespace, ...]:
        """Row p of ``thetas`` as ``learners[p].theta``: only perfbench's join
        workload still reads it, and it goes once that reads ``thetas``."""
        return tuple(SimpleNamespace(theta=theta) for theta in self.thetas)


def _with_fields(obj, **fields):
    """Copy of a frozen dataclass with some fields replaced, without re-running
    its ``__post_init__``: for values whose checks the caller has done."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__)
    new.__dict__.update(fields)
    return new


def _finite(values) -> bool:
    """Whether every entry of an array, or one float, is finite.  A few
    entries are checked one by one, which is quicker than a numpy pass."""
    if isinstance(values, float):
        return math.isfinite(values)
    if values.size > 8:
        return bool(np.isfinite(values).all())
    return all(map(math.isfinite, values.ravel().tolist()))


def _freeze(thetas: np.ndarray, log_weights: np.ndarray) -> None:
    """Check the log weights finite and make both arrays read-only."""
    if not _finite(log_weights):
        raise ValueError("log weights must be finite")
    thetas.setflags(write=False)
    log_weights.setflags(write=False)


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
    loss: str,
    seed: int,
) -> MklModel:
    """Zero-initialized model with one independently seeded map per kernel,
    descending the loss of kind ``loss`` with regularization weight ``mu``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    maps = tuple(build_map(k, d, n, derive_seed(seed, p)) for p, k in enumerate(kernels))
    return mkl_from_maps(maps, eta, mu, loss, seed)


def mkl_from_maps(
    maps: Sequence[RFMap], eta: float, mu: float, loss: str, seed: int | None
) -> MklModel:
    """Zero-initialized model over maps already drawn, e.g. by :func:`mkl_init`."""
    if not maps:
        raise ValueError("kernel dictionary is empty")
    thetas = np.zeros((len(maps), 2 * maps[0].d))
    log_weights = np.full(len(maps), -np.log(len(maps)))
    return MklModel(tuple(maps), thetas, log_weights, eta, LossKind(loss, mu), seed)


def mkl_predict(model: MklModel, connectivity) -> float:
    """Hedge-weighted combination of the per-kernel predictions for one node:
    the one-row case of :func:`mkl_predict_batch`."""
    return float(mkl_predict_batch(model, one_node(connectivity))[0])


def mkl_predict_batch(model: MklModel, patterns) -> np.ndarray:
    """Hedge-weighted combination of the per-kernel predictions for the rows
    of a (T, N) array of patterns, combined as :func:`mkl_predict_encoded`
    combines them.

    With s and c the sine and cosine halves of a learner's θ and x = V a,
    the score θ.z(a) = D^{-1/2} sum_i (s_i sin x_i + c_i cos x_i) is read as
    sum_i rho_i sin(x_i + phi_i), with rho = hypot(s, c) D^{-1/2} and phi =
    atan2(c, s) (the phase-shifted form of random Fourier features; Rahimi
    and Recht, NIPS 2007): one sine per feature, not a sine and a cosine.
    The scores agree with scoring :func:`mkl_encode`'s encodings up to the
    rounding of x + phi, about eps * sum_i rho_i (|x_i| + pi) per kernel.
    rho and phi are derived on each call, never cached: :func:`_with_fields`
    copies a model's cached values into every model trained from it.
    """
    d = model.maps[0].d
    sines, cosines = model.thetas[:, :d], model.thetas[:, d:]
    amplitude = np.hypot(sines, cosines)
    amplitude *= d**-0.5
    phase = np.arctan2(cosines, sines)
    # one map's (T, D) projection at a time, shifted and taken through sin in place
    xs = (project_stacked(model._v_block[p : p + 1], patterns)[0] for p in range(model.n_kernels))
    waves = (np.sin(np.add(x, phi, out=x), out=x) for x, phi in zip(xs, phase))
    return _combined(model, waves, amplitude)


def mkl_predict_encoded(model: MklModel, zs) -> np.ndarray:
    """Hedge-weighted sum of the per-kernel predictions, in kernel order, from
    P encodings of T rows: the (P, T, 2D) block of :func:`mkl_encode`, or any
    iterable of one (T, 2D) encoding per map."""
    return _combined(model, zs, model.thetas)


def _combined(model: MklModel, features, weights: np.ndarray) -> np.ndarray:
    """sum_p w_p (features_p @ weights_p), in kernel order, with w the model's
    normalized hedge weights."""
    out = None
    # map, unlike zip, keeps no reference to a feature block while the next is drawn
    for w, pred in zip(model.normalized_weights, map(np.matmul, features, weights)):
        contrib = w * pred
        out = contrib if out is None else out + contrib
    return out


def mkl_encode(model: MklModel, patterns) -> np.ndarray:
    """(P, T, 2D) encodings of T patterns under each of the P maps.

    One call of :func:`~graphrf.features.encode_stacked` covers all P maps.
    The stack of their spectral matrices is built on a model's first encoding
    and passed on to every model trained from it.
    """
    return encode_stacked(model._v_block, patterns)


def mkl_train_encoded(
    model: MklModel, zs: np.ndarray, labels
) -> tuple[MklModel, MklTraces]:
    """Sequential pass over :func:`mkl_encode` encodings: the grid of one μ."""
    return mkl_train_grid(model, [model.loss.mu], zs, labels)[0]


def mkl_train_grid(
    model: MklModel, mus: Sequence[float], zs: np.ndarray, labels
) -> list[tuple[MklModel, MklTraces]]:
    """``model`` trained at each μ of ``mus``, in one ``_kernels.mkl_stream``
    pass over G stacked copies of its encoding.  Each result is ``model``
    with its loss's μ replaced, so the G models share maps, weights, eta and
    loss kind by construction, and each trains as its own one-model pass,
    bit for bit (``test_grid_pass_is_each_groups_frozen_pass_bit_for_bit``).
    """
    if not len(mus):
        raise ValueError("a grid pass needs at least one mu; mus is empty")
    labels = _checked_labels(model, zs, labels)
    kind = model.loss.kind
    thetas = np.tile(model.thetas, (len(mus), 1))
    logw = np.tile(model.log_weights, (len(mus), 1))
    stream = _kernels.mkl_stream(np.concatenate([zs] * len(mus)), labels, model.eta, kind, mus, thetas, logw)
    return [
        (_checked(_with_fields(model, loss=LossKind(kind, mu)), theta.copy(), logw[g].copy(), stream[0][:, g]),
         MklTraces(*(a[:, g] for a in stream[:4]), stream[4][g]))
        for g, (mu, theta) in enumerate(zip(mus, thetas.reshape((len(mus),) + model.thetas.shape)))
    ]


def _checked_labels(model: MklModel, zs: np.ndarray, labels) -> np.ndarray:
    """The labels as a float array, checked against the encodings' shape and
    the loss, or a ``ValueError`` naming the first bad label."""
    labels = _label_array(labels)
    expected = (model.n_kernels, labels.size, model.thetas.shape[1])
    if zs.shape != expected:
        raise ValueError(f"encodings have shape {zs.shape}, expected {expected}")
    ok = np.isfinite(labels)
    if model.loss.kind in _CLASSIFICATION:
        ok &= np.abs(labels) == 1.0
    if np.count_nonzero(ok) < labels.size:
        _check_label(model.loss, labels[np.argmin(ok)])  # raises, naming the first bad label
    return labels


def _label_array(labels) -> np.ndarray:
    """Labels as one 1-d float array, or a ``ValueError`` naming their shape."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be one 1-d array of T labels, got shape {labels.shape}")
    return labels


def _checked(model: MklModel, thetas: np.ndarray, logw: np.ndarray, combined) -> MklModel:
    """``model`` with the weights a pass left, frozen, or a
    ``FloatingPointError`` if a weight or a combined loss (an array of them,
    or a join's one float) is not finite."""
    if not (np.isfinite(thetas).all() and _finite(combined)):
        raise FloatingPointError("multi-kernel training diverged to non-finite values")
    # the maps and eta carry over, so their checks are not repeated, and
    # neither is the stacking of the maps that mkl_encode caches on the model
    _freeze(thetas, logw)
    return _with_fields(model, thetas=thetas, log_weights=logw)


def mkl_update(model: MklModel, connectivity, label: float) -> tuple[MklModel, MklTraces]:
    """One online step: every learner descends, every weight decays.  The
    sample's (P, 1, 2D) encoding runs through the stream as a grid of one μ
    (its one-step branch), and the traces hold that step.  A labelled
    :func:`absorb_new_node_mkl` takes the same step without the traces.
    The label is checked as a training pass checks it."""
    zs = mkl_encode(model, one_node(connectivity))
    labels = _label_array([label])
    _check_label(model.loss, labels[0])
    thetas, logw = model.thetas.copy(), model.log_weights.copy()
    stream = _kernels.mkl_stream(zs, labels, model.eta, model.loss.kind, [model.loss.mu], thetas, logw[None])
    return _checked(model, thetas, logw, stream[0]), MklTraces(*(a[:, 0] for a in stream[:4]), stream[4][0])


def mkl_train(model: MklModel, samples: Sequence) -> tuple[MklModel, MklTraces]:
    """Sequential pass over (connectivity, label) samples; see MklTraces."""
    samples = list(samples)
    patterns = np.stack([p for p, _ in samples]) if samples else np.empty((0, model.maps[0].n))
    return mkl_train_encoded(model, mkl_encode(model, patterns), [label for _, label in samples])


def absorb_new_node_mkl(
    model: MklModel, connectivity, label: float | None = None
) -> tuple[float, MklModel]:
    """Combined prediction for a newly-joining node, plus an optional update.

    The node is encoded once, in one call for all P maps; scoring and the
    update share that encoding.  The update is :func:`mkl_update`'s step,
    with the same label check, run without its traces: the stream returns
    only the combined loss, which is checked finite, and the prediction.
    The score-only sum mirrors the arithmetic of that step (products summed
    per kernel, then :func:`~graphrf._kernels.hedge_mix`), so a node scores
    bit-identically with or without its label;
    :func:`mkl_predict_encoded`'s matrix products round differently.
    """
    zs = mkl_encode(model, one_node(connectivity))
    if label is None:
        return _kernels.hedge_mix(model.log_weights, (model.thetas * zs[:, 0]).sum(axis=1)), model
    labels = _label_array([label])
    _check_label(model.loss, labels[0])
    thetas, logw = model.thetas.copy(), model.log_weights.copy()
    combined, prediction = _kernels.mkl_stream(
        zs, labels, model.eta, model.loss.kind, [model.loss.mu], thetas, logw[None], False
    )
    return prediction, _checked(model, thetas, logw, combined)


def _b64(values: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(values).astype("<f8").tobytes()).decode("ascii")


def save_mkl_checkpoint(model: MklModel, path) -> None:
    """The model as JSON.  Each learner record repeats the shared eta and loss
    and names its map; the maps themselves follow in save_map's layout, since
    redrawing them from seeds would depend on numpy's random streams."""
    record = {
        "format": "graphrf-mkl-v2",
        "eta": model.eta,
        "seed": model.seed,
        "log_weights_b64": _b64(model.log_weights),
        "learners": [
            {"format": "graphrf-checkpoint-v1", "map_ref": m.ref, "eta": model.eta,
             "loss": {"kind": model.loss.kind, "mu": model.loss.mu}, "theta_b64": _b64(theta)}
            for theta, m in zip(model.thetas, model.maps)
        ],
        "maps_b64": [base64.b64encode(_map_bytes(m)).decode("ascii") for m in model.maps],
    }
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def _require_fields(record: dict, fields: Sequence[str], what: str) -> None:
    """Refuse a loaded record that lacks one of ``fields``, naming it."""
    for name in fields:
        if name not in record:
            raise ValueError(f"{what} is missing the field {name!r}")


def _parsed(field: str, parse, value):
    """``parse(value)``, with the error that a malformed value raises refused
    as a ``ValueError`` naming the checkpoint field."""
    try:
        return parse(value)
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"checkpoint field {field} is malformed ({type(exc).__name__}: {exc})") from None


def _doubles(field: str, text) -> np.ndarray:
    """The finite little-endian doubles that a base64 checkpoint field holds."""
    values = _parsed(field, lambda t: np.frombuffer(base64.b64decode(t, validate=True), dtype="<f8"), text)
    if not np.isfinite(values).all():
        raise ValueError(f"checkpoint field {field} holds non-finite values")
    return values


def _loss_from_record(record: dict) -> LossKind:
    """A learner record's ``loss`` field as the loss it saved."""
    mu = record["mu"]
    # a JSON number: float() would also take a bool or a numeric string
    if type(mu) not in (int, float):
        raise TypeError(f"loss mu must be a number, got {mu!r}")
    return LossKind(record["kind"], float(mu))


def load_mkl_checkpoint(path) -> MklModel:
    """Reload a :func:`save_mkl_checkpoint` file exactly, or refuse it with a
    ``ValueError`` that names the field at fault."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(record, dict):
        raise ValueError("not a multi-kernel checkpoint")
    if record.get("format") == "graphrf-mkl-v1":
        raise ValueError("checkpoint stores map seeds, not the maps; it cannot be reloaded exactly")
    if record.get("format") != "graphrf-mkl-v2":
        raise ValueError(f"not a multi-kernel checkpoint: its field format is {record.get('format')!r}")
    _require_fields(record, ("eta", "seed", "log_weights_b64", "learners", "maps_b64"), "checkpoint")
    eta, seed = record["eta"], record["seed"]
    # a JSON number: float() would also take a bool or a numeric string
    if type(eta) not in (int, float) or not 0.0 < eta <= 1.0:
        raise ValueError(f"checkpoint field eta must be a number in (0, 1], got {eta!r}")
    if not (seed is None or type(seed) is int):
        raise ValueError(f"checkpoint field seed must be an integer or null, got {seed!r}")
    for name in ("learners", "maps_b64"):
        if not isinstance(record[name], list):
            raise ValueError(f"checkpoint field {name} must be a list, got {type(record[name]).__name__}")
    maps = tuple(
        _parsed(f"maps_b64[{p}]", lambda t: _map_from_bytes(base64.b64decode(t, validate=True)), m)
        for p, m in enumerate(record["maps_b64"])
    )
    if not maps:
        raise ValueError("checkpoint field maps_b64 holds no maps")
    shapes = sorted({(m.d, m.n) for m in maps})
    if len(shapes) > 1:
        raise ValueError(f"checkpoint field maps_b64 holds maps of (D, N) = {shapes}; all must agree")
    if len(record["learners"]) != len(maps):
        raise ValueError(f"checkpoint fields learners and maps_b64 hold {len(record['learners'])} "
                         f"and {len(maps)} records, expected one learner per map")
    first = record["learners"][0]
    thetas = []
    for p, (learner, rf_map) in enumerate(zip(record["learners"], maps)):
        field = f"checkpoint field learners[{p}]"
        if not isinstance(learner, dict):
            raise ValueError(f"{field} is not a learner record")
        if learner.get("format") != "graphrf-checkpoint-v1":
            raise ValueError(f"{field} is not a learner record: its field format is {learner.get('format')!r}")
        _require_fields(learner, ("map_ref", "eta", "loss", "theta_b64"), field)
        learner_loss = _parsed(f"learners[{p}].loss", _loss_from_record, learner["loss"])
        if p == 0:
            loss = learner_loss
        elif learner_loss != loss:
            raise ValueError(f"{field}.loss is {learner['loss']}, but learners[0].loss is {first['loss']}")
        if type(learner["eta"]) not in (int, float) or learner["eta"] != eta:
            raise ValueError(f"{field}.eta is {learner['eta']!r}, but the model's eta is {eta!r}")
        if learner["map_ref"] != rf_map.ref:
            raise ValueError(f"{field}.map_ref is {learner['map_ref']!r}, but its map is {rf_map.ref!r}")
        theta = _doubles(f"learners[{p}].theta_b64", learner["theta_b64"])
        if theta.size != 2 * rf_map.d:
            raise ValueError(f"{field}.theta_b64 holds {theta.size} values, its map needs 2D = {2 * rf_map.d}")
        thetas.append(theta)
    log_weights = _doubles("log_weights_b64", record["log_weights_b64"])
    if log_weights.size != len(maps):
        raise ValueError(f"checkpoint field log_weights_b64 holds {log_weights.size} values, "
                         f"expected one per kernel ({len(maps)})")
    return MklModel(maps, np.stack(thetas), log_weights, float(eta), loss, seed)

