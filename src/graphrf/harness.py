"""Experiment harness: the trial protocol and the four runs (synthetic and
dataset benchmarks, regret runs, and new-node runtime scaling), with the
regret runs' prefix oracle and bound check.  What a run may be asked is
decided in :mod:`graphrf.config`, and what it writes in :mod:`graphrf.report`.

Protocol, mirroring the synthetic benchmark design: sample M nodes of an
N-node graph, train every enabled method on those M nodes only (their
connectivity restricted to the sampled set), then score every remaining node
as a newly-joining node from its connectivity to the sampled set.  Error is
reported as NMSE over the unsampled set in two conventions (with and without
the extra 1/|S^c| factor), because published figures do not disambiguate
which one was plotted.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# knn_predict and mkl_train are not called here: they stay importable as
# harness.knn_predict and harness.mkl_train, names the perfbench tracer wraps
from .baselines import (
    batch_kernel_ridge,
    batch_rf_ls,
    knn_predict,  # noqa: F401
    knn_predict_batch,
    spectral_ridge_predict,
)
from .config import ExperimentConfig, _check_run
from .graph import (
    Graph,
    _check_weights,
    _draw_plan,
    _normalized_laplacian,
    erdos_renyi,
    load_edge_list,
    load_labels,
    node_patterns,
    sample_nodes,
    synth_signal,
)
from .kernels import (
    GraphKernelSpec,
    KernelSpec,
    eval_kernel_matrix,
    graph_kernel_matrix,
    graph_kernel_response,
    row_chunk,
)
from .mkl import (
    MklTraces,
    mkl_encode,
    mkl_init,
    mkl_predict_batch,
    mkl_predict_encoded,
    mkl_train,  # noqa: F401
    mkl_train_encoded,
    mkl_train_grid,
)
from .report import MethodRow, Report, _mkl_trace_table


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def nmse(estimates, truth) -> float:
    """(1/|S^c|) ||err||^2 / ||truth||^2, the printed convention."""
    return conventional_nmse(estimates, truth) / np.asarray(truth).size


def conventional_nmse(estimates, truth) -> float:
    """||err||^2 / ||truth||^2 without the extra set-size factor."""
    est = np.asarray(estimates, dtype=np.float64)
    tru = np.asarray(truth, dtype=np.float64)
    if est.shape != tru.shape or est.size == 0:
        raise ValueError("estimates and truth must be equal-length and non-empty")
    denom = float(np.dot(tru, tru))
    if denom == 0.0:
        raise ValueError("NMSE undefined for a zero-norm truth vector")
    err = est - tru
    return float(np.dot(err, err)) / denom


# ---------------------------------------------------------------------------
# Shared per-trial machinery.
# ---------------------------------------------------------------------------


def _trial_seeds(base_seed: int, trial: int) -> dict:
    state = np.random.SeedSequence([int(base_seed), int(trial)]).generate_state(5)
    names = ("graph", "signal", "plan", "map", "stream")
    return {name: int(s) for name, s in zip(names, state)}


def _standardize(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean()
    std = centered.std()
    return centered / std if std > 0 else centered


# The connectivity truths stream K alpha in blocks of one row chunk, but of
# at least this many rows: each block's product reads every pattern again,
# and at 8 rows of a 20,000-node graph that read makes the signal about five
# times slower than at 128.
_TRUTH_MIN_ROWS = 128


def _truth_kernel(config: ExperimentConfig, g: Graph, anchor):
    """The ground truth's K alpha, as a function of alpha, for
    :func:`~graphrf.graph.synth_signal`.

    ``identity`` copies alpha, which is exactly ``np.eye(n) @ alpha``.
    ``diffusion`` is a spectral function of the whole graph, so its N×N
    kernel is built.  The two connectivity truths build their patterns and
    their squared row norms once and stream K alpha in blocks of
    :func:`~graphrf.kernels.row_chunk` rows, or of ``_TRUTH_MIN_ROWS`` if
    that is more, so no N×N kernel exists.
    Blocks start at multiples of 8 rows, where K @ alpha starts its groups
    of rows, and a lone last row joins the block before it, as numpy
    multiplies a one-row block as a dot product.  So the signal is the
    dense recipe's bit for bit wherever the block's kernel rows are the
    whole kernel's: always for 0/1 patterns, whose products are exact;
    normalised patterns can move the last bits once N spans blocks.

    ``connectivity`` follows the literal recipe (Gaussian kernel over whole
    connectivity patterns); on dense random graphs of a few hundred nodes or
    more the pairwise distances concentrate and that matrix is numerically a
    scaled identity plus a constant, so no method can beat the mean
    predictor.  ``connectivity_anchored`` instead evaluates the kernel on
    connectivity to the sampled anchor set, which is exactly what learners
    observe and keeps the benchmark informative.
    """
    n = g.n_nodes
    if config.scenario == "identity":
        return np.copy
    if config.scenario == "diffusion":
        spec = GraphKernelSpec("diffusion", sigma2=config.truth_sigma2)
        return lambda alpha: graph_kernel_matrix(g, spec) @ alpha
    every = np.arange(n)
    if config.scenario == "connectivity_anchored":
        patterns = node_patterns(g, anchor, every, config.pattern_mode)
    else:
        patterns = node_patterns(g, every, every, config.pattern_mode, config.normalize_patterns)
    spec = KernelSpec("gaussian", config.truth_sigma2)
    starts = list(range(0, n, max(_TRUTH_MIN_ROWS, row_chunk(8 * n))))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [n]))
    norms = (patterns * patterns).sum(axis=1)
    return lambda alpha: np.concatenate(
        [eval_kernel_matrix(spec, patterns[i:j], patterns, norms) @ alpha for i, j in bounds]
    )


def _select(grid, y, cv_fraction: float, cv_predict):
    """Pick the grid entry with the least held-out MSE over the training
    nodes.  The validation nodes are the tail of the training order:
    ``cv_predict(n)`` fits every grid entry on nodes ``[:n]`` and returns
    each entry's predictions of ``[n:]``, in grid order.

    The first minimum wins and a NaN MSE is never chosen.
    """
    # at least one training node and at least one validation node, if y allows
    n = min(max(1, int(round((1.0 - cv_fraction) * len(y)))), len(y) - 1)
    if n < 1 or len(grid) == 1:
        return grid[0]
    best, best_mse = grid[0], math.inf
    for params, preds in zip(grid, cv_predict(n), strict=True):
        mse = float(np.mean((preds - y[n:]) ** 2))
        if mse < best_mse:
            best, best_mse = params, mse
    return best


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Runners.
# ---------------------------------------------------------------------------


@dataclass
class _Fitted:
    """One method fitted on a trial's sampled nodes."""

    mu: float | None
    refit: Callable[[], object] | None  # repeats the final fit; None: no training step
    score: Callable  # eval inputs -> (predictions, count of nodes it could not score)
    inputs: np.ndarray  # the unsampled nodes as ``score`` takes them
    notes: str = ""
    traces: MklTraces | None = None  # of the final MKL fit


# Byte budget of the (B, M+1, M+1) stack of grown adjacencies the gk scorer
# decomposes in one batch; its Laplacian and eigenvector stacks are as large.
# 512 KB keeps the new-node benchmark's peak RSS within about 1 MB.
_GK_BLOCK_BYTES = 1 << 19


def _gk_new_node_scores(sub: np.ndarray, new_patterns, spec: GraphKernelSpec, y: np.ndarray,
                        mu: float) -> np.ndarray:
    """Graph-kernel ridge prediction of each new node from the spectrum of
    the sampled subgraph ``sub`` grown by that node alone, bit for bit as
    node by node, a block of nodes at a time: one stacked Laplacian, one
    ``eigh`` call (LAPACK still runs once per node) and one spectral readout.
    ``sub`` comes from a checked graph and each mirror is symmetric by
    construction, so only the incoming patterns are checked.  The first
    refused node's refusal is raised."""
    m = sub.shape[0]
    new_patterns = np.asarray(new_patterns, dtype=np.float64)
    if new_patterns.ndim != 2 or new_patterns.shape[1] != m:
        raise ValueError(f"need (nodes, {m}) new-node patterns, got shape {new_patterns.shape}")
    rows = max(1, _GK_BLOCK_BYTES // (8 * (m + 1) ** 2))
    grown = np.zeros((min(rows, len(new_patterns)), m + 1, m + 1))
    grown[:, :m, :m] = sub
    out = np.empty(len(new_patterns))
    for start in range(0, len(new_patterns), rows):
        block = new_patterns[start : start + rows]
        _check_weights(block)
        stack = grown[: len(block)]
        stack[:, m, :m] = block
        stack[:, :m, m] = block
        lam, u = np.linalg.eigh(_normalized_laplacian(stack))
        out[start : start + len(block)] = spectral_ridge_predict(u, graph_kernel_response(spec, lam), y, mu)
    return out


def _fit_method(method: str, config, g: Graph, plan, seeds, y, train_x, eval_x) -> _Fitted:
    """Select and fit one method; mkl and kl score learner features, gk raw
    column connectivity and knn node ids.  Every CV fit reads a prefix of
    the method's one trial-level input, as :func:`_select` splits."""
    if method == "mkl":
        # mu enters only the loss, so the maps are drawn and the training
        # patterns encoded once, and every fit is a grid pass of the zero
        # model base over rows of the encoding: CV's over the whole grid at
        # its prefix's eta, the final fit's over the chosen mu.  The timed
        # refit encodes again, as kl's refit evaluates its gram again.
        base = mkl_init(config.kernel_specs(), config.d, train_x.shape[1], config.eta_value(len(y)),
                        config.mu_grid[0], config.loss, seeds["map"])
        zs = mkl_encode(base, train_x)

        def cv_predict(n):
            trained = mkl_train_grid(replace(base, eta=config.eta_value(n)), config.mu_grid, zs[:, :n], y[:n])
            return [mkl_predict_encoded(fitted, zs[:, n:]) for fitted, _ in trained]

        mu = _select(config.mu_grid, y, config.cv_fraction, cv_predict)
        final, traces = mkl_train_grid(base, [mu], zs, y)[0]
        return _Fitted(
            mu=mu, refit=lambda: mkl_train_grid(base, [mu], mkl_encode(base, train_x), y)[0],
            score=lambda xs: (mkl_predict_batch(final, xs), 0), inputs=eval_x, traces=traces,
        )
    if method == "kl":
        # exact connectivity-kernel ridge, no RF approximation.  Its kernel is
        # defined entry by entry, so each CV fit reads a corner of one gram.
        spec = KernelSpec("gaussian", config.kl_sigma2)
        gram = eval_kernel_matrix(spec, train_x, train_x)

        def cv_predict(n):
            return [gram[n:, :n] @ batch_kernel_ridge(gram[:n, :n], y[:n], mu) for mu in config.mu_grid]

        mu = _select(config.mu_grid, y, config.cv_fraction, cv_predict)
        alpha = batch_kernel_ridge(gram, y, mu)
        return _Fitted(
            mu=mu,
            refit=lambda: batch_kernel_ridge(eval_kernel_matrix(spec, train_x, train_x), y, mu),
            score=lambda xs: (eval_kernel_matrix(spec, xs, train_x) @ alpha, 0),
            inputs=eval_x,
        )
    if method in ("gk_df", "gk_bl"):
        # Graph-kernel ridge on the sampled subgraph.  CV scores are computed
        # transductively inside it.  Each new node rebuilds the Laplacian at
        # size M+1 and pays its own (M+1) eigendecomposition, the deliberately
        # cubic re-solve the runtime benchmark is about; the prediction is
        # read off that spectrum, so no kernel matrix or ridge solve is formed,
        # and new nodes are scored in blocks (:func:`_gk_new_node_scores`).
        m = plan.sampled.size
        # the sampled nodes' own patterns are the induced subgraph, as float64
        sub = node_patterns(g, plan.sampled, plan.sampled)
        sub.setflags(write=False)  # fresh and never written: Graph adopts it
        # one spec per knob, in grid order: _select keeps the first of equal errors
        knobs = config.gk_sigma2_grid if method == "gk_df" else sorted({min(b, m) for b in config.band_grid})
        specs = {knob: GraphKernelSpec("diffusion", sigma2=knob) if method == "gk_df"
                 else GraphKernelSpec("bandlimited", band_size=int(knob)) for knob in knobs}
        grid = [(mu, knob) for mu in config.mu_grid for knob in specs]

        def cv_predict(n):
            # each knob's two kernels, on the subgraph and on its CV prefix,
            # serve every mu; zip regroups the predictions mu by mu, as grid runs
            by_knob = []
            for spec in specs.values():
                whole, prefix = (graph_kernel_matrix(Graph(a), spec) for a in (sub, sub[:n, :n]))
                by_knob.append([whole[n:, :n] @ batch_kernel_ridge(prefix, y[:n], mu) for mu in config.mu_grid])
            return [preds for by_mu in zip(*by_knob) for preds in by_mu]

        mu, knob = _select(grid, y, config.cv_fraction, cv_predict)
        return _Fitted(
            mu=mu,
            refit=lambda: batch_kernel_ridge(graph_kernel_matrix(Graph(sub), specs[knob]), y, mu),
            score=lambda new_patterns: (_gk_new_node_scores(sub, new_patterns, specs[knob], y, mu), 0),
            # GK consumes raw connectivity to the sampled set, not the
            # normalized learner features.
            inputs=node_patterns(g, plan.sampled, plan.unsampled),
            notes=f"knob={knob}",
        )
    labeled = {int(node): float(val) for node, val in zip(plan.sampled, y)}
    # no node has more candidates than there are labeled nodes, so this k
    # averages every labeled neighbor; the weighted degree would drop some on
    # edges lighter than 1
    k = len(labeled)

    def score(nodes):
        """Nodes with no labeled neighbor fall back to the mean training
        label, so the NMSE stays defined; their count is reported alongside."""
        preds, inapplicable = knn_predict_batch(g, labeled, nodes, k)
        preds[inapplicable] = float(np.mean(y))
        return preds, int(inapplicable.sum())

    return _Fitted(mu=None, refit=None, score=score, inputs=plan.unsampled)


def _run_trials(
    config: ExperimentConfig, trials, trial_name=lambda i: f"trial {i}"
) -> tuple[list[MethodRow], dict]:
    """The trial protocol.  For each drawn trial ``(g, plan, x, seeds)``,
    train every enabled method on the sampled nodes and score the rest as
    newly-joining nodes.  ``trials`` may be a generator: one trial is held
    at a time.  A trial with no unsampled node, or whose unsampled truth is
    all zero, has no NMSE: its note says why, naming the trial by
    ``trial_name`` of its 1-based index.  Returns one row per method,
    aggregated over the trials, and the per-step table of each method's
    first MklTraces as ``<method>_trial0`` (only mkl has any)."""
    keys = ("nmse", "nmse_conv", "failures", "notes", "mu", "train", "newnode")
    acc = {method: {key: [] for key in keys} for method in config.methods}
    first_traces = {}
    n_trials = 0
    for g, plan, x, seeds in trials:
        n_trials += 1
        n_nodes, n_sampled = g.n_nodes, plan.n_sampled
        y = x[plan.sampled]
        train_x = node_patterns(g, plan.sampled, plan.sampled, config.pattern_mode, config.normalize_patterns)
        eval_x = node_patterns(g, plan.sampled, plan.unsampled, config.pattern_mode, config.normalize_patterns)
        truth_eval = x[plan.unsampled]
        undefined = ("empty eval set" if not truth_eval.size
                     else f"zero truth on the unsampled nodes of {trial_name(n_trials)}" if not truth_eval.any()
                     else None)
        for method in config.methods:
            fitted = _fit_method(method, config, g, plan, seeds, y, train_x, eval_x)
            if fitted.traces is not None:
                first_traces.setdefault(method, fitted.traces)
            if undefined is None:
                preds, failures = fitted.score(fitted.inputs)
                scored = (nmse(preds, truth_eval), conventional_nmse(preds, truth_eval), failures, fitted.notes)
            else:
                scored = (None, None, 0, f"{fitted.notes} nmse undefined: {undefined}".strip())
            for key, value in zip(keys, (*scored, fitted.mu)):
                acc[method][key].append(value)
            if config.measure_runtime:
                subset = fitted.inputs[: config.timing_nodes]
                if fitted.refit is not None:
                    acc[method]["train"].append(_median_time(fitted.refit, config.timing_reps))
                elif len(subset):
                    acc[method]["train"].append(0.0)
                if len(subset):
                    score_time = _median_time(lambda: fitted.score(subset), config.timing_reps)
                    acc[method]["newnode"].append(score_time / len(subset))
        # a for loop keeps its names bound: unbind this trial's graph, arrays
        # and last scorer, so that they are freed before the next draw
        del g, plan, x, y, train_x, eval_x, truth_eval, fitted
    rows = []
    for method in sorted(acc):
        vals = [v for v in acc[method]["nmse"] if v is not None]
        conv = [v for v in acc[method]["nmse_conv"] if v is not None]
        train, newnode = acc[method]["train"], acc[method]["newnode"]
        rows.append(
            MethodRow(
                method=method,
                n_nodes=n_nodes,
                n_sampled=n_sampled,
                trials=n_trials,
                nmse_mean=float(np.mean(vals)) if vals else None,
                nmse_std=float(np.std(vals)) if vals else None,
                nmse_conv_mean=float(np.mean(conv)) if vals else None,
                nmse_conv_std=float(np.std(conv)) if vals else None,
                mu_selected=[m for m in acc[method]["mu"] if m is not None],
                train_time=statistics.median(train) if train else None,
                newnode_time=statistics.median(newnode) if newnode else None,
                knn_failures=sum(acc[method]["failures"]),
                notes="; ".join(dict.fromkeys(n for n in acc[method]["notes"] if n)),
            )
        )
    return rows, {f"{method}_trial0": _mkl_trace_table(t) for method, t in first_traces.items()}


def _draw_trial(config: ExperimentConfig, n: int, seeds: dict, sample: bool = True):
    """One random graph on n nodes, M of its nodes sampled, and the signal
    on every node: ``(g, plan, x)``.  Without ``sample`` the plan is None;
    it has its own seed, so leaving it out moves nothing else."""
    g = erdos_renyi(n, config.edge_prob, seeds["graph"])
    plan = sample_nodes(g, max(1, math.ceil(config.sample_fraction * n)), seeds["plan"]) if sample else None
    x = synth_signal(g, _truth_kernel(config, g, plan and plan.sampled), config.noise_var, seeds["signal"])
    if config.standardize_labels:
        x = _standardize(x)
    return g, plan, x


def run_synthetic(config: ExperimentConfig) -> Report:
    """Random-graph benchmark: train on M sampled nodes, score the rest as
    newly-joining nodes, aggregate over independent trials."""
    _check_run(config, "synthetic")
    seeds = [_trial_seeds(config.base_seed, trial) for trial in range(config.trials)]
    rows, traces = _run_trials(config, ((*_draw_trial(config, config.n_nodes, s), s) for s in seeds))
    return Report(rows=rows, config=config, seeds=[s["graph"] for s in seeds], traces=traces)


def run_dataset(config: ExperimentConfig) -> Report:
    """Same protocol as the synthetic run, on an edge list plus label file.

    Several label columns are treated as repeated trials.  Sampling sweeps
    over ``sample_counts`` when given, else uses ``sample_fraction``.  The
    traces are those of the first sample count's first trial.
    """
    _check_run(config, "dataset")
    g = load_edge_list(config.edge_list, directed=config.directed, weighted=config.weighted)
    if config.directed and config.symmetrize:
        both = np.maximum(g.adjacency, g.adjacency.T)
        both.setflags(write=False)
        g = Graph(both, directed=False, node_names=g.node_names)
    label_map = load_labels(config.labels)
    index = {name: i for i, name in enumerate(g.node_names or ())}
    unknown = [t for t in label_map if t not in index]
    if unknown:
        raise ValueError(f"label file names unknown nodes: {unknown[:5]}")
    labeled_idx = np.array([index[t] for t in label_map], dtype=np.int64)
    columns = np.stack([label_map[t] for t in label_map])  # (L, n_cols)
    if config.loss != "least_squares" and (config.standardize_labels or not np.isin(columns, (-1.0, 1.0)).all()):
        # a classification loss trains on the file's -1 and +1 as they are
        raise ValueError(f"loss = {config.loss} needs labels of -1 and +1: set standardize_labels = false "
                         f"and give only -1 and +1 in the labels file {config.labels}")
    for col, values in enumerate(columns.T, start=1):
        # no truth of zeros has an NMSE, and standardising makes a constant column zeros
        if not values.any() or (config.standardize_labels and values.min() == values.max()):
            what = "all zero" if not values.any() else "constant, which standardize_labels makes all zero"
            raise ValueError(f"label column {col} of the labels file {config.labels} is {what}; no NMSE is defined")
    n_cols = columns.shape[1]
    counts = config.sample_counts or (
        max(1, math.ceil(config.sample_fraction * labeled_idx.size)),
    )
    for count in counts:
        if count > labeled_idx.size:
            raise ValueError(f"sample count {count} exceeds {labeled_idx.size} labeled nodes")
    seeds_used = []

    def trials(count):
        """Each label column of each trial, with its own draw of ``count`` sampled nodes."""
        for trial in range(config.trials):
            for col in range(n_cols):
                seeds = _trial_seeds(config.base_seed, trial * n_cols + col)
                seeds_used.append(seeds["plan"])
                x = np.zeros(g.n_nodes)
                x[labeled_idx] = columns[:, col]
                if config.standardize_labels:
                    x[labeled_idx] = _standardize(x[labeled_idx])
                yield g, _draw_plan(labeled_idx, count, seeds["plan"]), x, seeds

    def trial_name(i):
        """The label column and the trial of ``trials``' i-th item, 1-based."""
        return f"label column {(i - 1) % n_cols + 1}, trial {(i - 1) // n_cols + 1} of {config.trials}"

    results = [_run_trials(config, trials(count), trial_name) for count in counts]
    rows = [row for count_rows, _ in results for row in count_rows]
    return Report(rows=rows, config=config, seeds=seeds_used, traces=results[0][1])


# Byte budget of the bordered (dim + 1, dim + 1) grams the prefix oracle
# factors in one batch, over all kernels: memory stays flat, and past it a
# block holds one prefix.
_ORACLE_BLOCK_BYTES = 1 << 18


def _prefix_oracle_losses(zs: np.ndarray, ys: np.ndarray, mu: float) -> np.ndarray:
    """Best-fixed-parameter cumulative loss for every stream prefix, per kernel.

    ``zs`` is the ``(P, T, dim)`` stack of the P kernels' encodings of one
    stream and ``ys`` its T labels; the result is ``(P, T)``.  For prefix t
    the comparator re-solves the regularized LS problem on the first t
    samples and is charged its own regularized loss on them.  With the
    running gram G, right-hand side r and A = G + t mu I, that loss is
    y'y - r' A^-1 r, the Schur complement of A in the bordered gram
    [[A, r], [r', y'y]]: the square of the last pivot of its Cholesky factor
    (Golub & Van Loan, Matrix Computations, 4.2), so no theta is formed.
    The bordered rows [z, y] of a block of prefixes are built for all P
    kernels at once; their outer products are summed into prefix grams in
    place, one prefix row at a time, and one batched Cholesky factors the
    block.  A mu that leaves a loss below the rounding of y'y is refused.
    With mu = 0 each prefix is charged the residual of its least squares fit.
    """
    n_kernels, n_steps, dim = zs.shape
    block = max(1, _ORACLE_BLOCK_BYTES // (8 * n_kernels * (dim + 1) ** 2))
    # the gram of the prefix before the block: 0.0 at first, which adds as a
    # zero gram does, bit for bit
    gram = 0.0
    out = np.empty((n_kernels, n_steps))
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        # the block's bordered rows [z, y], as (block, P, dim + 1)
        z = np.concatenate([zs[:, start:stop].swapaxes(0, 1), np.repeat(ys[start:stop, None, None], n_kernels, 1)], 2)
        a = np.einsum("tpi,tpj->tpij", z, z)
        for prev, row in zip([gram, *a], a):
            np.add(prev, row, out=row)
        gram = a[-1].copy()
        if mu == 0:
            # without the ridge term A may be singular and the Schur complement
            # has no precision left, so each prefix is charged its residual
            for t, grams in enumerate(a, start):
                for p, g in enumerate(grams):
                    theta = np.linalg.lstsq(g[:dim, :dim], g[:dim, dim], rcond=None)[0]
                    resid = zs[p, : t + 1] @ theta - ys[: t + 1]
                    out[p, t] = resid @ resid
            continue
        np.einsum("tpii->tpi", a)[..., :dim] += mu * np.arange(start + 1, stop + 1)[:, None, None]
        # a prefix of zero labels has a zero last row: its loss is exactly 0
        zero_labels = a[..., dim, dim] == 0.0
        a[zero_labels, dim, dim] = 1.0
        try:
            out[:, start:stop] = np.where(zero_labels, 0.0, np.linalg.cholesky(a)[..., -1, -1] ** 2).T
        except np.linalg.LinAlgError:
            raise ValueError(f"regret_mu = {mu!r} is too small for the prefix oracle: use a larger one, "
                             "or regret_mu = 0 for the unregularised comparator") from None
    return out


def run_regret(config: ExperimentConfig) -> Report:
    """Stream T node samples, train online, and compare against the
    per-prefix batch comparator in the executed random-feature classes."""
    _check_run(config, "regret")
    horizon = config.regret_T
    eta = config.eta_value(horizon)
    mu = config.regret_mu
    exponents, regrets_final, bound_checks, seeds_used = [], [], [], []
    for trial in range(config.trials):
        seeds = _trial_seeds(config.base_seed, trial)
        seeds_used.append(seeds["stream"])
        # the stream reads every node, so no node sample is drawn
        g, _, x = _draw_trial(config, config.n_nodes, seeds, sample=False)
        every = np.arange(g.n_nodes)
        pats = node_patterns(g, every, every, config.pattern_mode, config.normalize_patterns)
        stream = np.random.default_rng(seeds["stream"]).integers(0, g.n_nodes, size=horizon)
        model = mkl_init(config.kernel_specs(), config.d, pats.shape[1], eta, mu, config.loss, seeds["map"])
        zs = mkl_encode(model, pats)[:, stream]
        ys = x[stream]
        model, traces = mkl_train_encoded(model, zs, ys)
        oracle_best = _prefix_oracle_losses(zs, ys, mu).min(axis=0)
        cum = np.cumsum(traces.combined_loss)
        regret = cum - oracle_best
        exponents.append(fit_growth_exponent(regret))
        regrets_final.append(float(regret[-1]))
        bound_checks.append(_regret_bound_check(zs, ys, traces, eta, mu))
        if trial == 0:
            first = (cum, oracle_best, regret)
    finite_exponents = [e for e in exponents if not math.isnan(e)]
    extras = {
        "eta": eta,
        "T": horizon,
        # an exponent fitted from fewer than two positive values is nan,
        # which JSON cannot hold
        "fitted_exponents": [None if math.isnan(e) else e for e in exponents],
        "mean_fitted_exponent": (
            float(np.mean(finite_exponents)) if finite_exponents else None
        ),
        "final_regret": regrets_final,
        "regret_bound_holds": all(b["holds"] for b in bound_checks),
        "bound_checks": bound_checks,
    }
    traces = {"regret_trial0": (["cum_online", "oracle", "regret"], first)}
    return Report(rows=[], config=config, seeds=seeds_used, extras=extras, traces=traces)


def fit_growth_exponent(series: np.ndarray) -> float:
    """Log-log slope of a positive series against step index.

    The fit window starts at step max(8, n // 100).  Returns nan when fewer
    than two positive values fall in it (e.g. an identically-zero regret
    series).
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    t = np.arange(1, n + 1)
    mask = (t >= max(8, n // 100)) & (series > 0)
    if mask.sum() < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(t[mask]), np.log(series[mask]), 1)
    return float(slope)


def _regret_bound_check(zs, ys, traces, eta, mu) -> dict:
    """Empirical check of the hedge+descent regret bound for every kernel.

    The comparator is the full-horizon batch solution per kernel, and the
    Lipschitz constant is replaced by the largest gradient norm the learners
    actually saw, as recorded by the stream kernel.
    """
    n_kernels = zs.shape[0]
    horizon = ys.size
    lhs_total = float(traces.combined_loss.sum())
    max_grad = float(traces.max_grad.max())
    margins = []
    for z in zs:
        theta_star = batch_rf_ls(z, ys, mu)
        theta_norm2 = float(np.dot(theta_star, theta_star))
        preds = z @ theta_star
        oracle_loss = float(((preds - ys) ** 2).sum()) + horizon * mu * theta_norm2
        bound = (
            math.log(n_kernels) / eta
            + theta_norm2 / (2.0 * eta)
            + eta * max_grad**2 * horizon / 2.0
            + eta * horizon
        )
        margins.append(bound - (lhs_total - oracle_loss))
    # a nan margin does not hold
    return {"holds": all(m >= 0.0 for m in margins), "margins": margins, "max_grad": max_grad}


def bench_newnode(config: ExperimentConfig) -> Report:
    """Per-method per-size new-node inference timings over graph sizes.

    Only timing is claimed here.  The signal scenario comes from the config,
    so pass ``scenario="identity"`` for the cheap kernel, as C10 does.  The
    run always times, so its report carries ``measure_runtime = True``.
    """
    _check_run(config, "bench-newnode")
    rows = []
    extras: dict = {"sizes": list(config.bench_sizes), "per_method": {}}
    seeds_used = []
    timing_cfg = replace(config, measure_runtime=True)
    for size in config.bench_sizes:
        seeds = _trial_seeds(config.base_seed, size)
        seeds_used.append(seeds["graph"])
        for row in _run_trials(timing_cfg, [(*_draw_trial(timing_cfg, size, seeds), seeds)])[0]:
            rows.append(row)
            extras["per_method"].setdefault(row.method, {})[str(size)] = row.newnode_time
    largest, smallest = str(max(config.bench_sizes)), str(min(config.bench_sizes))
    for by_size in extras["per_method"].values():
        if all(by_size.get(str(s)) for s in config.bench_sizes):
            by_size["ratio_max_over_min"] = by_size[largest] / by_size[smallest]
    return Report(rows=rows, config=timing_cfg, seeds=seeds_used, extras=extras)
