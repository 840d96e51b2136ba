"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one measured
pass over them (``run_pass``) and states the invariants its outputs must
satisfy on any seed.  A pass is a fixed sequence of operations, each one
call of a public graphrf entry point, timed one by one.  It returns the
outputs the correctness gate compares, every operation's duration, and the
number of operations it attempted and saw fail.

``--seed`` shifts each workload's base seed; seed 0 gives the inputs of the
recorded references.  See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import graphrf as grf
from graphrf.mkl import absorb_new_node_mkl  # not exported from graphrf


@dataclass
class PassResult:
    wall_s: float
    outputs: dict | None  # what the gate checks; None when an operation raised
    attempted: int
    failed: int
    op_s: np.ndarray | None = None  # duration of each operation, in pass order
    measured: dict = field(default_factory=dict)  # raw figures, never gated


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _failed_call(name: str) -> None:
    print(f"{name}: operation raised", file=sys.stderr, flush=True)
    traceback.print_exc()


class Workload:
    name = ""
    why = ""
    base_seed = 0
    setup_reps = 5  # set-ups per untraced run; setup_s is their median

    def seeds(self, seed: int) -> dict:
        return {"base_seed": self.base_seed + seed}

    def setup(self, seed: int, tracer=None):
        """Build the pass inputs from the seed."""
        raise NotImplementedError

    def warmup(self, inputs) -> None:
        """Run a small untimed job so lazy initialisation is not timed."""
        raise NotImplementedError

    def run_pass(self, inputs, tracer=None) -> PassResult:
        raise NotImplementedError

    def invariants(self, outputs: dict) -> list[str]:
        return []

    def details(self, outputs: dict) -> dict:
        """Workload-specific quality figures, reported next to the metrics."""
        return {}


class HarnessWorkload(Workload):
    """A batch job: one harness call per trial (or per graph size)."""

    entry = ""

    def configs(self, seed: int) -> list[grf.ExperimentConfig]:
        raise NotImplementedError

    def warmup_config(self, config: grf.ExperimentConfig) -> grf.ExperimentConfig:
        raise NotImplementedError

    def outputs(self, reports: list[grf.Report]) -> dict:
        raise NotImplementedError

    def measured(self, reports: list[grf.Report]) -> dict:
        return {}

    def setup(self, seed, tracer=None):
        return self.configs(seed)

    def warmup(self, configs) -> None:
        getattr(grf, self.entry)(self.warmup_config(configs[0]))

    def run_pass(self, configs, tracer=None) -> PassResult:
        call = getattr(grf, self.entry)
        clock = time.perf_counter
        op_s = np.full(len(configs), np.nan)
        reports = []
        start = clock()
        for i, config in enumerate(configs):
            t0 = clock()
            try:
                with _span(tracer, f"harness.{self.entry}"):
                    reports.append(call(config))
            except Exception:
                _failed_call(f"{self.name}: {self.entry} #{i}")
                continue
            op_s[i] = clock() - t0
        wall = clock() - start
        failed = len(configs) - len(reports)
        if failed:
            return PassResult(wall, None, len(configs), failed, op_s)
        return PassResult(wall, self.outputs(reports), len(configs), 0, op_s,
                          self.measured(reports))


_TWO_GAUSSIANS = (("gaussian", 1.0), ("gaussian", 5.0))
TRIALS = 20


def trial_seed(base_seed: int, trial: int) -> int:
    """Harness base seed of one single-trial call; distinct across seeds and trials."""
    return 1000 * base_seed + trial


class Regret(HarnessWorkload):
    name = "regret"
    why = "C8 regret config: long sequential streams, prefix-oracle solves and bound replay in the harness"
    base_seed = 5
    entry = "run_regret"

    def configs(self, seed):
        config = grf.ExperimentConfig(
            n_nodes=200, trials=1, regret_T=2000, d=10, eta="auto",
            scenario="diffusion", truth_sigma2=5.0, regret_mu=1e-6, kernels=_TWO_GAUSSIANS,
        )
        base = self.base_seed + seed
        return [replace(config, base_seed=trial_seed(base, k)) for k in range(TRIALS)]

    def warmup_config(self, config):
        return replace(config, n_nodes=40, regret_T=50)

    def outputs(self, reports):
        return {
            "holds": [r.extras["bound_checks"][0]["holds"] for r in reports],
            "fitted_exponents": [float(r.extras["fitted_exponents"][0]) for r in reports],
            "final_regret": [float(r.extras["final_regret"][0]) for r in reports],
        }

    def invariants(self, outputs):
        failing = [i for i, holds in enumerate(outputs["holds"]) if holds is not True]
        return [f"C8 regret bound fails on trials {failing}"] if failing else []

    def details(self, outputs):
        finite = [e for e in outputs["fitted_exponents"] if not math.isnan(e)]
        return {"regret_exponent": {"value": float(np.mean(finite)) if finite else None,
                                    "unit": "1", "samples": len(finite),
                                    "what": "mean fitted regret growth exponent"}}


class Synthetic(HarnessWorkload):
    name = "synthetic"
    why = "C11 accuracy config: many short streams (mu grid of 8 plus refit), k-NN and exact-ridge baselines"
    base_seed = 11
    entry = "run_synthetic"
    methods = ("mkl", "kl", "knn")

    def configs(self, seed):
        config = grf.ExperimentConfig(
            n_nodes=1000, sample_fraction=0.05, trials=1, d=200,
            scenario="connectivity_anchored", truth_sigma2=5.0, kl_sigma2=5.0,
            normalize_patterns=False, eta=0.5, kernels=_TWO_GAUSSIANS, methods=self.methods,
        )
        base = self.base_seed + seed
        return [replace(config, base_seed=trial_seed(base, k)) for k in range(TRIALS)]

    def warmup_config(self, config):
        return replace(config, n_nodes=100, d=10)

    def outputs(self, reports):
        out = {}
        for method in self.methods:
            rows = [next(row for row in r.rows if row.method == method) for r in reports]
            out[method] = {
                "nmse": [row.nmse_mean for row in rows],
                "nmse_conventional": [row.nmse_conv_mean for row in rows],
                "mu_selected": [float(row.mu_selected[0]) if row.mu_selected else None
                                for row in rows],
                "knn_failures": sum(row.knn_failures for row in rows),
            }
        return out

    def invariants(self, outputs):
        mkl, kl, knn = (float(np.mean(outputs[m]["nmse"])) for m in self.methods)
        problems = []
        if not mkl <= 2.0 * kl:
            problems.append(f"C11 mean mkl nmse {mkl!r} exceeds twice kl {kl!r}")
        if not mkl < knn:
            problems.append(f"C11 mean mkl nmse {mkl!r} does not beat knn {knn!r}")
        return problems

    def details(self, outputs):
        conv = outputs["mkl"]["nmse_conventional"]
        return {"nmse": {"value": float(np.mean(conv)), "unit": "1", "samples": len(conv),
                         "what": "mean conventional NMSE of mkl over trials"}}


class NewNode(HarnessWorkload):
    name = "newnode"
    why = "C10 runtime comparison: per-new-node graph-kernel re-solve (eigh) against the MKL scorer"
    base_seed = 3
    entry = "bench_newnode"
    sizes = (500, 1000, 2000)

    def configs(self, seed):
        # bench_newnode seeds each size from (base seed, size), so one call
        # per size reproduces the three-size C10 run exactly
        config = grf.ExperimentConfig(
            scenario="identity", d=100, methods=("mkl", "gk_df"), sample_fraction=0.05,
            timing_reps=5, timing_nodes=20, base_seed=self.base_seed + seed,
        )
        return [replace(config, bench_sizes=(size,)) for size in self.sizes]

    def warmup_config(self, config):
        return replace(config, bench_sizes=(100,), timing_reps=1, timing_nodes=2)

    def outputs(self, reports):
        rows = {}
        for report in reports:
            for row in report.rows:
                rows[f"{row.method}@{row.n_nodes}"] = {
                    "m": row.n_sampled,
                    "nmse": row.nmse_mean,
                    "nmse_conventional": row.nmse_conv_mean,
                    "mu_selected": [float(m) for m in row.mu_selected],
                    "notes": row.notes,
                }
        return {"rows": rows}

    def measured(self, reports):
        # the harness's own 20-node new-node timer: reported, never gated
        timer: dict = {}
        for report in reports:
            for method, by_size in report.extras["per_method"].items():
                timer.setdefault(method, {}).update(
                    {k: v for k, v in by_size.items() if k != "ratio_max_over_min"})
        return {"newnode_timer_s": timer}

    def invariants(self, outputs):
        problems = []
        for method in ("mkl", "gk_df"):
            for size in self.sizes:
                row = outputs["rows"].get(f"{method}@{size}")
                if row is None:
                    problems.append(f"no {method} row at size {size}")
                elif not (row["nmse"] is not None and math.isfinite(row["nmse"])):
                    problems.append(f"{method} nmse at size {size} is not finite")
        return problems


@dataclass
class JoinInputs:
    model: object
    patterns: np.ndarray  # (joins, anchors) connectivity of each joining node, in join order
    labels: np.ndarray
    labelled: np.ndarray  # bool per join: absorb the label, or only score


class Join(Workload):
    """Closed loop, one client: every non-anchor node joins once, in a seeded order."""

    name = "join"
    why = "streaming joins: one absorb_new_node_mkl call per node, a quarter score only, the rest score and absorb"
    base_seed = 1
    setup_reps = 3
    n_nodes = 5000
    n_anchors = 50
    edge_prob = 0.2
    score_only_share = 0.25
    kernels = (grf.KernelSpec("gaussian", 1.0), grf.KernelSpec("gaussian", 5.0))
    matched_kernel = 1  # the signal is drawn from the sigma^2 = 5 kernel
    d = 100
    eta = 0.5
    mu = 1e-6

    def seeds(self, seed):
        state = np.random.SeedSequence([self.base_seed + seed]).generate_state(6)
        names = ("graph", "anchors", "signal", "map", "order", "kind")
        return {"base_seed": self.base_seed + seed, **{k: int(s) for k, s in zip(names, state)}}

    def setup(self, seed, tracer=None) -> JoinInputs:
        s = self.seeds(seed)
        with _span(tracer, "graph.erdos_renyi"):
            g = grf.erdos_renyi(self.n_nodes, self.edge_prob, s["graph"])
        perm = np.random.default_rng(s["anchors"]).permutation(self.n_nodes)
        anchors, rest = perm[: self.n_anchors], perm[self.n_anchors:]
        patterns = np.ascontiguousarray(g.adjacency[anchors, :].T)
        del g
        # signal smooth in the sigma^2 = 5 kernel over connectivity to the
        # anchors, built in row blocks so the n x n kernel never exists at once
        rng = np.random.default_rng(s["signal"])
        alpha = rng.uniform(0.5, 1.0, size=self.n_nodes)
        truth = self.kernels[self.matched_kernel]
        x = np.concatenate([
            grf.eval_kernel_matrix(truth, patterns[i:i + 500], patterns) @ alpha
            for i in range(0, self.n_nodes, 500)
        ])
        x = x + rng.normal(0.0, 0.1, size=self.n_nodes)
        x = (x - x.mean()) / x.std()
        model = grf.mkl_init(self.kernels, self.d, self.n_anchors, self.eta, self.mu,
                             "least_squares", s["map"])
        with _span(tracer, "mkl.mkl_train"):
            model, _ = grf.mkl_train(model, [(patterns[a], x[a]) for a in anchors])
        order = np.random.default_rng(s["order"]).permutation(rest)
        kind = np.random.default_rng(s["kind"]).random(order.size)
        return JoinInputs(
            model=model,
            patterns=np.ascontiguousarray(patterns[order]),
            labels=x[order],
            labelled=kind >= self.score_only_share,
        )

    def warmup(self, inputs: JoinInputs) -> None:
        model = inputs.model
        for i in range(200):
            _, model = absorb_new_node_mkl(model, inputs.patterns[i], float(inputs.labels[i]))

    def run_pass(self, inputs: JoinInputs, tracer=None) -> PassResult:
        model = inputs.model
        n = inputs.labels.size
        preds = np.full(n, np.nan)
        op_s = np.full(n, np.nan)
        failed = 0
        clock = time.perf_counter
        start = clock()
        for i in range(n):
            label = float(inputs.labels[i]) if inputs.labelled[i] else None
            t0 = clock()
            try:
                with _span(tracer, "mkl.absorb_new_node_mkl"):
                    pred, model = absorb_new_node_mkl(model, inputs.patterns[i], label)
            except Exception:
                _failed_call(f"join {i}")
                failed += 1
                continue
            op_s[i] = clock() - t0
            if math.isfinite(pred):
                preds[i] = pred
            else:
                failed += 1
        wall = clock() - start
        y = inputs.labels[inputs.labelled]
        err = preds[inputs.labelled] - y
        outputs = {
            "prequential_nmse": float(np.dot(err, err) / np.dot(y, y)),
            "weights": [float(w) for w in model.normalized_weights],
            "theta": [[float(v) for v in lr.theta] for lr in model.learners],
            "joins": int(inputs.labelled.sum()),
            "scores": int((~inputs.labelled).sum()),
        }
        return PassResult(wall, outputs, n, failed, op_s, {"labelled": inputs.labelled})

    def invariants(self, outputs):
        problems = []
        nmse = outputs["prequential_nmse"]
        if not nmse < 1.0:
            problems.append(f"prequential nmse {nmse!r} is no better than the zero predictor")
        w = outputs["weights"][self.matched_kernel]
        if not w > 0.5:
            problems.append(f"hedge weight {w!r} on the matched kernel is not above 0.5")
        return problems

    def details(self, outputs):
        return {"nmse": {"value": outputs["prequential_nmse"], "unit": "1",
                         "samples": outputs["joins"], "what": "prequential NMSE of labelled joins"}}


WORKLOADS = {w.name: w for w in (Regret(), Synthetic(), NewNode(), Join())}
