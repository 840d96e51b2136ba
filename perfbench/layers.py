"""The layers the traced run measures and the per-layer metrics built from them.

Each layer wraps the name its caller looks up, so the span sits at the call
site: the harness imports ``knn_predict`` into its own namespace, so the
target is ``graphrf.harness.knn_predict``, while ``mkl.py`` calls
``_kernels.mkl_stream`` through the module and ``RFMap.encode`` goes through
the class attribute.  Spans named ``harness.*``, ``mkl.absorb_new_node_mkl``
and the set-up spans of the ``join`` workload are opened by the benchmark
around its own calls.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import TRACE, Layer


def _count_stream_steps(stats, args, kwargs, result):
    zs = args[0]
    stats.add("learner_steps", zs.shape[0] * zs.shape[1])


def _count_encoded_rows(stats, args, kwargs, result):
    rf_map, patterns = args[0], args[1]
    rows = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    stats.add("rows", rows.shape[0])
    ref = rf_map.ref
    stats.distinct.update((ref, hash(row.tobytes())) for row in rows)


def _count_distinct_maps(stats, args, kwargs, result):
    stats.distinct.add(result.ref)


LAYERS = (
    Layer("kernels_jit.mkl_stream", "graphrf._kernels.mkl_stream", _count_stream_steps),
    Layer("features.encode_batch", "graphrf.features.RFMap.encode_batch", _count_encoded_rows),
    Layer("features.build_map", "graphrf.mkl.build_map", _count_distinct_maps),
    Layer("mkl.mkl_train", "graphrf.harness.mkl_train"),
    Layer("mkl.mkl_predict_batch", "graphrf.harness.mkl_predict_batch"),
    Layer("mkl.mkl_update", "graphrf.mkl.mkl_update"),
    Layer("mkl.mkl_predict", "graphrf.mkl.mkl_predict"),
    Layer("baselines.knn_predict", "graphrf.harness.knn_predict"),
    Layer("kernels.graph_kernel_matrix", "graphrf.harness.graph_kernel_matrix"),
    Layer("baselines.batch_kernel_ridge", "graphrf.harness.batch_kernel_ridge"),
    Layer("kernels.eval_kernel_matrix", "graphrf.harness.eval_kernel_matrix"),
    Layer("graph.erdos_renyi", "graphrf.harness.erdos_renyi"),
)

HARNESS_PREFIX = "harness."


def merge(*segments: dict) -> dict:
    """Sum per-name statistics of several trace segments."""
    out: dict = {}
    for seg in segments:
        for name, st in seg.items():
            acc = out.setdefault(name, {})
            for key, value in st.items():
                acc[key] = acc.get(key, 0) + value
    return out


def _get(stats: dict, name: str, key: str) -> float:
    return stats.get(name, {}).get(key, 0)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced segment (set-up plus one pass)."""
    g = lambda name, key: _get(stats, name, key)  # noqa: E731
    stream, enc, maps, knn = (
        "kernels_jit.mkl_stream",
        "features.encode_batch",
        "features.build_map",
        "baselines.knn_predict",
    )
    return {
        "harness.self_s": sum(
            st["self_s"] for name, st in stats.items() if name.startswith(HARNESS_PREFIX)
        ),
        f"{stream}.s": g(stream, "s"),
        f"{stream}.calls": g(stream, "calls"),
        f"{stream}.learner_steps": g(stream, "learner_steps"),
        f"{stream}.us_per_learner_step": _ratio(g(stream, "s"), g(stream, "learner_steps"), 1e6),
        f"{enc}.s": g(enc, "s"),
        f"{enc}.calls": g(enc, "calls"),
        f"{enc}.rows": g(enc, "rows"),
        f"{enc}.distinct_share": _ratio(g(enc, "distinct"), g(enc, "rows")),
        f"{maps}.calls": g(maps, "calls"),
        f"{maps}.distinct_share": _ratio(g(maps, "distinct"), g(maps, "calls")),
        "mkl.mkl_train.calls": g("mkl.mkl_train", "calls"),
        "mkl.mkl_predict_batch.self_s": g("mkl.mkl_predict_batch", "self_s"),
        "mkl.mkl_update.self_s": g("mkl.mkl_update", "self_s"),
        "mkl.mkl_predict.self_s": g("mkl.mkl_predict", "self_s"),
        f"{knn}.s": g(knn, "s"),
        f"{knn}.calls": g(knn, "calls"),
        f"{knn}.inapplicable_share": _ratio(g(knn, "errors"), g(knn, "calls")),
        "kernels.graph_kernel_matrix.s": g("kernels.graph_kernel_matrix", "s"),
        "kernels.graph_kernel_matrix.calls": g("kernels.graph_kernel_matrix", "calls"),
        "baselines.batch_kernel_ridge.s": g("baselines.batch_kernel_ridge", "s"),
        "baselines.batch_kernel_ridge.calls": g("baselines.batch_kernel_ridge", "calls"),
        "kernels.eval_kernel_matrix.s": g("kernels.eval_kernel_matrix", "s"),
        "graph.erdos_renyi.s": g("graph.erdos_renyi", "s"),
        "trace.self_s": g(TRACE, "self_s"),
    }


# name -> unit, in the order BENCHMARK.json lists them; the last three come
# from the pass walls rather than from layer_metrics.
PER_LAYER_UNITS = {
    name: (
        "count" if name.endswith((".calls", ".rows", ".learner_steps"))
        else "share" if name.endswith("_share")
        else "us" if name.endswith(".us_per_learner_step")
        else "s"
    )
    for name in list(layer_metrics({})) + ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
}


def self_time_shares(stats: dict, wall: float) -> dict[str, float]:
    """Each span name's self time as a share of ``wall``, largest first;
    the tracer's own bookkeeping is left out."""
    ranked = sorted(stats.items(), key=lambda item: -item[1]["self_s"])
    return {name: st["self_s"] / wall for name, st in ranked if name != TRACE and wall > 0}


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
