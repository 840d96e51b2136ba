#!/usr/bin/env python3
"""Print the peak memory and wall time of one large synthetic run.

Usage::

    python scripts/synthetic_memory.py N

Runs ``run_synthetic`` from this checkout's ``src/`` once in this fresh
interpreter with ``n_nodes = N``, ``edge_prob = 0.005``,
``scenario = connectivity_anchored``, ``sample_fraction = 0.01``,
``methods = mkl,kl,knn`` and ``trials = 1``; every other key keeps its
default.  This is the config that ROADMAP.md item 7 first set (its 20,000-node
figures are cited there and in item 10); item 7's Done-when config is now
50,000 nodes on the ``identity`` truth.  It prints the process's peak resident
set (``ru_maxrss``) before and after the run, the run's wall time, the
bytes the graph's bool adjacency and one N×N float64 matrix would hold,
and each method's NMSE.  Sizes are in MB of 2**20 bytes, as ``perfbench``
reports ``peak_rss_mb``.  The script measures and prints only; it gates
nothing.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy.random  # noqa: E402,F401  numpy imports it lazily; load it before the "before" figure

from graphrf import ExperimentConfig, run_synthetic  # noqa: E402

MB = 2.0**20


def max_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    n = int(argv[0])
    config = ExperimentConfig(
        n_nodes=n, edge_prob=0.005, scenario="connectivity_anchored", sample_fraction=0.01,
        methods=("mkl", "kl", "knn"), trials=1,
    )
    before = max_rss_mb()
    start = time.perf_counter()
    report = run_synthetic(config)
    elapsed = time.perf_counter() - start
    after = max_rss_mb()
    print(
        f"run_synthetic at n_nodes = {n}: ru_maxrss {after:.1f} MB ({before:.1f} MB before the run), "
        f"wall {elapsed:.1f} s; bool adjacency {n * n / MB:.1f} MB, "
        f"one N×N float64 matrix {8 * n * n / MB:.1f} MB"
    )
    for row in report.rows:
        print(f"  {row.method}: nmse {row.nmse_mean}, conventional nmse {row.nmse_conv_mean}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
