#!/usr/bin/env python3
"""Print the peak memory of one random-graph build beside the adjacency size.

Usage::

    python scripts/graph_memory.py N P

Builds ``erdos_renyi(N, P, seed=0)`` from this checkout's ``src/`` once in
this fresh interpreter, then prints the process's peak resident set
(``ru_maxrss``) before and after the build, the adjacency's dtype and own
bytes beside the bytes the same graph would hold as float64, and the ratio
of the build's growth to the adjacency's bytes.  Sizes are in MB of 2**20
bytes, as ``perfbench`` reports ``peak_rss_mb``.  The script measures and
prints only; it gates nothing.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy.random  # noqa: E402,F401  numpy imports it lazily; load it before the "before" figure

from graphrf import erdos_renyi  # noqa: E402

MB = 2.0**20


def max_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    n, p = int(argv[0]), float(argv[1])
    before = max_rss_mb()
    start = time.perf_counter()
    g = erdos_renyi(n, p, seed=0)
    elapsed = time.perf_counter() - start
    after = max_rss_mb()
    adjacency = g.adjacency.nbytes / MB
    as_float64 = 8 * g.adjacency.size / MB
    print(
        f"erdos_renyi({n}, {p}): {g.adjacency.dtype} adjacency {adjacency:.1f} MB "
        f"({as_float64:.1f} MB as float64), ru_maxrss {after:.1f} MB "
        f"({before:.1f} MB before the build, growth {(after - before) / adjacency:.2f}x the adjacency), "
        f"build {elapsed:.2f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
