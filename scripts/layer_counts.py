#!/usr/bin/env python3
"""Check that every benchmark workload does the same per-layer work at a base
ref and at the working tree.

Usage::

    python scripts/layer_counts.py BASE_REF

Exports ``src/`` and ``perfbench/`` of BASE_REF with ``git archive`` into a
temporary directory, then runs ``perfbench/run.py --workload W --trace 1``
for each of the four workloads, once in that copy and once in the working
tree, as the benchmark ships.  Every per-layer count (the ``*.calls``,
``*.rows`` and ``*.learner_steps`` metrics) is compared.  Exit status: 0 when
all counts are equal, 1 on any difference, 2 when the base ref cannot be
exported or a run fails.

Changes that alter the work on purpose (performance changes) change these
counts, so this is a review aid, not a gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from report_identity import ROOT, export_tree

WORKLOADS = ("regret", "synthetic", "newnode", "join")
COUNT_SUFFIXES = (".calls", ".rows", ".learner_steps")


def layer_counts(tree: Path, workload: str) -> dict:
    """The count metrics of one traced run (one pass is enough: counts do not
    depend on how long the run measures)."""
    args = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--trace", "1", "--seconds", "0"]
    result = subprocess.run(args, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} at {tree} exited {result.returncode}:\n{result.stderr}")
    metrics = json.loads(result.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if name.endswith(COUNT_SUFFIXES)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="layer-counts-") as tmp_name:
        try:
            base = export_tree(argv[0], Path(tmp_name), "src", "perfbench")
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {argv[0]}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        differs = False
        for workload in WORKLOADS:
            try:
                counts = {label: layer_counts(tree, workload) for label, tree in (("base", base), ("head", ROOT))}
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            for name in sorted(set(counts["base"]) | set(counts["head"])):
                a, b = counts["base"].get(name), counts["head"].get(name)
                if a == b:
                    print(f"{workload}: same {name} = {a:g}")
                else:
                    print(f"{workload}: DIFF {name}: base {a}, working tree {b}")
                    differs = True
    print("layer counts differ" if differs else "all layer counts equal")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
