#!/usr/bin/env python3
"""Time one benchmark workload in alternating pairs of runs, at a base ref and
at the working tree.

Usage::

    python scripts/bench_pairs.py BASE_REF WORKLOAD [--pairs N] [--seconds S]

Exports ``src/`` and ``perfbench/`` of BASE_REF with ``git archive`` into a
temporary directory, as ``scripts/layer_counts.py`` does, then runs
``perfbench/run.py --workload WORKLOAD --seconds S`` (untraced) N times in
that copy and N times in the working tree, one pair at a time: the base runs
first in pairs 1, 3, 5, ... and the working tree first in pairs 2, 4, ....
N defaults to 10 and S to ``run_seconds`` of ``BENCHMARK.json``.

Each pair's end-to-end metrics print as the pair finishes.  Then, for each
end-to-end metric of ``BENCHMARK.json`` and for each figure of the run that
is timed in s or µs (lower is better), one line gives each side's median and
quartiles, how many pairs the working tree won (ties count for neither
side), and whether a gain may be claimed: the working tree wins at least
nine pairs in ten, and the medians lie further apart, in its favour, than
the base's quartiles do.

Exit status: 0 when every run completed, whatever the verdicts; 2 when the
base ref cannot be exported, or a run exits non-zero, reads
``correct: false`` or reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from report_identity import ROOT, export_tree

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
TIMED_UNITS = ("s", "us")


def run(tree: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One untraced run's end-to-end metrics, by name, and its timed figures
    as (value, unit) by name, or a ``RuntimeError`` if the run failed."""
    args = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seconds", str(seconds)]
    result = subprocess.run(args, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} at {tree} exited {result.returncode}:\n{result.stderr}")
    lines = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
    final = lines[-1]
    if final["correct"] is not True or final["failed"]:
        raise RuntimeError(f"{workload} at {tree} read correct: {final['correct']}, failed: {final['failed']}")
    figures = next(line["detail"]["figures"] for line in lines if "detail" in line)
    timed = {name: (f["value"], f["unit"]) for name, f in figures.items()
             if isinstance(f, dict) and f.get("unit") in TIMED_UNITS and isinstance(f.get("value"), (int, float))}
    return {name: m["value"] for name, m in final["metrics"].items()}, timed


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(name: str, unit: str, lower_better: bool, base: list[float], head: list[float]) -> str:
    """One summary line: medians, quartiles, wins and the claim rule."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    (b1, b3), (h1, h3) = quartiles(base), quartiles(head)
    gain = sign * (statistics.median(base) - statistics.median(head))
    claim = 10 * wins >= 9 * len(base) and gain > b3 - b1
    return (f"{name} ({unit}, {'lower' if lower_better else 'higher'} is better): "
            f"base {statistics.median(base):.6g} [{b1:.6g}, {b3:.6g}], "
            f"head {statistics.median(head):.6g} [{h1:.6g}, {h3:.6g}]; "
            f"head better in {wins}/{len(base)} pairs; {'claim holds' if claim else 'no claim'}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = BENCHMARK["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp_name:
        try:
            base_tree = export_tree(args.base_ref, Path(tmp_name), "src", "perfbench")
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {args.base_ref}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            try:
                for side in order:
                    runs[side].append(run(base_tree if side == "base" else ROOT, args.workload, args.seconds))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            print(f"pair {pair + 1} ({order[0]} first): " + ", ".join(
                f"{m['name']} {runs['base'][-1][0][m['name']]:.6g} -> {runs['head'][-1][0][m['name']]:.6g}"
                for m in end_to_end), flush=True)
    print(f"{args.workload}, {args.pairs} pairs at --seconds {args.seconds:g}, base {args.base_ref} against "
          "the working tree:")
    for m in end_to_end:
        base, head = ([r[0][m["name"]] for r in runs[side]] for side in ("base", "head"))
        print(verdict(m["name"], m["unit"], m["better"] == "lower", base, head))
    for name in sorted(set(runs["base"][0][1]) & set(runs["head"][0][1])):
        base, head = ([r[1][name][0] for r in runs[side]] for side in ("base", "head"))
        print(verdict(name, runs["base"][0][1][name][1], True, base, head))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
