#!/usr/bin/env python3
"""graphrf benchmark: four workloads, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-reference

NAME is one of regret, synthetic, newnode, join.  With ``--trace 0`` the run
is untraced and reports the end-to-end metrics; with ``--trace 1`` it wraps
each layer's functions (see layers.py) and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
environment, the workload's own figures and the gate's findings.  Both are
also written to ``perfbench/out/``.  ``--workload all`` runs every workload
untraced and then traced, each in its own process, and prints a table.

The program is imported from ``src/`` of the same checkout with
``GRAPHRF_NUMBA=0``, so only the numpy path is measured.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("regret", "synthetic", "newnode", "join")
MIN_PASSES = 3  # untraced passes, so wall_s is a median
MAX_MEASURE_S = 120.0  # hard stop for the measuring loop, whatever --seconds says
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
EXIT_NO_PROGRAM = 2
EXIT_MISSING_TARGET = 3

IMPORT_PROBE = "import time; t = time.perf_counter(); import graphrf; print(time.perf_counter() - t)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="shift of every workload's base seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from one pass of each workload at seed 0")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def program_env() -> dict:
    env = dict(os.environ)
    env["GRAPHRF_NUMBA"] = "0"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_program():
    """Import graphrf from this checkout's src/, or exit without a result."""
    if not (SRC / "graphrf" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    os.environ["GRAPHRF_NUMBA"] = "0"
    sys.path.insert(0, str(SRC))
    import graphrf

    if Path(graphrf.__file__).resolve().parent != SRC / "graphrf":
        print(f"benchmark: imported graphrf from {graphrf.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return graphrf


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(graphrf, workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "GRAPHRF_NUMBA": os.environ.get("GRAPHRF_NUMBA"),
        "NUMBA_ENABLED": bool(graphrf.NUMBA_ENABLED),
        "git_commit": git_commit(),
        "seed": seed,
        "workload_seeds": workload.seeds(seed),
    }


def import_seconds() -> float:
    """Time `import graphrf` in a fresh interpreter (numpy's import included)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=program_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_entry(samples, q: float) -> dict:
    import numpy as np

    value = float(np.percentile(samples, q)) * 1e6 if len(samples) else None
    return {"value": value, "unit": "us", "samples": len(samples)}


class Ledger:
    """Operations attempted and failed, and what the gate found."""

    def __init__(self, workload, seed: int, references: dict):
        self.workload = workload
        self.seed = seed
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs = None

    def raised(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what} raised")

    def record(self, result) -> None:
        import gate

        self.attempted += result.attempted
        if result.outputs is None:
            self.failed += result.failed
            self.problems.append("pass raised")
            return
        outputs = gate.to_jsonable(result.outputs)
        problems = gate.check(self.workload, outputs, self.seed, self.references)
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            problems += [f"repeat: {m}" for m in gate.compare(outputs, self.first_outputs)]
        # wrong outputs make every operation of the pass a failure
        self.failed += result.attempted if problems else result.failed
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _spin_s() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i
    return time.perf_counter() - t0


def move_to_fastest_cpu(cpus: list[int]) -> None:
    """Pin this process to the CPU of ``cpus`` that runs a short spin loop fastest.

    On the shared host each vCPU is slowed, independently and for seconds to
    minutes at a time, by about 1.6x, and both are seldom slow at once.  The
    program runs on one thread (see pin_blas_threads), so running each pass
    on the quicker vCPU measures the program more than the neighbours.
    """
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_spin_s() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def measuring_loop(seconds: float, step, enough) -> None:
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while True:
            move_to_fastest_cpu(cpus)
            step()
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and enough()) or elapsed >= MAX_MEASURE_S:
                return
    finally:
        os.sched_setaffinity(0, cpus)


def fastest_ops(results) -> np.ndarray:
    """Each operation's shortest duration over the passes of a run.

    The host's cores switch between a fast and a markedly slower state for
    seconds at a time (see NOTES.md), so a pass's wall time mixes the two.
    Taking every operation at its fastest over the run's repetitions
    estimates what the pass costs the program itself.
    """
    import numpy as np

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # an op that failed every pass
        return np.nanmin(np.stack([r.op_s for r in results]), axis=0)


def fastest_wall(results) -> float:
    return float(sum(t for t in fastest_ops(results) if t == t))


def run_untraced(workload, seed, seconds, ledger):
    setups = []
    inputs = None
    for _ in range(workload.setup_reps):
        inputs = None  # release the previous inputs before building new ones
        imported = import_seconds()
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setups.append(imported + time.perf_counter() - t0)
    try:
        workload.warmup(inputs)
    except Exception:
        ledger.raised("warm-up")
    results = []

    def step():
        result = workload.run_pass(inputs)
        ledger.record(result)
        results.append(result)

    measuring_loop(seconds, step, lambda: len(results) >= MIN_PASSES)
    best = fastest_ops(results)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": fastest_wall(results), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    counts = {"setup_s": len(setups), "wall_s": len(results), "peak_rss_mb": 1}
    extra = workload_figures(workload, results, best)
    extra["setup_s_each"] = setups
    extra["pass_wall_s_each"] = [r.wall_s for r in results]
    extra["pass_wall_s_median"] = statistics.median(r.wall_s for r in results)
    return metrics, counts, extra


def workload_figures(workload, results, best) -> dict:
    figures = {}
    ok = [r for r in results if r.outputs is not None]
    if ok:
        figures.update(workload.details(ok[0].outputs))
    if ok and "labelled" in ok[0].measured:
        labelled = ok[0].measured["labelled"]
        joins, scores = best[labelled], best[~labelled]
        joins, scores = joins[joins == joins], scores[scores == scores]  # drop failed joins
        figures["join_us_p50"] = percentile_entry(joins, 50)
        figures["join_us_p99"] = percentile_entry(joins, 99)
        figures["score_us_p50"] = percentile_entry(scores, 50)
        figures["score_us_p99"] = percentile_entry(scores, 99)
    timers = [r.measured["newnode_timer_s"] for r in results if "newnode_timer_s" in r.measured]
    if timers:
        figures["newnode_timer_s"] = {"value": timers, "unit": "s", "samples": len(timers),
                                      "what": "harness per-node timer per pass; reported, not gated"}
    return figures


def run_traced(workload, seed, seconds, ledger):
    from layers import LAYERS, PER_LAYER_UNITS, layer_metrics, median_metrics, merge, self_time_shares
    from spans import TRACE, MissingTargetError, Tracer

    tracer = Tracer(LAYERS)
    try:
        tracer.check_targets()
    except MissingTargetError as exc:
        print(f"benchmark: traced run failed: {exc}", file=sys.stderr)
        sys.exit(EXIT_MISSING_TARGET)
    with tracer.installed():
        inputs = workload.setup(seed, tracer)
    setup_stats = tracer.take_stats()
    try:
        workload.warmup(inputs)
    except Exception:
        ledger.raised("warm-up")
    untraced, traced, per_pass, pass_stats = [], [], [], []

    def step():
        if len(untraced) <= len(traced):
            result = workload.run_pass(inputs)
            untraced.append(result)
        else:
            with tracer.installed():
                result = workload.run_pass(inputs, tracer)
            stats = tracer.take_stats()
            traced.append(result)
            pass_stats.append(stats)
            per_pass.append(layer_metrics(merge(setup_stats, stats)))
        ledger.record(result)

    measuring_loop(seconds, step, lambda: bool(traced))
    values = median_metrics(per_pass)
    values["trace.wall_s"] = fastest_wall(traced)
    values["trace.untraced_wall_s"] = fastest_wall(untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    spans_path = OUT / f"spans_{workload.name}_seed{seed}.tsv.gz"
    tracer.write(spans_path)
    traced_stats = merge(*pass_stats)
    bookkeeping = traced_stats.get(TRACE, {}).get("self_s", 0.0)
    shares = self_time_shares(traced_stats, sum(r.wall_s for r in traced) - bookkeeping)
    extra = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "self_time_share_of_traced_wall_less_bookkeeping": shares,
        "dominant_layer": next(iter(shares), None),
        "spans": {"file": str(spans_path.relative_to(ROOT)), "count": tracer.n_spans},
    }
    counts = {name: len(per_pass) for name in metrics}
    counts["trace.untraced_wall_s"] = len(untraced)
    return metrics, counts, extra


def run_one(args) -> int:
    graphrf = load_program()
    import gate
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ledger = Ledger(workload, args.seed, gate.load_references())
    runner = run_traced if args.trace else run_untraced
    metrics, counts, extra = runner(workload, args.seed, args.seconds, ledger)
    extra["failed_share"] = {"value": ledger.failed / max(ledger.attempted, 1), "unit": "1",
                             "samples": ledger.attempted}
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(graphrf, workload, args.seed),
        "sample_counts": counts,
        "figures": extra,
        "gate": {"reference_checked": args.seed == 0, "rtol": gate.RTOL, "atol": gate.ATOL,
                 "problems": ledger.problems[:50], "problem_count": len(ledger.problems)},
    }
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    for problem in ledger.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    bench_path = OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    bench_path.write_text(json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    all_correct = True
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"== {name} trace={trace}: exit {done.returncode}\n{done.stderr}")
                all_correct = False
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            all_correct = all_correct and result["correct"]
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            counts = detail["sample_counts"]
            for metric, entry in result["metrics"].items():
                print(f"  {metric:46s} {entry['value']:>16.6g} {entry['unit']:6s} n={counts[metric]}")
            for figure, entry in detail["figures"].items():
                if isinstance(entry, dict) and "unit" in entry:
                    value = entry["value"]
                    text = f"{value:>16.6g}" if isinstance(value, float) else f"{str(value)[:60]:>16s}"
                    print(f"  {figure:46s} {text} {entry['unit']:6s} n={entry['samples']}")
            if trace:
                share = detail["figures"]["self_time_share_of_traced_wall_less_bookkeeping"]
                top = ", ".join(f"{k} {v:.0%}" for k, v in list(share.items())[:4])
                print(f"  dominant self time: {top}")
            for problem in detail["gate"]["problems"][:5]:
                print(f"  gate: {problem}")
    return 0 if all_correct else 1


def record_reference() -> int:
    load_program()
    import gate
    from workloads import WORKLOADS

    refs = {}
    for name, workload in WORKLOADS.items():
        result = workload.run_pass(workload.setup(0))
        if result.outputs is None or result.failed:
            print(f"{name}: pass failed; reference not written", file=sys.stderr)
            return 1
        outputs = gate.to_jsonable(result.outputs)
        broken = workload.invariants(outputs)
        if broken:
            print(f"{name}: invariants fail: {broken}; reference not written", file=sys.stderr)
            return 1
        refs[name] = outputs
        print(f"{name}: recorded", flush=True)
    gate.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def pin_blas_threads() -> None:
    """One BLAS thread, unless the caller chose otherwise; must run before numpy loads.

    With the default two threads on a 2-vCPU host, every BLAS call also waits
    on the second vCPU, whose speed the host varies independently, and the
    helper thread spins on it between calls.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
