#!/usr/bin/env python3
"""Check that the CLI writes byte-identical reports at a base ref and at the
working tree.

Usage::

    python scripts/report_identity.py BASE_REF

Eleven runs, each with ``--out``, once on the ``src/`` of BASE_REF (exported
with ``git archive`` into a temporary directory, so the repository is left
untouched) and once on the working tree's ``src/``:

- ``synthetic``: the default config with all five methods;
- ``synthetic-anchored``: 120 nodes under ``connectivity_anchored``, with
  ``normalize_patterns = false``, ``eta = auto`` (so mkl's cross-validation
  runs at each prefix's own step size), ``pattern_mode = concat``,
  ``sample_fraction = 0.2``, two trials and all five methods;
- ``synthetic-connectivity``: the default graph under ``connectivity``, with
  ``pattern_mode = row``, two trials and methods mkl, kl and knn;
- ``regret``: the default config;
- ``dataset``: a generated 60-node graph with three label columns,
  ``sample_counts = 10,20``, two trials and all five methods;
- ``dataset-weighted``: the same graph with a weight drawn from
  [0.1, 2] on each edge, ``weighted = true``, the same labels and all
  five methods, so that the float-weight Laplacians of gk_df and gk_bl are
  compared too;
- ``dataset-hinge`` and ``dataset-logistic``: the same graph and sampling
  with three columns of -1 and +1 labels, ``standardize_labels = false``,
  and the classification loss the name gives, so that mkl's
  cross-validation is checked under both classification losses;
- ``dataset-directed``: a directed copy of the same graph, each edge
  pointing one way or the other by a fair coin, with ``directed = true``,
  ``symmetrize = false``, ``pattern_mode = concat`` and methods mkl, kl
  and knn, so that a node's in-link and out-link blocks differ and k-NN
  reads out-links;
- ``dataset-symmetrized``: the directed copy with ``directed = true`` and
  the default ``symmetrize = true``, and all five methods, so that the
  symmetrised graph reaches gk_df and gk_bl;
- ``bench-newnode``: ``bench_sizes = 60,120`` with mkl, gk_df and knn,
  under the ``identity`` scenario, as the C10 acceptance config runs it.

So every scenario and every pattern mode runs at least once, and so do
both readings of a directed edge list.  Every ``synthetic`` and ``dataset``
run trains mkl, so each also writes, and compares, its mkl traces, and
``regret`` writes its regret trace.

Each run is the command its name starts with: ``synthetic``, ``dataset``,
``regret`` or ``bench-newnode``.

Every config, edge and label file opens with a comment line, then a blank
line, and its first record carries a trailing comment, so that both trees
parse comments too.

``report.tsv``, ``summary.json`` and every file under ``traces/`` are
compared byte for byte.  ``bench-newnode`` always measures wall-clock time,
so its timing fields are masked first: the ``train_s`` and ``newnode_s``
columns of ``report.tsv``, the ``train_time`` and ``newnode_time`` keys of
each ``summary.json`` row, and ``extras.per_method``, which holds only
timings.  Everything else in those two files is compared exactly.  Under
each ``summary.json`` that differs, one line per differing JSON path gives
the base value, the head value and, for two numbers, their relative
difference |base - head| / max(|base|, |head|).  Under each ``.tsv`` file
that differs, one line per differing column gives how many of its rows
differ and the largest such relative difference.  Exit status: 0 when all are
identical, 1 on any difference, 2 when the base ref cannot be exported or a
run fails.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ALL_METHODS = "methods = mkl,kl,gk_df,gk_bl,knn\n"
# report.tsv column -> summary.json row key of the timings bench-newnode writes
TIMING_FIELDS = {"train_s": "train_time", "newnode_s": "newnode_time"}
MASK = "<timing>"
COMMANDS = ("synthetic", "dataset", "regret", "bench-newnode")


def commented(text: str) -> str:
    """``text`` under a comment line and a blank line, with a trailing comment
    on its first line."""
    first, newline, rest = text.partition("\n")
    return f"# report-identity fixture\n\n{first}  # first record{newline}{rest}"


def write_fixture(tmp: Path) -> dict:
    """Configs for the eleven runs; the dataset files live in ``tmp`` so both
    trees see the same paths (they are echoed into summary.json)."""
    rng = np.random.default_rng(0)
    n = 60
    edges = [(i, (i + 1) % n) for i in range(n)]  # a ring: no node is isolated
    edges += [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.15]
    (tmp / "edges.txt").write_text(commented("".join(f"n{i} n{j}\n" for i, j in edges)))
    labels = rng.normal(size=(n, 3))
    (tmp / "labels.txt").write_text(
        commented("".join(f"n{i} " + " ".join(f"{v:.6f}" for v in row) + "\n" for i, row in enumerate(labels)))
    )
    signs = np.where(labels > 0, 1, -1)
    (tmp / "signs.txt").write_text(
        commented("".join(f"n{i} " + " ".join(map(str, row)) + "\n" for i, row in enumerate(signs)))
    )
    weights = rng.uniform(0.1, 2.0, size=len(edges))
    (tmp / "weighted.txt").write_text(
        commented("".join(f"n{i} n{j} {w:.6f}\n" for (i, j), w in zip(edges, weights)))
    )
    flips = rng.random(len(edges)) < 0.5
    (tmp / "directed.txt").write_text(
        commented("".join(f"n{j} n{i}\n" if flip else f"n{i} n{j}\n" for (i, j), flip in zip(edges, flips)))
    )
    counts = "sample_counts = 10,20\ntrials = 2\n"
    dataset = ALL_METHODS + f"edge_list = {tmp / 'edges.txt'}\n{counts}"
    directed = (f"edge_list = {tmp / 'directed.txt'}\ndirected = true\n"
                f"labels = {tmp / 'labels.txt'}\n{counts}")
    classification = dataset + f"labels = {tmp / 'signs.txt'}\nstandardize_labels = false\n"
    configs = {
        "synthetic": ALL_METHODS,
        "synthetic-anchored": ALL_METHODS + "n_nodes = 120\nscenario = connectivity_anchored\n"
        "normalize_patterns = false\neta = auto\npattern_mode = concat\nsample_fraction = 0.2\ntrials = 2\n",
        "synthetic-connectivity": "methods = mkl,kl,knn\nscenario = connectivity\n"
        "pattern_mode = row\ntrials = 2\n",
        "regret": "",
        "dataset": dataset + f"labels = {tmp / 'labels.txt'}\n",
        "dataset-weighted": ALL_METHODS + f"edge_list = {tmp / 'weighted.txt'}\nweighted = true\n"
        f"labels = {tmp / 'labels.txt'}\nsample_counts = 10,20\ntrials = 2\n",
        "dataset-hinge": classification + "loss = hinge\n",
        "dataset-logistic": classification + "loss = logistic\n",
        "dataset-directed": directed + "symmetrize = false\npattern_mode = concat\nmethods = mkl,kl,knn\n",
        "dataset-symmetrized": directed + ALL_METHODS,
        "bench-newnode": "bench_sizes = 60,120\nmethods = mkl,gk_df,knn\ntiming_reps = 1\ntiming_nodes = 5\n"
        "scenario = identity\n",
    }
    paths = {}
    for name, text in configs.items():
        paths[name] = tmp / f"{name}.cfg"
        paths[name].write_text(commented(text))
    return paths


def export_tree(ref: str, dest: Path, *paths: str) -> Path:
    """Extract ``paths`` of ``ref`` into ``dest`` with ``git archive``; no
    worktree metadata is left behind."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, *paths],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def run_cli(src: Path, command: str, config: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    # refuse to compare an installed copy against itself
    code = (
        "import sys, graphrf, graphrf.cli\n"
        f"if not graphrf.__file__.startswith({str(src)!r}):\n"
        "    sys.exit('imported graphrf from ' + graphrf.__file__)\n"
        "sys.exit(graphrf.cli.main(sys.argv[1:]))\n"
    )
    args = [sys.executable, "-c", code, command, "--config", str(config), "--out", str(out)]
    result = subprocess.run(args, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{command} at {src} exited {result.returncode}:\n{result.stderr}")


def report_files(out: Path) -> list[str]:
    names = ["report.tsv", "summary.json"]
    if (out / "traces").is_dir():
        names += sorted(f"traces/{p.name}" for p in (out / "traces").iterdir())
    return names


def mask_timings(name: str, data: bytes) -> bytes:
    """``data`` with the timing fields of a bench-newnode file replaced by
    ``MASK``; a field missing on one side still shows as a difference."""
    if name == "report.tsv":
        rows = [line.split("\t") for line in data.decode("utf-8").splitlines()]
        masked = [i for i, header in enumerate(rows[0]) if header in TIMING_FIELDS]
        for row in rows[1:]:
            for i in masked:
                row[i] = MASK
        return "\n".join("\t".join(row) for row in rows).encode("utf-8")
    if name == "summary.json":
        payload = json.loads(data)
        for row in payload["rows"]:
            for key in TIMING_FIELDS.values():
                if key in row:
                    row[key] = MASK
        if "per_method" in payload["extras"]:
            payload["extras"]["per_method"] = MASK
        return json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
    return data


MISSING = "<missing>"


def json_differences(a, b, path: str = "") -> list[tuple[str, object, object]]:
    """``(path, base value, head value)`` of every leaf where two parsed JSON
    documents differ, in document order; a key or list entry on one side
    only shows ``MISSING`` on the other."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = list(a) + [k for k in b if k not in a]
        return [d for k in keys
                for d in json_differences(a.get(k, MISSING), b.get(k, MISSING), f"{path}.{k}" if path else k)]
    if isinstance(a, list) and isinstance(b, list):
        return [d for i in range(max(len(a), len(b)))
                for d in json_differences(a[i] if i < len(a) else MISSING, b[i] if i < len(b) else MISSING,
                                          f"{path}[{i}]")]
    return [] if a == b and type(a) is type(b) else [(path, a, b)]


def relative(a, b) -> str:
    """|a - b| / max(|a|, |b|) of two numbers, or "-" for anything else."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return "-"
    top = max(abs(a), abs(b))
    return f"{abs(a - b) / top:.3g}" if top else "0"


def number(text: str):
    """``text`` as a float, or ``text`` itself when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def tsv_differences(a: bytes, b: bytes) -> list[str]:
    """One indented line per column of two tab-separated tables that differs:
    how many of the rows differ, and the largest relative difference
    |base - head| / max(|base|, |head|) over the rows where both values are
    finite numbers ("-" when there are none).  Columns are matched by header;
    a differing header or row count gets a line of its own."""
    base, head = ([line.split("\t") for line in data.decode("utf-8").splitlines()] or [[]] for data in (a, b))
    lines = []
    if base[0] != head[0]:
        lines.append(f"  header: base {base[0]} head {head[0]}")
    if len(base) != len(head):
        lines.append(f"  rows: base {len(base) - 1} head {len(head) - 1}")
    n_rows = min(len(base), len(head)) - 1
    for name in [c for c in base[0] if c in head[0]]:
        i, j = base[0].index(name), head[0].index(name)
        pairs = [(ra[i] if i < len(ra) else MISSING, rb[j] if j < len(rb) else MISSING)
                 for ra, rb in zip(base[1:], head[1:])]
        differing = [(number(va), number(vb)) for va, vb in pairs if va != vb]
        if not differing:
            continue
        rels = [relative(va, vb) for va, vb in differing
                if all(isinstance(v, float) and math.isfinite(v) for v in (va, vb))]
        top = max(rels, key=float) if rels else "-"
        lines.append(f"  {name}: {len(differing)} of {n_rows} rows differ (max rel {top})")
    return lines


def compare(base: Path, head: Path, masked: bool = False) -> list[str]:
    """One line per compared file; lines of differing files start with DIFF,
    and a differing ``summary.json`` is followed by one indented line per
    differing JSON path (see :func:`json_differences`).  With ``masked`` the
    timing fields are left out of the comparison."""
    lines = []
    for name in sorted(set(report_files(base)) | set(report_files(head))):
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"DIFF {name}: only in {'base' if a.is_file() else 'working tree'}")
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if masked:
            data_a, data_b = mask_timings(name, data_a), mask_timings(name, data_b)
        note = ", timings masked" if masked else ""
        if data_a != data_b:
            lines.append(f"DIFF {name}: contents differ{note}")
            if name == "summary.json":
                lines += [f"  {path}: base {va!r} head {vb!r} (rel {relative(va, vb)})"
                          for path, va, vb in json_differences(json.loads(data_a), json.loads(data_b))]
            elif name.endswith(".tsv"):
                lines += tsv_differences(data_a, data_b)
        else:
            lines.append(f"same {name} ({a.stat().st_size} bytes{note})")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="report-identity-") as tmp_name:
        tmp = Path(tmp_name)
        configs = write_fixture(tmp)
        try:
            trees = {"base": export_tree(argv[0], tmp / "base", "src") / "src", "head": ROOT / "src"}
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {argv[0]}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        differs = False
        for name, config in configs.items():
            command = next(c for c in COMMANDS if name.startswith(c))
            outs = {}
            for label, src in trees.items():
                outs[label] = tmp / "out" / label / name
                try:
                    run_cli(src, command, config, outs[label])
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
            for line in compare(outs["base"], outs["head"], masked=command == "bench-newnode"):
                print(f"{name}: {line}")
                differs = differs or line.startswith("DIFF")
    print("reports differ" if differs else "all reports byte-identical")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
