"""Command-line front end.

Subcommands: ``synthetic``, ``dataset``, ``regret``, ``bench-newnode`` and
``encode``.  Each accepts ``--seed`` (the config base seed, or the map seed
of ``encode``) and ``--format`` (what gets echoed to stdout); all but
``encode`` also take ``--config`` (flat key = value file) and ``--out``
(report directory).  Exit code 0 on success, 1 on a diagnosed error, 2 on
bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .features import build_map
from .graph import _lines
from .harness import (
    ExperimentConfig,
    bench_newnode,
    load_config,
    run_dataset,
    run_regret,
    run_synthetic,
    write_report,
)
from .kernels import KERNEL_FAMILIES, KernelSpec


def _output_flags(parser: argparse.ArgumentParser, seed_help: str) -> None:
    parser.add_argument("--seed", type=int, help=seed_help)
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")


# The report-writing subcommands: name -> (runner, help text).
_RUNNERS = {
    "synthetic": (run_synthetic, "random-graph benchmark"),
    "dataset": (run_dataset, "edge-list + label-file benchmark"),
    "regret": (run_regret, "online-vs-batch regret diagnostics"),
    "bench-newnode": (bench_newnode, "new-node inference runtime scaling"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphrf",
        description="Online multi-kernel learning of node signals over graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, descr) in _RUNNERS.items():
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", help="path to a flat key = value config file")
        p.add_argument("--out", help="directory for report.tsv / summary.json / traces")
        _output_flags(p, "override the config base seed")
    enc = sub.add_parser("encode", help="emit the random-feature encoding of a pattern")
    _output_flags(enc, "seed of the map's spectral samples (default 0)")
    enc.add_argument("--vector", help="comma-separated connectivity pattern")
    enc.add_argument("--vector-file", help="file with one pattern value per line")
    enc.add_argument("--d", type=int, default=10, help="number of spectral samples")
    enc.add_argument("--family", default="gaussian", choices=KERNEL_FAMILIES)
    enc.add_argument("--bandwidth", type=float, default=1.0)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    return config


def _cmd_encode(args) -> int:
    if args.vector:
        pattern = np.array([float(v) for v in args.vector.split(",") if v.strip() != ""])
    elif args.vector_file:
        values = []
        for lineno, line in _lines(args.vector_file):
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"line {lineno}: {line!r} is not a number") from None
        pattern = np.array(values)
    else:
        raise ValueError("encode needs --vector or --vector-file")
    if pattern.size == 0:
        raise ValueError("empty pattern")
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    rf_map = build_map(KernelSpec(args.family, args.bandwidth), args.d, pattern.size, seed)
    z = rf_map.encode(pattern)
    if args.format == "json":
        sys.stdout.write(json.dumps([float(v) for v in z]) + "\n")
    else:
        sys.stdout.write("\t".join(repr(float(v)) for v in z) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "encode":
            return _cmd_encode(args)
        runner, _ = _RUNNERS[args.command]
        report = runner(_resolve_config(args))
        if args.out is not None:
            write_report(report, args.out)
        body = report.to_tsv() if args.format == "tsv" else report.to_json()
        sys.stdout.write(body)
        return 0
    except (ValueError, OSError, FloatingPointError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
