"""What a run writes: the rows of a report, their TSV and JSON forms, and
the per-step trace tables, as ``report.tsv``, ``summary.json`` and one
``traces/<name>.tsv`` per table.

Wall-clock timings are opt-in (``measure_runtime``): with them off, a report
is a pure function of (config, seeds) and two runs produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .config import ExperimentConfig
from .mkl import MklTraces


@dataclass
class MethodRow:
    method: str
    n_nodes: int
    n_sampled: int
    trials: int
    nmse_mean: float | None
    nmse_std: float | None
    nmse_conv_mean: float | None
    nmse_conv_std: float | None
    mu_selected: list = field(default_factory=list)
    train_time: float | None = None
    newnode_time: float | None = None
    knn_failures: int = 0
    notes: str = ""


@dataclass
class Report:
    rows: list[MethodRow]
    config: ExperimentConfig
    seeds: list[int]
    extras: dict = field(default_factory=dict)
    # per-step tables: name -> (column names, columns); written by
    # write_report as traces/<name>.tsv, never into summary.json
    traces: dict = field(default_factory=dict)

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.method, r.n_nodes, r.n_sampled))

    def to_tsv(self) -> str:
        lines = ["\t".join(header for header, _, _, _ in _COLUMNS)]
        for row in self.sorted_rows():
            lines.append("\t".join(_cell(getattr(row, attr), missing) for _, _, attr, missing in _COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The report as JSON, or a ``ValueError`` naming the row's method and
        field, or the ``extras`` key, of a value that is not finite."""
        rows = [{key: getattr(r, attr) for _, key, attr, _ in _COLUMNS} for r in self.sorted_rows()]
        named = [(f"row {row['method']!r} field", row) for row in rows] + [("extras key", self.extras)]
        for what, value in named:
            where = _non_finite(value)
            if where is not None:
                raise ValueError(f"report {what} {where!r} is not finite, so no JSON report can be written")
        payload = {"config": asdict(self.config), "seeds": self.seeds, "rows": rows, "extras": self.extras}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _non_finite(value, path: str = "") -> str | None:
    """The dotted key path, within dicts, lists and tuples, of the first
    float in ``value`` that is not finite, or None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, (list, tuple)) else ()
    for key, item in items:
        found = _non_finite(item, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


# Report columns: (TSV header, JSON key, MethodRow attribute, TSV text when
# the value is missing).
_COLUMNS = (
    ("method", "method", "method", None),
    ("n", "n", "n_nodes", None),
    ("m", "m", "n_sampled", None),
    ("trials", "trials", "trials", None),
    ("nmse", "nmse_mean", "nmse_mean", "undefined"),
    ("nmse_std", "nmse_std", "nmse_std", "undefined"),
    ("nmse_conventional", "nmse_conventional_mean", "nmse_conv_mean", "undefined"),
    ("nmse_conventional_std", "nmse_conventional_std", "nmse_conv_std", "undefined"),
    ("mu", "mu_selected", "mu_selected", "-"),
    ("train_s", "train_time", "train_time", "-"),
    ("newnode_s", "newnode_time", "newnode_time", "-"),
    ("knn_failures", "knn_failures", "knn_failures", None),
    ("notes", "notes", "notes", "-"),
)


def _cell(value, missing: str | None) -> str:
    """TSV text of one value; a list of selected mu shows its median."""
    if isinstance(value, list):
        value = float(statistics.median(value)) if value else None
    if value is None or value == "":
        return missing
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_report(report: Report, out_dir) -> None:
    """Write ``report.tsv``, ``summary.json`` and one ``traces/<name>.tsv``
    per entry of ``report.traces``, and remove any other ``traces/*.tsv``,
    which an earlier report left; the runners themselves write nothing."""
    # render both before writing either: a report that cannot be written as
    # JSON (a non-finite value) leaves no report.tsv behind
    tsv, summary = report.to_tsv(), report.to_json()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.tsv").write_text(tsv, encoding="utf-8")
    (out / "summary.json").write_text(summary, encoding="utf-8")
    for stale in (out / "traces").glob("*.tsv"):
        if stale.stem not in report.traces:
            stale.unlink()
    if report.traces:
        (out / "traces").mkdir(exist_ok=True)
    for name, (names, columns) in report.traces.items():
        (out / "traces" / f"{name}.tsv").write_text(_steps_to_tsv(names, columns), encoding="utf-8")


def _mkl_trace_table(traces: MklTraces) -> tuple[list[str], list]:
    """Columns per step: combined loss, P per-kernel losses, P weights."""
    n_kernels = traces.per_kernel_loss.shape[1] if traces.n_steps else 0
    return (
        ["combined_loss"] + [f"loss_{p}" for p in range(n_kernels)] + [f"weight_{p}" for p in range(n_kernels)],
        [traces.combined_loss, *traces.per_kernel_loss.T[:n_kernels], *traces.weights.T[:n_kernels]],
    )


def _steps_to_tsv(names, columns) -> str:
    """One row per step: t, then each column's value at that step, written
    with ``repr`` so it reads back bit-exactly."""
    lines = ["\t".join(["t", *names])]
    for t, values in enumerate(zip(*columns), start=1):
        lines.append("\t".join([str(t), *(repr(float(v)) for v in values)]))
    return "\n".join(lines) + "\n"
