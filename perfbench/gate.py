"""Correctness gate: compare workload outputs with recorded references.

References are recorded at the default seed of every workload (the
acceptance-suite seeds) and stored in ``reference.json`` beside this file.
Numbers are compared with a relative and an absolute tolerance rather than
bit-exactly, because equivalent BLAS paths (gemv against gemm) may differ in
the last digits.  Discrete outputs (booleans, counts, strings, selected grid
values) must match exactly; a selected regularizer is a float taken from a
fixed grid, so the tolerance admits no other grid value.

On any other seed there is no reference; only each workload's invariants are
checked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def compare(actual, expected, path: str = "", rtol: float = RTOL, atol: float = ATOL) -> list[str]:
    """Mismatches between two JSON-like values, one message per difference."""
    where = path or "<root>"
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {type(actual).__name__}"]
        out = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual:
                out.append(f"{sub}: missing")
            elif key not in expected:
                out.append(f"{sub}: unexpected")
            else:
                out.extend(compare(actual[key], expected[key], sub, rtol, atol))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}, got {_short(actual)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(compare(a, e, f"{path}[{i}]", rtol, atol))
        return out
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        a = float(actual)
        if math.isnan(expected) and math.isnan(a):
            return []
        if math.isclose(a, expected, rel_tol=rtol, abs_tol=atol):
            return []
        return [f"{where}: {a!r} differs from reference {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {_short(actual)} differs from reference {_short(expected)}"]
    return []


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def load_references(path: Path = REFERENCE_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def check(workload, outputs: dict, seed: int, references: dict) -> list[str]:
    """Every problem with one pass's outputs: invariants, then the reference."""
    problems = [f"invariant: {msg}" for msg in workload.invariants(outputs)]
    if seed == 0:
        expected = references.get(workload.name)
        if expected is None:
            problems.append(f"reference: no recorded outputs for {workload.name}")
        else:
            problems.extend(f"reference: {msg}" for msg in compare(outputs, expected))
    return problems


def to_jsonable(value):
    """Plain JSON types (floats keep every digit through repr round-trip)."""
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return to_jsonable(value.tolist())
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    return float(value)
