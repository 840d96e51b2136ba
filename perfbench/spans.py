"""In-memory span tracer that wraps graphrf functions at their call sites.

A wrap target is the dotted path of a module or class attribute, such as
``graphrf.harness.knn_predict`` (the name the harness calls) or
``graphrf.features.RFMap.encode_batch``.  While the tracer is installed each
target is replaced by a wrapper that records one span per call; uninstalling
puts the original objects back.  Nothing under ``src/`` is edited.

A span has a name, a start, an end and a parent.  Spans stay in memory and
are written out once, by :meth:`Tracer.write`, when the run ends.  Per-name statistics (calls,
inclusive time, self time, exceptions and layer-specific counts) accumulate
alongside and are handed out segment by segment by :meth:`Tracer.take_stats`.
A layer's self time is its span's duration minus the time covered by its
child spans.  Counting work the tracer does after a call (hashing rows, for
instance) is itself recorded as a ``trace`` span, so it is charged to the
tracer and not to the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TRACE = "trace"


class MissingTargetError(LookupError):
    """A wrap target no longer exists, so its layer cannot be measured."""


@dataclass(frozen=True)
class Layer:
    """A metric prefix, the attribute to wrap, and an optional counter.

    ``count(stats, args, kwargs, result)`` runs after each successful call and
    adds layer-specific counts to ``stats``.
    """

    name: str
    target: str
    count: Callable | None = None


class LayerStats:
    __slots__ = ("calls", "s", "self_s", "errors", "counts", "distinct")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.counts: dict[str, float] = {}
        self.distinct: set = set()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def as_dict(self) -> dict:
        out = {
            "calls": self.calls,
            "s": self.s,
            "self_s": self.self_s,
            "errors": self.errors,
            "distinct": len(self.distinct),
        }
        out.update(self.counts)
        return out


def resolve(path: str):
    """Return (owner, attribute name) for a dotted module or class attribute."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
        except AttributeError:
            break
        if callable(getattr(owner, parts[-1], None)):
            return owner, parts[-1]
        break
    raise MissingTargetError(f"wrap target {path} no longer exists")


class Tracer:
    """Records spans for the wrapped layers and for explicit ``span`` blocks."""

    def __init__(self, layers):
        self.layers = tuple(layers)
        self._origin = time.perf_counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans: list[tuple] = []  # (id, name id, parent id, start, end)
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [id, parent id, name id, child time, start]
        self._stats: dict[str, LayerStats] = {}
        self._patched: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def check_targets(self) -> None:
        """Raise MissingTargetError naming the first target that is gone."""
        for layer in self.layers:
            resolve(layer.target)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        resolved = [(layer, *resolve(layer.target)) for layer in self.layers]
        for layer, owner, attr in resolved:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))
            self._patched.append((owner, attr, own, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, own, original = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, layer: Layer, fn):
        name_id, stats = self._name_id(layer.name), self.stats(layer.name)
        trace_id, trace_stats = self._name_id(TRACE), self.stats(TRACE)
        count, open_, close = layer.count, self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, stats, failed=True)
                raise
            close(frame, stats)
            if count is not None:
                frame = open_(trace_id)
                count(stats, args, kwargs, result)
                close(frame, trace_stats)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def stats(self, name: str) -> LayerStats:
        st = self._stats.get(name)
        if st is None:
            st = self._stats[name] = LayerStats()
        return st

    def _open(self, name_id: int) -> list:
        span_id = self._next_id
        self._next_id = span_id + 1
        stack = self._stack
        frame = [span_id, stack[-1][0] if stack else -1, name_id, 0.0, 0.0]
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _close(self, frame: list, stats: LayerStats, failed: bool = False) -> None:
        end = time.perf_counter()
        span_id, parent, name_id, child_time, start = frame
        if self._stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        duration = end - start
        stats.calls += 1
        stats.s += duration
        stats.self_s += duration - child_time
        if failed:
            stats.errors += 1
        if self._stack:
            self._stack[-1][3] += duration
        self._spans.append((span_id, name_id, parent, start, end))

    @contextmanager
    def span(self, name: str):
        stats = self.stats(name)
        frame = self._open(self._name_id(name))
        try:
            yield
        except BaseException:
            self._close(frame, stats, failed=True)
            raise
        self._close(frame, stats)

    # -- output -----------------------------------------------------------

    def take_stats(self) -> dict[str, dict]:
        """Statistics gathered since the last call, keyed by span name."""
        out = {}
        for name, st in self._stats.items():
            if st.calls:
                out[name] = st.as_dict()
            st.reset()
        return out

    @property
    def n_spans(self) -> int:
        return len(self._spans)

    def write(self, path) -> None:
        """Gzipped TSV, one span per line: id, name, start and end in seconds
        since the tracer was created, and the parent's id (-1 for a root)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin, names = self._origin, self._names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for span_id, name_id, parent, start, end in sorted(self._spans):
                fh.write(
                    f"{span_id}\t{names[name_id]}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n"
                )
