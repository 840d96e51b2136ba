"""Graph representation, ingestion, random generation and node sampling.

Adjacency is kept as a dense matrix; that is comfortably within desk scale
for the graph sizes this package targets (a few thousand nodes).  An
unweighted graph holds a bool matrix, one byte per entry, where True is an
edge of weight 1; a weighted graph holds float64.  Every consumer that does
arithmetic on the adjacency converts it to float64, so both layouts of the
same 0/1 values give bit-identical results.  Graphs are immutable after
construction and safe to share across threads.

A graph is built once and in place: :func:`erdos_renyi` thresholds its
uniforms row chunk by row chunk into the one N×N bool array, symmetrises it
block by block and freezes it, and :class:`Graph` adopts a frozen array that
owns its memory instead of copying it, so a random build peaks at about one
adjacency (N² bytes).  Every other array is copied, and the constructor's
checks make no N×N temporary.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

# rows per block of the in-place symmetrisation and the symmetry check; the
# temporaries are one block wide, never N×N
_BLOCK = 256


def _lines(source) -> Iterator[tuple[int, str]]:
    r"""``(line number, text)`` for each line of ``source`` that holds text
    before its ``#`` comment.  ``source`` is a path, read as UTF-8 with a
    leading byte-order mark dropped, an open text file or an iterable of
    lines.  A path and an open file split into lines by one rule, universal
    newlines: only ``\n``, ``\r\n`` and ``\r`` end a line.  Every text
    input is read here."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8-sig")
    elif hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    for lineno, raw in enumerate(source, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def _is_symmetric(a: np.ndarray) -> bool:
    """``np.array_equal(a, a.T)``, compared over upper-triangle block pairs."""
    n = a.shape[0]
    return all(
        np.array_equal(a[i : i + _BLOCK, j : j + _BLOCK], a[j : j + _BLOCK, i : i + _BLOCK].T)
        for i in range(0, n, _BLOCK)
        for j in range(i, n, _BLOCK)
    )


def _check_weights(a: np.ndarray) -> None:
    """Refuse float64 edge weights that are not finite or are negative."""
    # min and max propagate NaN, so a NaN entry fails the finiteness check;
    # the initial 0 covers an empty array and moves neither test
    lo, hi = a.min(initial=0.0), a.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("adjacency entries must be finite")
    if lo < 0:
        raise ValueError("adjacency entries must be non-negative")


@dataclass(frozen=True)
class Graph:
    """A (possibly directed, possibly weighted) graph over N nodes.

    adjacency[i, j] is the weight of the edge from node i to node j for
    directed graphs (an edge-list line ``i j`` sets it); undirected graphs
    are exactly symmetric.

    A bool adjacency stays bool, True meaning an edge of weight 1; any
    other input becomes float64.  A C-ordered array of that dtype that is
    read-only and owns its memory is adopted as it is (``g.adjacency is
    a``): handing one over hands over ownership, and the caller must not
    make it writeable again.  Any other input (a writeable array, a view,
    another dtype or order) is copied, so later changes to the caller's
    array never reach the graph.
    """

    adjacency: np.ndarray
    directed: bool = False
    node_names: tuple[str, ...] | None = None

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.dtype != np.bool_:
            a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if a.dtype == np.float64:
            _check_weights(a)
        if not self.directed and not _is_symmetric(a):
            raise ValueError("undirected graph requires an exactly symmetric adjacency")
        if self.node_names is not None and len(self.node_names) != a.shape[0]:
            raise ValueError("node_names length must match the number of nodes")
        if a.flags.writeable or not (a.flags.owndata and a.flags.c_contiguous):
            a = a.copy()
            a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.float64)


@dataclass(frozen=True)
class SamplingPlan:
    """An ordered set of sampled node indices and its complement."""

    sampled: np.ndarray
    unsampled: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sampled, dtype=np.int64).copy()
        u = np.asarray(self.unsampled, dtype=np.int64).copy()
        # set arithmetic, not np.intersect1d, which imports numpy.ma
        distinct = set(s.tolist())
        if not distinct.isdisjoint(u.tolist()):
            raise ValueError("sampled and unsampled sets overlap")
        if len(distinct) != s.size:
            raise ValueError("sampled indices must be distinct")
        s.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "sampled", s)
        object.__setattr__(self, "unsampled", u)

    @property
    def n_sampled(self) -> int:
        return int(self.sampled.size)


def load_edge_list(source, directed: bool = False, weighted: bool = False) -> Graph:
    """Parse an edge list of lines ``src dst [weight]``.

    Node tokens are mapped to dense 0-based indices in first-seen order.
    ``#`` starts a comment.  Duplicate edges keep the last weight; undirected
    edges are mirrored.  Extra columns are ignored unless ``weighted``.  The
    adjacency is float64 when ``weighted`` and bool otherwise.
    """
    names: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    for lineno, line in _lines(source):
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected 'src dst [weight]', got {line!r}")
        if weighted:
            if len(tokens) < 3:
                raise ValueError(f"line {lineno}: weighted edge list needs a third column")
            try:
                w = float(tokens[2])
            except ValueError:
                raise ValueError(f"line {lineno}: weight {tokens[2]!r} is not a number") from None
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"line {lineno}: weight must be finite and non-negative")
        else:
            w = 1.0
        pair = []
        for tok in tokens[:2]:
            if tok not in names:
                names[tok] = len(names)
            pair.append(names[tok])
        edges.append((pair[0], pair[1], w))
    if not edges:
        raise ValueError("empty edge list")
    n = len(names)
    a = np.zeros((n, n), dtype=np.float64 if weighted else np.bool_)
    for i, j, w in edges:
        a[i, j] = w
        if not directed:
            a[j, i] = w
    a.setflags(write=False)
    return Graph(adjacency=a, directed=directed, node_names=tuple(names))


def load_labels(source) -> dict[str, np.ndarray]:
    """Parse a label file of lines ``node value [value ...]``.

    Returns a map from node token to a vector of label columns (several
    columns model repeated test signals).  All rows must carry the same
    number of columns, and no node may be labeled twice.
    """
    labels: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    width = None
    for lineno, line in _lines(source):
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected 'node value [value ...]'")
        try:
            vals = np.array([float(t) for t in tokens[1:]])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric label value") from None
        if not np.isfinite(vals).all():
            raise ValueError(f"line {lineno}: label values must be finite")
        if width is None:
            width = vals.size
        elif vals.size != width:
            raise ValueError(f"line {lineno}: expected {width} label columns, got {vals.size}")
        if tokens[0] in first_line:
            raise ValueError(f"line {lineno}: node {tokens[0]!r} already labeled on line {first_line[tokens[0]]}")
        first_line[tokens[0]] = lineno
        labels[tokens[0]] = vals
    if not labels:
        raise ValueError("empty label file")
    return labels


def erdos_renyi(n: int, edge_prob: float, seed) -> Graph:
    """Random binary graph: independent directed edges, then symmetrized.

    The sum of a draw and its transpose is clamped back to {0, 1} so the
    graph stays simple and binary; the effective undirected edge probability
    is 1 - (1 - edge_prob)^2.

    The uniforms are drawn in chunks of rows (the same stream, in the same
    C order, as ``rng.random((n, n))``) and each chunk is thresholded
    straight into the one N×N bool array the graph keeps; each
    upper-triangle block pair is then or-ed with its mirror and written back
    to both halves, so the build peaks at about one adjacency.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    a = np.empty((n, n), dtype=np.bool_)
    # n // 64 rows of float64 uniforms take an eighth of the bool array's bytes
    chunk = max(1, n // 64)
    uniforms = np.empty((chunk, n))
    for i in range(0, n, chunk):
        u = uniforms[: min(chunk, n - i)]
        rng.random(out=u)
        np.less(u, edge_prob, out=a[i : i + chunk])
    del uniforms, u
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        for j in range(i, n, _BLOCK):
            cols = slice(j, j + _BLOCK)
            s = a[rows, cols] | a[cols, rows].T
            if i == j:
                np.fill_diagonal(s, False)
            a[rows, cols] = s
            a[cols, rows] = s.T
    a.setflags(write=False)
    return Graph(adjacency=a, directed=False)


def normalized_laplacian(g: Graph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}, spectrum in [0, 2].

    Degree-0 nodes get a 0 inverse-root degree, which leaves their row equal
    to the identity row and keeps the matrix PSD.
    """
    if g.directed:
        raise ValueError("normalized Laplacian requires an undirected graph")
    return _normalized_laplacian(g.adjacency)


def _normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """:func:`normalized_laplacian` of a symmetric adjacency, or of each
    one in a (..., n, n) stack, by the same elementwise operations: a
    stacked Laplacian is each graph's Laplacian bit for bit."""
    deg = adjacency.sum(axis=-1, dtype=np.float64)
    dinv = np.where(deg > 0, deg, 1.0) ** -0.5
    dinv[deg <= 0] = 0.0
    # in place where it can be: two arrays of the input's size are made
    lap = dinv[..., :, None] * adjacency
    lap *= dinv[..., None, :]
    np.subtract(np.eye(adjacency.shape[-1]), lap, out=lap)
    lap = lap + np.swapaxes(lap, -1, -2)
    lap /= 2.0
    return lap


def sample_nodes(g: Graph, m: int, seed) -> SamplingPlan:
    """Uniform m-subset of nodes without replacement, in random order."""
    if not 1 <= m <= g.n_nodes:
        raise ValueError(f"m must be in [1, {g.n_nodes}], got {m}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n_nodes)
    return SamplingPlan(sampled=perm[:m], unsampled=np.sort(perm[m:]))


def synth_signal(g: Graph, kernel, noise_var: float = 0.01, seed=None) -> np.ndarray:
    """x = K alpha + e with alpha_i ~ U[0.5, 1] and e_i ~ N(0, noise_var), as
    a read-only float64 array.

    ``kernel`` is the N×N matrix K, or a function that maps alpha to K alpha,
    so that a kernel never needs to exist whole.  alpha is drawn before the
    noise, from the one generator seeded by ``seed``.
    """
    n = g.n_nodes
    if not callable(kernel):
        k = np.asarray(kernel, dtype=np.float64)
        if k.shape != (n, n):
            raise ValueError(f"kernel matrix must be {n}x{n}, got {k.shape}")
        kernel = k.__matmul__
    if not noise_var >= 0:  # nan is refused too
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 1.0, size=n)
    x = np.asarray(kernel(alpha), dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"kernel function must return shape ({n},), got {x.shape}")
    if noise_var > 0:
        x = x + rng.normal(0.0, math.sqrt(noise_var), size=n)
    if not np.isfinite(x).all():
        raise ValueError("signal values must be finite")
    x.setflags(write=False)
    return x
