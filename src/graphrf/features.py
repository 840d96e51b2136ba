"""Random-feature encoding of connectivity patterns.

An :class:`RFMap` freezes D spectral samples of a shift-invariant kernel and
maps a length-N pattern a to the 2D-dimensional unit vector

    z(a) = D^{-1/2} [sin(v_1.a), ..., sin(v_D.a), cos(v_1.a), ..., cos(v_D.a)]

Inner products of encodings are unbiased estimates of the kernel.  The
encoding is the only representation of a node that learners consume.  Whenever
D < N the map is many-to-one, so the raw pattern cannot be recovered from z.
Whenever D >= N, whoever holds V can: ``arctan2`` of the sin and cos halves
gives V.a (when every |v_i.a| < pi), and one least-squares solve against V
returns a.  The defaults (d = 100 against 10 anchors) and the README quick
start (D = 100, N = 25) sit in that regime, and every checkpoint embeds V.
Batch scoring from raw patterns (:func:`~graphrf.mkl.mkl_predict_batch`),
on the side that holds V, takes :func:`project_stacked`'s V.a and reads a
learner's weights as an amplitude and a phase per feature; learning, and
scoring from encodings, still consume z alone.

Maps are immutable once built and encoding is pure, so batches of nodes can
be encoded concurrently against a shared map.  :func:`encode_stacked` is the
one encoder: it encodes a batch under P maps of equal shape at once, which is
how a multi-kernel model encodes a joining node, and
:meth:`RFMap.encode_batch` is its P = 1 case.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .kernels import KERNEL_FAMILIES, KernelSpec, spectral_sample

LAYOUT_VERSION = 1  # sines block first, then cosines
_MAGIC = b"GRFRFMAP"
_HEADER = "<IIQQBdq"  # format and layout version, D, N, family code, bandwidth, seed
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RFMap:
    """Frozen D x N spectral-sample matrix plus its provenance."""

    v_matrix: np.ndarray
    kernel: KernelSpec
    seed: int

    def __post_init__(self):
        v = np.ascontiguousarray(self.v_matrix, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("v_matrix must be 2-d (D x N)")
        if min(v.shape) < 1:
            raise ValueError(f"v_matrix needs D >= 1 and N >= 1, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("v_matrix must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v_matrix", v)

    @property
    def d(self) -> int:
        return self.v_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.v_matrix.shape[1]

    @cached_property
    def ref(self) -> str:
        """Identifier that fully determines this map under seeded rebuilds."""
        return (
            f"{self.kernel.family}:bw={self.kernel.bandwidth!r}:D={self.d}"
            f":N={self.n}:seed={self.seed}:L{LAYOUT_VERSION}"
        )

    def encode_batch(self, patterns) -> np.ndarray:
        """Encode the rows of a (k, N) array into a (k, 2D) array: the one-map
        case of :func:`encode_stacked`."""
        return encode_stacked(self.v_matrix[None], patterns)[0]

    def encode(self, pattern) -> np.ndarray:
        """Encode one length-N pattern into its 2D-dimensional feature vector."""
        return self.encode_batch(one_node(pattern))[0]


def one_node(pattern) -> np.ndarray:
    """One node's 1-d pattern as a (1, N) batch, or a ``ValueError``."""
    a = np.asarray(pattern, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"a node's pattern must be 1-d, got shape {a.shape}")
    return a[None, :]


def project_stacked(v_block: np.ndarray, patterns) -> np.ndarray:
    """The (P, T, D) projections x = a V_p^T of the rows of a (T, N) array
    under P maps, or a ``ValueError`` for patterns of the wrong shape or not
    finite.

    ``v_block`` is the (P, D, N) stack of the maps' spectral matrices.  The
    products take one batched matmul, which numpy runs as one BLAS call per
    map with the shapes a single map's call has, so every map's projection is
    bit-identical to projecting under that map alone.  (One (P*D, N) product
    is not: BLAS picks its kernel and blocking by shape, and the results
    differ in the last bits.)
    """
    a = np.asarray(patterns, dtype=np.float64)
    if a.ndim < 2:
        a = a.reshape(1, -1)  # np.atleast_2d, without its cost per call
    n = v_block.shape[2]
    if a.ndim != 2:
        raise ValueError(f"patterns must be one pattern or a (T, N) array of them, got shape {a.shape}")
    if a.shape[1] != n:
        raise ValueError(f"patterns have dimension {a.shape[1]}, map expects {n}")
    if not np.isfinite(a).all():
        raise ValueError("patterns must be finite")
    return np.matmul(a, v_block.transpose(0, 2, 1))


def encode_stacked(v_block: np.ndarray, patterns) -> np.ndarray:
    """Encode the rows of a (T, N) array under P maps at once.

    ``v_block`` is the (P, D, N) stack of the maps' spectral matrices; the
    result is the (P, T, 2D) stack of their encodings.  The projections are
    :func:`project_stacked`'s, so every map's encoding is bit-identical to
    encoding under that map alone.  One sin, one cos and one scaling then
    cover all P maps.
    """
    x = project_stacked(v_block, patterns)
    d = x.shape[2]
    out = np.empty(x.shape[:2] + (2 * d,))
    np.sin(x, out=out[..., :d])
    np.cos(x, out=out[..., d:])
    out *= d**-0.5
    return out


def build_map(kernel: KernelSpec, d: int, n: int, seed: int) -> RFMap:
    """Sample a fresh map for the given kernel; deterministic per seed."""
    v = spectral_sample(kernel, d, n, seed)
    return RFMap(v_matrix=v, kernel=kernel, seed=int(seed))


def approx_kernel(rf_map: RFMap, a, b) -> float:
    """z(a).z(b): unbiased randomized estimate of the exact kernel."""
    return float(np.dot(rf_map.encode(a), rf_map.encode(b)))


def null_space_collision(rf_map: RFMap, pattern) -> np.ndarray:
    """A different pattern with exactly the same encoding.

    Exists whenever the spectral matrix has a nontrivial null space, in
    particular whenever D < N.  Raises if the map is injective on patterns.
    """
    a = np.asarray(pattern, dtype=np.float64)
    if a.shape != (rf_map.n,):
        raise ValueError(f"pattern must have length {rf_map.n}")
    v = rf_map.v_matrix
    _, s, vt = np.linalg.svd(v, full_matrices=True)
    tol = max(v.shape) * (s[0] if s.size else 0.0) * np.finfo(np.float64).eps
    rank = int((s > tol).sum())
    if rank >= rf_map.n:
        raise ValueError("map has full column rank: no guaranteed collision exists")
    return a + vt[rank]


def save_map(rf_map: RFMap, path) -> None:
    """Write the map in the little-endian binary layout (bit-exact)."""
    Path(path).write_bytes(_map_bytes(rf_map))


def load_map(path) -> RFMap:
    return _map_from_bytes(Path(path).read_bytes())


def _map_bytes(rf_map: RFMap) -> bytes:
    family_code = KERNEL_FAMILIES.index(rf_map.kernel.family)
    header = _MAGIC + struct.pack(
        _HEADER,
        _FORMAT_VERSION,
        LAYOUT_VERSION,
        rf_map.d,
        rf_map.n,
        family_code,
        rf_map.kernel.bandwidth,
        rf_map.seed,
    )
    return header + np.ascontiguousarray(rf_map.v_matrix).astype("<f8").tobytes()


def _map_from_bytes(raw: bytes) -> RFMap:
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a random-feature map file")
    offset = len(_MAGIC) + struct.calcsize(_HEADER)
    if len(raw) < offset:
        raise ValueError("map file truncated")
    version, layout, d, n, family_code, bandwidth, seed = struct.unpack_from(_HEADER, raw, len(_MAGIC))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported map format version {version}")
    if layout != LAYOUT_VERSION:
        raise ValueError(f"unsupported map layout {layout}, expected {LAYOUT_VERSION}")
    if family_code >= len(KERNEL_FAMILIES):
        raise ValueError(f"unknown kernel family code {family_code}")
    for field, size in (("D", d), ("N", n)):
        if size < 1:
            raise ValueError(f"map header field {field} is {size}; a map needs D >= 1 and N >= 1")
    body = np.frombuffer(raw, dtype="<f8", offset=offset)
    if body.size != d * n:
        raise ValueError("map file truncated")
    return RFMap(
        v_matrix=body.reshape(d, n),
        kernel=KernelSpec(KERNEL_FAMILIES[family_code], bandwidth),
        seed=seed,
    )
