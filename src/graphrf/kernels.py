"""Shift-invariant kernel dictionary and graph-spectral kernels.

Shift-invariant kernels come with closed-form evaluation and with sampling
from the spectral density that backs the random-feature encoding.  Graph
kernels are spectral functions of the normalized Laplacian and feed the
batch baselines.  Everything here is a pure function of immutable inputs
(sampling takes an explicit seed), so concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, normalized_laplacian

KERNEL_FAMILIES = ("gaussian", "laplacian", "cauchy")
GRAPH_KERNEL_FAMILIES = ("diffusion", "bandlimited")

# r(lambda) values at or below this are treated as numerically zero when
# pseudo-inverting the spectral response.
PINV_FLOOR = 1e-10

# The band-limited kernel's damping of out-of-band components.
BAND_FLOOR = 1e-6

# Byte budget of one row chunk (see row_chunk): eval_kernel_matrix works a
# chunk of output rows at a time, and the truth signal streams K alpha in
# chunks.
_ROW_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class KernelSpec:
    """A standardized shift-invariant kernel.

    ``bandwidth`` is sigma^2 for the gaussian family and the scale sigma for
    the laplacian and cauchy families.
    """

    family: str
    bandwidth: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if isinstance(self.bandwidth, bool):
            raise ValueError(f"bandwidth takes no bool, got {self.bandwidth!r}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be positive and finite")


@dataclass(frozen=True)
class GraphKernelSpec:
    """A graph kernel defined by a spectral response r(lambda).

    diffusion: r(lambda) = exp(sigma2 * lambda / 2).
    bandlimited: r = 1 on the band of the ``band_size`` smallest-eigenvalue
    eigenvectors and 1/BAND_FLOOR outside, so the kernel damps out-of-band
    components by ``BAND_FLOOR``.
    """

    family: str
    sigma2: float | None = None
    band_size: int | None = None

    def __post_init__(self):
        if self.family not in GRAPH_KERNEL_FAMILIES:
            raise ValueError(f"unknown graph-kernel family {self.family!r}")
        if self.family == "diffusion":
            if self.sigma2 is None or not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
                raise ValueError("diffusion kernel needs a finite sigma2 >= 0")
        else:
            if self.band_size is None or self.band_size < 1:
                raise ValueError("bandlimited kernel needs band_size >= 1")


def _as_equal_vectors(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"expected equal-length vectors, got {a.shape} and {b.shape}")
    return a, b


def eval_kernel(spec: KernelSpec, a, b) -> float:
    """Closed-form kernel value, standardized so kappa(a, a) = 1."""
    a, b = _as_equal_vectors(a, b)
    d = a - b
    if spec.family == "gaussian":
        return float(np.exp(-np.dot(d, d) / (2.0 * spec.bandwidth)))
    if spec.family == "laplacian":
        return float(np.exp(-np.abs(d).sum() / spec.bandwidth))
    return float(np.prod(1.0 / (1.0 + (d / spec.bandwidth) ** 2)))


def row_chunk(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes each that fit the row-chunk byte budget:
    a multiple of 8, and at least 8."""
    return max(8, _ROW_CHUNK_BYTES // (8 * max(1, row_bytes)) * 8)


def eval_kernel_matrix(spec: KernelSpec, xs, ys, ys_norms=None) -> np.ndarray:
    """Pairwise kernel matrix between the rows of xs and ys.

    ``ys_norms``, used by the gaussian family only, is ``(ys * ys).sum(axis=1)``
    for a caller that evaluates many row blocks against one ys: it is then
    computed once, not once per block.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if xs.shape[1] != ys.shape[1]:
        raise ValueError("xs and ys must have the same feature dimension")
    out = np.empty((xs.shape[0], ys.shape[0]))
    if spec.family == "gaussian":
        # exp(-max((xn + yn) - 2.0 * xs @ ys.T, 0) / (2 bw)), with the output
        # the only array of its size.  The product is one call, written into
        # the output, as a product split by rows can round differently in
        # BLAS; 2.0 * xs is a new array, so numpy does not take its syrk path
        # when xs is ys.  The rest runs a row chunk at a time, in place while
        # the chunk is in cache.  Dividing by -2 bw gives the bits of negating
        # and then dividing by 2 bw, as rounding is symmetric in sign, and a
        # -0 from the maximum still gives exp(-0) = 1
        xn = (xs * xs).sum(axis=1)
        yn = (ys * ys).sum(axis=1) if ys_norms is None else ys_norms
        np.matmul(2.0 * xs, ys.T, out=out)
        scale = -2.0 * spec.bandwidth
        chunk = row_chunk(8 * ys.shape[0])
        for i0 in range(0, xs.shape[0], chunk):
            blk = out[i0 : i0 + chunk]
            np.subtract(xn[i0 : i0 + chunk, None] + yn[None, :], blk, out=blk)
            np.maximum(blk, 0.0, out=blk)
            blk /= scale
            np.exp(blk, out=blk)
        return out
    chunk = row_chunk(8 * ys.shape[0] * xs.shape[1])
    for i0 in range(0, xs.shape[0], chunk):
        d = np.abs(xs[i0 : i0 + chunk, None, :] - ys[None, :, :])
        if spec.family == "laplacian":
            out[i0 : i0 + chunk] = np.exp(-d.sum(axis=2) / spec.bandwidth)
        else:
            out[i0 : i0 + chunk] = np.prod(1.0 / (1.0 + (d / spec.bandwidth) ** 2), axis=2)
    return out


def spectral_sample(spec: KernelSpec, d: int, dim: int, seed) -> np.ndarray:
    """Draw d i.i.d. spectral samples of dimension dim.

    The rows follow the normalized Fourier transform of the kernel: normal
    for gaussian, per-coordinate Cauchy for laplacian, per-coordinate Laplace
    for cauchy.
    """
    if d < 1 or dim < 1:
        raise ValueError("d and dim must be >= 1")
    rng = np.random.default_rng(seed)
    if spec.family == "gaussian":
        return rng.normal(0.0, spec.bandwidth**-0.5, size=(d, dim))
    if spec.family == "laplacian":
        return rng.standard_cauchy(size=(d, dim)) / spec.bandwidth
    return rng.laplace(0.0, 1.0 / spec.bandwidth, size=(d, dim))


def graph_kernel_response(spec: GraphKernelSpec, lam: np.ndarray) -> np.ndarray:
    """The kernel's eigenvalues r^+(lambda) at the Laplacian eigenvalues
    ``lam``, in ascending order along the last axis as ``eigh`` returns them,
    for one graph or a stack of them: 1/r(lambda), or 0 where r is at or
    below ``PINV_FLOOR``."""
    if spec.family == "diffusion":
        r = np.exp(spec.sigma2 * lam / 2.0)
    else:
        r = np.full(lam.shape, 1.0 / BAND_FLOOR)
        r[..., : spec.band_size] = 1.0
    return np.where(r > PINV_FLOOR, 1.0 / r, 0.0)


def graph_kernel_matrix(g: Graph, spec: GraphKernelSpec) -> np.ndarray:
    """Kernel matrix U r^+(Lambda) U^T from the normalized Laplacian."""
    if g.directed:
        raise ValueError("graph kernels require an undirected graph")
    lam, u = np.linalg.eigh(normalized_laplacian(g))
    k = (u * graph_kernel_response(spec, lam)) @ u.T
    return (k + k.T) / 2.0
