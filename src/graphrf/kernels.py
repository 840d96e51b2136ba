"""Shift-invariant kernel dictionary and graph-spectral kernels.

Shift-invariant kernels come with closed-form evaluation and with sampling
from the spectral density that backs the random-feature encoding.  Graph
kernels are spectral functions of the normalized Laplacian and feed the
batch baselines.  Everything here is a pure function of immutable inputs
(sampling takes an explicit seed), so concurrent calls are safe.
"""

from __future__ import annotations

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
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


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
            if self.sigma2 is None or not self.sigma2 >= 0:
                raise ValueError("diffusion kernel needs sigma2 >= 0")
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


def eval_kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Pairwise kernel matrix between the rows of xs and ys."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if xs.shape[1] != ys.shape[1]:
        raise ValueError("xs and ys must have the same feature dimension")
    if spec.family == "gaussian":
        sq = (
            (xs * xs).sum(axis=1)[:, None]
            + (ys * ys).sum(axis=1)[None, :]
            - 2.0 * xs @ ys.T
        )
        np.clip(sq, 0.0, None, out=sq)
        return np.exp(-sq / (2.0 * spec.bandwidth))
    out = np.empty((xs.shape[0], ys.shape[0]))
    chunk = max(1, int(2**22 // max(1, ys.shape[0] * xs.shape[1])))
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


def graph_kernel_matrix(g: Graph, spec: GraphKernelSpec) -> np.ndarray:
    """Kernel matrix U r^+(Lambda) U^T from the normalized Laplacian."""
    if g.directed:
        raise ValueError("graph kernels require an undirected graph")
    lam, u = np.linalg.eigh(normalized_laplacian(g))
    if spec.family == "diffusion":
        r = np.exp(spec.sigma2 * lam / 2.0)
    else:
        r = np.full(lam.shape, 1.0 / BAND_FLOOR)
        r[: min(spec.band_size, lam.size)] = 1.0
    rdag = np.where(r > PINV_FLOOR, 1.0 / r, 0.0)
    k = (u * rdag) @ u.T
    return (k + k.T) / 2.0
