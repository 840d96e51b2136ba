"""Batch comparison methods: kernel ridge regression, k-NN, and the exact
regularized least-squares solve in random-feature space.

The RF least-squares solve doubles as the comparator for regret diagnostics
and as the convergence oracle for the online learner.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .graph import Graph


class KnnInapplicableError(ValueError):
    """Raised when a node has no labeled neighbor to average over."""


_SINGULAR = "singular ridge system; kernel is rank-deficient and mu is too small"


def batch_kernel_ridge(k_matrix: np.ndarray, y: np.ndarray, mu: float) -> np.ndarray:
    """Solve (K + mu * M * I) alpha = y for a symmetric PSD kernel matrix."""
    k = np.asarray(k_matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] != y.size:
        raise ValueError(f"need an MxM kernel and length-M labels, got {k.shape} and {y.shape}")
    scale = max(1.0, float(np.abs(k).max()))
    if np.abs(k - k.T).max() > 1e-8 * scale:
        raise ValueError("kernel matrix is not symmetric within tolerance")
    m = y.size
    system = k + mu * m * np.eye(m)
    try:
        alpha = np.linalg.solve(system, y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(_SINGULAR) from exc
    _check_solves(system @ alpha - y, y)
    return alpha


def _check_solves(residual: np.ndarray, y: np.ndarray, singular=False) -> None:
    """Refuse the first ridge solve of a stack of residual vectors that is
    ``singular`` or whose residual norm exceeds 1e-8 max(|y|, 1).  Each norm
    is the 1-D np.linalg.norm's: the root of one BLAS dot product."""
    norm = np.ravel(np.sqrt(np.vecdot(residual, residual)))
    singular = np.broadcast_to(np.ravel(singular), norm.shape)
    failing = np.flatnonzero(singular | (norm > 1e-8 * max(np.linalg.norm(y), 1.0)))
    if failing.size and singular[failing[0]]:
        raise ValueError(_SINGULAR)
    if failing.size:
        raise ValueError(f"ridge solve residual {norm[failing[0]]:.3e} exceeds tolerance; increase mu")


def spectral_ridge_predict(u: np.ndarray, response: np.ndarray, y: np.ndarray, mu: float) -> float | np.ndarray:
    """:func:`batch_kernel_ridge`'s prediction k^T (K_MM + mu M I)^{-1} y for
    the last of M+1 nodes, whose kernel is K = U diag(response) U^T, read off
    the eigendecomposition in O(M^2): no kernel is formed and nothing solved.

    A (..., M+1, M+1) stack of eigenvectors, with a (..., M+1) stack of
    responses and shared labels, returns each matrix's prediction, bit for
    bit as its own call's float.

    With c = mu M, h = 1 / (response + c), a = U[M] and w = U[:M]^T y, the
    block inverse of K + c I gives the prediction p = -sum(a h w) / sum(a h a)
    and the weights alpha = U[:M] (h (w + p a)) (the leave-one-out identity,
    Rasmussen & Williams 2006, section 5.4.2).  The refusals are
    batch_kernel_ridge's: a singular system when some response + c is not
    positive, and the residual of alpha, taken through U, held to its bound;
    in a stack the first refused node raises.
    """
    u = np.asarray(u, dtype=np.float64)
    response = np.asarray(response, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = y.size
    if y.ndim != 1 or u.shape[-2:] != (m + 1, m + 1) or response.shape != u.shape[:-1]:
        raise ValueError(f"need (M+1)x(M+1) eigenvectors with M+1 eigenvalues each and length-M labels, "
                         f"got {u.shape}, {response.shape} and {y.shape}")
    c = mu * m
    shifted = response + c
    singular = ~(shifted > 0).all(axis=-1)
    # a singular node is refused whatever its prediction: 1 stands in for
    # its shifts so that nothing divides by zero
    h = 1.0 / np.where(singular[..., None], 1.0, shifted)
    v, a = u[..., :m, :], u[..., m, :]
    w = y @ v
    ah = a * h
    pred = -np.vecdot(ah, w) / np.vecdot(ah, a)
    # matrix-vector and vector-matrix products as one-column and one-row
    # matmuls, each the BLAS gemv a single matrix's product makes
    alpha = (v @ (h * (w + pred[..., None] * a))[..., None])[..., 0]
    fitted = (v @ (response * (alpha[..., None, :] @ v)[..., 0, :])[..., None])[..., 0]
    _check_solves(fitted + c * alpha - y, y, singular)
    return float(pred) if pred.ndim == 0 else pred


def knn_predict(g: Graph, labeled: Mapping[int, float], node: int, k: int) -> float:
    """Edge-weighted mean of up to k labeled neighbors of one node; see
    :func:`knn_predict_batch`."""
    preds, inapplicable = knn_predict_batch(g, labeled, [node], k)
    if inapplicable[0]:
        raise KnnInapplicableError(f"node {node} has no labeled neighbor")
    return float(preds[0])


def knn_predict_batch(
    g: Graph, labeled: Mapping[int, float], nodes, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-weighted mean of up to k labeled neighbors, for every node at once.

    A node's candidates are its labeled neighbors other than itself; the k
    heaviest are used, ties going to the lower node id.  Weights are the
    adjacency entries renormalized over the neighbors actually used, so
    unlabeled neighbors do not drag the estimate toward zero.  Returns the
    predictions and a mask of the nodes with no candidate, whose prediction
    is nan.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    ids = np.array(sorted(labeled), dtype=np.int64)
    for what, a in (("node", nodes), ("labeled node", ids)):
        bad = (a < 0) | (a >= g.n_nodes)
        if bad.any():
            raise IndexError(f"{what} {int(a[bad][0])} out of range")
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = np.asarray(g.adjacency[np.ix_(nodes, ids)], dtype=np.float64)
    weights[nodes[:, None] == ids[None, :]] = 0.0  # a node is not its own neighbor
    n_candidates = (weights > 0).sum(axis=1)
    # a stable sort on -w orders candidates by (-w, id); the columns past a
    # node's last candidate hold weight 0 and add exactly 0 to both sums
    width = min(k, int(n_candidates.max(initial=0)))
    order = np.argsort(-weights, axis=1, kind="stable")[:, :width]
    chosen = np.take_along_axis(weights, order, axis=1)
    values = np.array([float(labeled[j]) for j in ids])[order]
    values[chosen == 0] = 0.0
    # left-to-right sums starting from 0, as Python's sum() adds
    total = np.zeros(nodes.size)
    numerator = np.zeros(nodes.size)
    for w, v in zip(chosen.T, values.T):
        total += w
        numerator += w * v
    inapplicable = n_candidates == 0
    preds = np.full(nodes.size, np.nan)
    np.divide(numerator, total, out=preds, where=~inapplicable)
    return preds, inapplicable


def batch_rf_ls(z_matrix: np.ndarray, y: np.ndarray, mu: float) -> np.ndarray:
    """Exact solution of the regularized LS problem over encoded samples.

    theta = (Z^T Z + mu * M * I)^{-1} Z^T y; with mu = 0 the minimum-norm
    least-squares solution is returned.
    """
    z = np.asarray(z_matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != y.size:
        raise ValueError(f"need (M, 2D) features and length-M labels, got {z.shape}, {y.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    m = y.size
    if mu > 0:
        if z.shape[1] > m:
            # dual form: identical solution, but an M x M solve when 2D > M
            dual = np.linalg.solve(z @ z.T + mu * m * np.eye(m), y)
            return z.T @ dual
        gram = z.T @ z + mu * m * np.eye(z.shape[1])
        return np.linalg.solve(gram, z.T @ y)
    theta, *_ = np.linalg.lstsq(z, y, rcond=None)
    return theta
