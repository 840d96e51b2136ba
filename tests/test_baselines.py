import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphrf import (
    Graph,
    GraphKernelSpec,
    KernelSpec,
    KnnInapplicableError,
    batch_kernel_ridge,
    batch_rf_ls,
    build_map,
    erdos_renyi,
    eval_kernel_matrix,
    graph_kernel_matrix,
    knn_predict,
    normalized_laplacian,
)
from graphrf._kernels import cost_grad_scale
from graphrf.baselines import knn_predict_batch, spectral_ridge_predict
from graphrf.kernels import graph_kernel_response


class TestBatchKernelRidge:
    def test_identity_kernel_zero_mu(self):
        y = np.array([1.0, -2.0, 0.5])
        alpha = batch_kernel_ridge(np.eye(3), y, mu=0.0)
        np.testing.assert_allclose(alpha, y, atol=1e-12)

    def test_identity_kernel_unit_ridge(self):
        # mu * M = 1 shrinks the identity-kernel solution to y / 2
        y = np.array([2.0, 4.0, -6.0, 1.0])
        alpha = batch_kernel_ridge(np.eye(4), y, mu=0.25)
        np.testing.assert_allclose(alpha, y / 2.0, atol=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(12, 5))
        k = z @ z.T
        y = rng.normal(size=12)
        mu = 1e-3
        alpha = batch_kernel_ridge(k, y, mu)
        system = k + mu * 12 * np.eye(12)
        assert np.linalg.norm(system @ alpha - y) <= 1e-8 * np.linalg.norm(y)

    def test_asymmetric_rejected(self):
        k = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            batch_kernel_ridge(k, np.ones(2), 0.0)

    def test_objective_minimal_under_perturbation(self):
        # kernel-ridge objective (LS cost + quadratic penalty) never
        # decreases under small random perturbations of the solution
        rng = np.random.default_rng(1)
        z = rng.normal(size=(10, 6))
        k = z @ z.T + 1e-6 * np.eye(10)
        y = rng.normal(size=10)
        mu = 1e-2
        alpha = batch_kernel_ridge(k, y, mu)

        def objective(a):
            resid = k @ a - y
            return float(np.dot(resid, resid) / 10 + mu * a @ k @ a)

        base = objective(alpha)
        for _ in range(100):
            delta = rng.choice([-1e-3, 1e-3], size=10)
            assert objective(alpha + delta) >= base - 1e-12

    def test_interpolates_training_nodes_at_zero_mu(self):
        rng = np.random.default_rng(2)
        pats = rng.normal(size=(8, 5))
        spec = KernelSpec("gaussian", 2.0)
        k = eval_kernel_matrix(spec, pats, pats)
        y = rng.normal(size=8)
        np.testing.assert_allclose(k @ batch_kernel_ridge(k, y, 0.0), y, atol=1e-6)


@st.composite
def grown_graphs(draw):
    """A graph of M sampled nodes, one to three new nodes' connectivity to
    them, a graph kernel, a mu of the harness's default grid or 0, and M
    labels.  Sparse draws leave sampled nodes isolated, and a new node may
    have no edge at all."""
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    weighted = draw(st.booleans())

    def edges(shape):
        a = (rng.random(shape) < density).astype(np.float64)
        return a * rng.uniform(0.1, 2.0, size=shape) if weighted else a

    sub = np.triu(edges((m, m)), 1)
    sub += sub.T
    if draw(st.booleans()):
        isolated = draw(st.integers(0, m - 1))
        sub[isolated] = sub[:, isolated] = 0.0
    new = edges((draw(st.integers(1, 3)), m))
    if draw(st.booleans()):
        new[0] = 0.0
    spec = draw(
        st.builds(lambda s: GraphKernelSpec("diffusion", sigma2=s), st.sampled_from([0.5, 1.0, 5.0, 10.0]))
        | st.builds(lambda b: GraphKernelSpec("bandlimited", band_size=b), st.integers(1, m + 1))
    )
    mu = draw(st.sampled_from([0.0] + [10.0**-k for k in range(7, -1, -1)]))
    return sub, new, spec, mu, rng.normal(size=m)


def _grown(sub, a_new):
    m = sub.shape[0]
    grown = np.zeros((m + 1, m + 1))
    grown[:m, :m] = sub
    grown[m, :m] = grown[:m, m] = a_new
    return Graph(grown, directed=False)


@settings(max_examples=300, deadline=None)
@given(grown_graphs())
def test_spectral_prediction_is_the_kernel_ridge_prediction(case):
    # the explicit route forms the (M+1)^2 kernel and solves; the closed form
    # reads the same prediction off the grown Laplacian's eigendecomposition.
    # The tolerance is 1e-8 of the largest prediction, floored by the largest
    # label: where the kernel is the identity on a node (a full band, a new
    # node with no edge) the prediction is exactly 0 and both routes return
    # rounding noise.
    sub, new, spec, mu, y = case
    m = y.size
    explicit, closed = [], []
    for a_new in new:
        g = _grown(sub, a_new)
        k = graph_kernel_matrix(g, spec)
        explicit.append(float(np.dot(k[m, :m], batch_kernel_ridge(k[:m, :m], y, mu))))
        lam, u = np.linalg.eigh(normalized_laplacian(g))
        closed.append(spectral_ridge_predict(u, graph_kernel_response(spec, lam), y, mu))
    tolerance = 1e-8 * max(np.abs(explicit).max(), np.abs(y).max())
    np.testing.assert_allclose(closed, explicit, rtol=0.0, atol=tolerance)


class TestSpectralRidgePredict:
    def refusal(self, fit):
        try:
            fit()
        except ValueError as exc:
            return str(exc)
        raise AssertionError("no refusal")

    def both_routes(self, u, response, y, mu):
        """The refusal each route gives: the closed form's, and
        batch_kernel_ridge's on the kernel the spectrum defines."""
        m = y.size
        k = (u * response) @ u.T
        k = (k + k.T) / 2.0
        return (self.refusal(lambda: spectral_ridge_predict(u, response, y, mu)),
                self.refusal(lambda: batch_kernel_ridge(k[:m, :m], y, mu)))

    def test_a_singular_system_is_refused_as_batch_kernel_ridge_refuses_it(self):
        closed, explicit = self.both_routes(np.eye(3), np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]), 0.0)
        assert closed == explicit == "singular ridge system; kernel is rank-deficient and mu is too small"

    def test_a_negative_shifted_eigenvalue_is_singular(self):
        with pytest.raises(ValueError, match="^singular ridge system"):
            spectral_ridge_predict(np.eye(3), np.array([-1.0, 1.0, 1.0]), np.array([1.0, 2.0]), 0.25)

    def test_a_large_residual_is_refused_as_batch_kernel_ridge_refuses_it(self):
        # two eigenvalues of 1e-14 leave an M x M system of condition 1e14
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        response, y = np.array([1e-14, 1e-14, 1.0, 1.0, 1.0, 1.0]), rng.normal(size=5)
        closed, explicit = self.both_routes(u, response, y, 0.0)
        pattern = r"^ridge solve residual \S+ exceeds tolerance; increase mu$"
        assert re.match(pattern, closed) and re.match(pattern, explicit)

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match=r"need \(M\+1\)x\(M\+1\) eigenvectors"):
            spectral_ridge_predict(np.eye(3), np.ones(3), np.ones(3), 0.1)


class TestKnnPredict:
    def path_graph(self):
        # 0 - 1 - 2 plus weighted star edges at node 3
        a = np.zeros((5, 5))
        a[0, 1] = a[1, 0] = 1.0
        a[1, 2] = a[2, 1] = 1.0
        a[3, 0] = a[0, 3] = 2.0
        a[3, 2] = a[2, 3] = 1.0
        return Graph(a)

    def test_plain_average_unweighted(self):
        g = Graph(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float))
        assert knn_predict(g, {1: 1.0, 2: 3.0}, node=0, k=5) == pytest.approx(2.0)

    def test_weighted_mean_by_hand(self):
        # weights (2, 1) on labels (0, 3): (2*0 + 1*3) / 3 = 1
        g = self.path_graph()
        assert knn_predict(g, {0: 0.0, 2: 3.0}, node=3, k=5) == pytest.approx(1.0)

    def test_constant_labels_reproduced(self):
        g = self.path_graph()
        assert knn_predict(g, {0: 4.2, 2: 4.2}, node=3, k=5) == pytest.approx(4.2)

    def test_unlabeled_neighbors_excluded(self):
        g = self.path_graph()
        # node 1 has neighbors 0 and 2 but only 0 is labeled
        assert knn_predict(g, {0: 7.0}, node=1, k=5) == pytest.approx(7.0)

    def test_k_truncates_to_heaviest_edges(self):
        g = self.path_graph()
        # node 3: neighbors 0 (weight 2) and 2 (weight 1); k = 1 keeps node 0
        assert knn_predict(g, {0: 5.0, 2: -5.0}, node=3, k=1) == pytest.approx(5.0)

    def test_no_labeled_neighbor_raises(self):
        g = self.path_graph()
        with pytest.raises(KnnInapplicableError):
            knn_predict(g, {4: 1.0}, node=1, k=3)

    def test_weights_renormalize_over_contributors(self):
        g = self.path_graph()
        labels = {0: 1.0, 2: 1.0}
        assert knn_predict(g, labels, node=3, k=5) == pytest.approx(1.0)

    def test_out_of_range_node_and_bad_k(self):
        g = self.path_graph()
        with pytest.raises(IndexError):
            knn_predict(g, {0: 1.0}, node=5, k=3)
        with pytest.raises(IndexError):
            knn_predict(g, {0: 1.0}, node=-1, k=3)
        with pytest.raises(ValueError, match="k must be"):
            knn_predict(g, {0: 1.0}, node=1, k=0)
        # a labeled id outside [0, N) is refused, not dropped from the average
        for bad in (99, -3):
            with pytest.raises(IndexError, match=f"labeled node {bad} out of range"):
                knn_predict_batch(g, {0: 1.0, bad: 5.0}, [1, 2], k=3)

    def test_batch_marks_nodes_without_labeled_neighbor(self):
        g = self.path_graph()
        preds, inapplicable = knn_predict_batch(g, {0: 7.0}, [1, 4, 3], k=2)
        assert inapplicable.tolist() == [False, True, False]
        assert preds[0] == 7.0 and np.isnan(preds[1]) and preds[2] == 7.0


def reference_knn(adjacency, labeled, node, k):
    """Per-node rule: sort the labeled neighbors by (-weight, id), average
    the first k with Python sums; None when there is no labeled neighbor."""
    row = adjacency[node]
    candidates = [(float(row[j]), j) for j in np.flatnonzero(row > 0) if j in labeled and j != node]
    if not candidates:
        return None
    candidates.sort(key=lambda item: (-item[0], item[1]))
    chosen = candidates[:k]
    total = sum(w for w, _ in chosen)
    return sum(w * labeled[j] for w, j in chosen) / total


@st.composite
def knn_cases(draw):
    """A weighted directed graph with self-loops and tied weights, some
    labeled nodes, the nodes to score and k up to beyond any neighbor count."""
    n = draw(st.integers(1, 9))
    # few distinct values, so ties are common; zeros leave nodes isolated
    weight = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0.01, 4.0)
    adjacency = np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)
    ids = draw(st.sets(st.integers(0, n - 1)))
    labeled = {j: draw(st.floats(-5.0, 5.0)) for j in sorted(ids)}
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    k = draw(st.integers(1, n + 2))
    return Graph(adjacency, directed=True), labeled, nodes, k


@settings(max_examples=300, deadline=None)
@given(knn_cases())
def test_knn_batch_matches_per_node_rule_exactly(case):
    g, labeled, nodes, k = case
    preds, inapplicable = knn_predict_batch(g, labeled, nodes, k)
    expected = [reference_knn(g.adjacency, labeled, node, k) for node in nodes]
    assert inapplicable.tolist() == [e is None for e in expected]
    for pred, e in zip(preds, expected):
        assert np.isnan(pred) if e is None else pred == e


class TestBatchRfLs:
    def test_zero_labels_zero_solution(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(9, 4))
        np.testing.assert_allclose(batch_rf_ls(z, np.zeros(9), 1e-3), np.zeros(4), atol=1e-12)

    def test_orthonormal_projection_at_zero_mu(self):
        z = np.eye(6)[:, :4]  # orthonormal columns
        y = np.arange(6, dtype=float)
        np.testing.assert_allclose(batch_rf_ls(z, y, 0.0), z.T @ y, atol=1e-10)

    def test_stationarity(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(20, 12))
        y = rng.normal(size=20)
        for mu in (1e-4, 1e-2):
            theta = batch_rf_ls(z, y, mu)
            # stationarity of (1/M) sum C(z.theta, y) + mu ||theta||^2
            grad = z.T @ cost_grad_scale("least_squares", z @ theta, y) / y.size + 2.0 * mu * theta
            assert np.linalg.norm(grad) <= 1e-8

    def test_dual_and_primal_paths_agree(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(10, 30))  # wide: dual path
        y = rng.normal(size=10)
        mu = 1e-3
        dual = batch_rf_ls(z, y, mu)
        primal = np.linalg.solve(z.T @ z + mu * 10 * np.eye(30), z.T @ y)
        np.testing.assert_allclose(dual, primal, atol=1e-10)

    def test_non_finite_rejected(self):
        z = np.ones((3, 2))
        z[0, 0] = np.inf
        with pytest.raises(ValueError):
            batch_rf_ls(z, np.ones(3), 1e-3)


def test_rf_predictions_approach_exact_kernel_ridge():
    # the random-feature ridge must converge to the exact kernel ridge as
    # the number of spectral samples grows
    spec = KernelSpec("gaussian", 1.0)
    mu = 1e-3
    gaps = {50: [], 500: []}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        g = erdos_renyi(40, 0.3, seed)
        pats = (g.adjacency / np.maximum(np.linalg.norm(g.adjacency, axis=0), 1e-12)).T
        train = pats[:25]
        y = rng.normal(size=25)
        k = eval_kernel_matrix(spec, train, train)
        alpha = batch_kernel_ridge(k, y, mu)
        exact = eval_kernel_matrix(spec, pats, train) @ alpha
        for d in gaps:
            rf_map = build_map(spec, d, 40, seed=100 + seed)
            theta = batch_rf_ls(rf_map.encode_batch(train), y, mu)
            approx = rf_map.encode_batch(pats) @ theta
            gaps[d].append(np.sqrt(np.mean((approx - exact) ** 2)))
    assert np.mean(gaps[500]) < np.mean(gaps[50])


@settings(max_examples=200, deadline=None)
@given(knn_cases())
def test_knn_with_k_the_labeled_count_matches_k_the_max_degree(case):
    # the harness passes k = len(labeled): a node's candidates are labeled
    # neighbors, so no node has more than either bound and the width agrees
    g, labeled, nodes, _ = case
    assume(labeled)
    max_degree = int((g.adjacency > 0).sum(axis=1).max(initial=1))
    by_count = knn_predict_batch(g, labeled, nodes, len(labeled))
    by_degree = knn_predict_batch(g, labeled, nodes, max_degree)
    assert np.array_equal(by_count[0], by_degree[0], equal_nan=True)
    assert np.array_equal(by_count[1], by_degree[1])
