import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrf import (
    Graph,
    erdos_renyi,
    load_edge_list,
    load_labels,
    normalized_laplacian,
    sample_nodes,
    synth_signal,
)
from graphrf.harness import _patterns


def triangle():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    return Graph(a)


class TestGraphType:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Graph(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    def test_rejects_asymmetric_undirected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(np.array([[0.0, 1.0], [0.0, 0.0]]), directed=False)

    def test_adjacency_is_immutable(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5.0

    def test_writeable_input_is_copied(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = Graph(a)
        a[0, 1] = a[1, 0] = 7.0
        assert g.adjacency is not a
        assert np.array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_frozen_array_owning_its_memory_is_adopted(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        a.setflags(write=False)
        assert Graph(a).adjacency is a

    def test_frozen_view_is_copied(self):
        base = np.zeros((3, 3))
        base[0, 1] = base[1, 0] = 1.0
        view = base[:2, :2]
        view.setflags(write=False)
        g = Graph(view)
        base[0, 1] = base[1, 0] = 7.0
        assert g.adjacency is not view
        assert g.adjacency.flags.owndata and not g.adjacency.flags.writeable
        assert np.array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_frozen_fortran_array_is_copied_in_c_order(self):
        a = np.asfortranarray([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        a.setflags(write=False)
        g = Graph(a)
        assert g.adjacency is not a and g.adjacency.flags.c_contiguous
        assert np.array_equal(g.adjacency, a)

    def test_empty_matrix_constructs(self):
        assert Graph(np.zeros((0, 0))).n_nodes == 0

    @pytest.mark.parametrize(
        "value, message",
        [(np.nan, "must be finite"), (-np.inf, "must be finite"), (-1.0, "must be non-negative")],
    )
    def test_bad_entry_past_the_first_block_named(self, value, message):
        a = np.zeros((300, 300))
        a[290, 10] = a[10, 290] = value
        with pytest.raises(ValueError, match=f"^adjacency entries {message}$"):
            Graph(a)

    def test_asymmetric_entry_past_the_first_block_named(self):
        a = np.zeros((300, 300))
        a[290, 10] = 1.0
        with pytest.raises(ValueError, match="^undirected graph requires an exactly symmetric adjacency$"):
            Graph(a)
        assert Graph(a, directed=True).adjacency[290, 10] == 1.0


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n0 2\n"))
        assert g.n_nodes == 3
        assert np.array_equal(g.degrees, [2, 2, 2])

    def test_names_first_seen_order(self):
        g = load_edge_list(["b a", "c a"])
        assert g.node_names == ("b", "a", "c")
        assert g.index_of("c") == 2

    def test_comments_and_blank_lines(self):
        g = load_edge_list(["# header", "", "0 1  # trailing", "1 2"])
        assert g.n_nodes == 3

    def test_duplicate_keeps_last_weight(self):
        g = load_edge_list(["a b 1.0", "a b 3.0"], weighted=True)
        assert g.adjacency[0, 1] == 3.0
        assert g.adjacency[1, 0] == 3.0

    def test_directed_not_mirrored(self):
        g = load_edge_list(["a b"], directed=True)
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency[1, 0] == 0.0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(["a b", "oops"])

    def test_bad_weight_reports_number(self):
        with pytest.raises(ValueError, match="line 1.*not a number"):
            load_edge_list(["a b xyz"], weighted=True)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            load_edge_list(["# nothing here"])


class TestLoadLabels:
    def test_single_column(self):
        labels = load_labels(["a 1.5", "b -2.0"])
        assert labels["a"] == pytest.approx([1.5])
        assert labels["b"] == pytest.approx([-2.0])

    def test_multi_column(self):
        labels = load_labels(["a 1 2 3", "b 4 5 6"])
        assert labels["a"].shape == (3,)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            load_labels(["a 1 2", "b 3"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="line 2: label values must be finite"):
            load_labels(["a 1 2", f"b 3 {value}"])

    def test_node_labeled_twice_rejected(self):
        with pytest.raises(ValueError, match="line 3: node 'a' already labeled on line 1"):
            load_labels(["a 1", "b 2", "a 3"])


class TestErdosRenyi:
    def test_zero_probability_empty(self):
        g = erdos_renyi(5, 0.0, seed=1)
        assert g.degrees.sum() == 0

    def test_full_probability_complete(self):
        g = erdos_renyi(5, 1.0, seed=1)
        expected = np.ones((5, 5)) - np.eye(5)
        assert np.array_equal(g.adjacency, expected)

    def test_mean_degree_matches_clamped_expectation(self):
        # Independent draws at p for (i, j) and (j, i), or-ed together:
        # effective edge probability q = 1 - (1 - p)^2.  Mean degree over
        # the graph is (n-1) q with variance 2 (n-1) q (1 - q) / n; assert
        # a 5-sigma band.
        n, p = 200, 0.2
        q = 1.0 - (1.0 - p) ** 2
        expected = (n - 1) * q
        sigma = math.sqrt(2.0 * (n - 1) * q * (1.0 - q) / n)
        for seed in (0, 1, 2):
            g = erdos_renyi(n, p, seed)
            assert abs(g.degrees.mean() - expected) <= 5.0 * sigma

    def test_symmetric_binary_zero_diagonal(self):
        g = erdos_renyi(40, 0.3, seed=7)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}
        assert np.all(np.diag(g.adjacency) == 0.0)

    def test_deterministic(self):
        assert np.array_equal(erdos_renyi(30, 0.4, 5).adjacency, erdos_renyi(30, 0.4, 5).adjacency)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 255, 256, 257, 513, 600]),
        p=st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_whole_matrix_recipe(self, n, p, seed):
        # the draw, threshold and symmetrisation done on whole N×N temporaries
        rng = np.random.default_rng(seed)
        a0 = rng.random((n, n)) < p
        np.fill_diagonal(a0, False)
        expected = np.logical_or(a0, a0.T).astype(np.float64)
        g = erdos_renyi(n, p, seed)
        assert np.array_equal(g.adjacency, expected)
        assert g.adjacency.dtype == np.float64 and g.adjacency.flags.c_contiguous

    def test_build_peaks_at_about_one_adjacency(self):
        # numpy reports its buffers to tracemalloc; 1000 nodes hold 8 MB
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = erdos_renyi(1000, 0.2, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.25 * g.adjacency.nbytes


def pattern(g, node, mode="column"):
    """Connectivity of one node to every node of ``g``, as the harness reads it."""
    return _patterns(g.adjacency, np.arange(g.n_nodes), [node], mode, False)[0]


class TestConnectivityPattern:
    def test_triangle_column(self):
        assert np.array_equal(pattern(triangle(), 0), [0, 1, 1])

    def test_directed_row_vs_column(self):
        g = load_edge_list(["a b"], directed=True)  # edge 0 -> 1: adjacency[0, 1] = 1
        assert np.array_equal(pattern(g, 1, "column"), [1, 0])
        assert np.array_equal(pattern(g, 1, "row"), [0, 0])

    def test_concat_length(self):
        g = erdos_renyi(7, 0.5, 0)
        assert pattern(g, 3, "concat").size == 14

    def test_matches_adjacency_exhaustively(self):
        g = erdos_renyi(9, 0.4, 3)
        for node in range(9):
            pat = pattern(g, node)
            for k in range(9):
                assert pat[k] == g.adjacency[k, node]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            pattern(triangle(), 3)


class TestNormalizedLaplacian:
    def test_triangle_closed_form(self):
        lap = normalized_laplacian(triangle())
        expected = np.eye(3) - (np.ones((3, 3)) - np.eye(3)) / 2.0
        np.testing.assert_allclose(lap, expected, atol=1e-15)

    def test_isolated_node_identity_row(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        lap = normalized_laplacian(Graph(a))
        assert np.array_equal(lap[3], [0, 0, 0, 1])

    def test_spectrum_bounds_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            g = erdos_renyi(n, float(rng.uniform(0.05, 0.9)), int(rng.integers(1 << 30)))
            evals = np.linalg.eigvalsh(normalized_laplacian(g))
            assert evals.min() >= -1e-10
            assert evals.max() <= 2.0 + 1e-10

    def test_directed_rejected(self):
        g = load_edge_list(["a b"], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            normalized_laplacian(g)


class TestSampleNodes:
    def test_all_nodes(self):
        plan = sample_nodes(erdos_renyi(6, 0.5, 0), 6, seed=1)
        assert plan.unsampled.size == 0
        assert sorted(plan.sampled.tolist()) == list(range(6))

    def test_single_node(self):
        plan = sample_nodes(erdos_renyi(6, 0.5, 0), 1, seed=1)
        assert plan.sampled.size == 1
        assert plan.unsampled.size == 5

    def test_deterministic(self):
        g = erdos_renyi(20, 0.5, 0)
        p1 = sample_nodes(g, 7, seed=4)
        p2 = sample_nodes(g, 7, seed=4)
        assert np.array_equal(p1.sampled, p2.sampled)
        assert np.array_equal(p1.unsampled, p2.unsampled)

    def test_partition(self):
        g = erdos_renyi(15, 0.5, 0)
        plan = sample_nodes(g, 4, seed=2)
        combined = np.sort(np.concatenate([plan.sampled, plan.unsampled]))
        assert np.array_equal(combined, np.arange(15))

    def test_too_many(self):
        with pytest.raises(ValueError):
            sample_nodes(erdos_renyi(5, 0.5, 0), 6, seed=0)


class TestSynthSignal:
    def test_identity_kernel_range(self):
        g = erdos_renyi(50, 0.3, 0)
        sig = synth_signal(g, np.eye(50), noise_var=0.0, seed=3)
        assert np.all(sig.values >= 0.5)
        assert np.all(sig.values <= 1.0)

    def test_noise_variance_monte_carlo(self):
        # zero kernel leaves x = e, so pooled entries over many draws must
        # recover the configured noise variance
        g = erdos_renyi(10, 0.3, 0)
        draws = np.concatenate(
            [synth_signal(g, np.zeros((10, 10)), 0.01, seed=s).values for s in range(1000)]
        )
        assert 0.008 <= draws.var() <= 0.012

    def test_deterministic_without_noise(self):
        g = erdos_renyi(12, 0.4, 0)
        k = np.eye(12)
        a = synth_signal(g, k, 0.0, seed=11).values
        b = synth_signal(g, k, 0.0, seed=11).values
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        g = erdos_renyi(5, 0.5, 0)
        with pytest.raises(ValueError):
            synth_signal(g, np.eye(4), 0.0, seed=0)

    def test_negative_noise(self):
        g = erdos_renyi(5, 0.5, 0)
        with pytest.raises(ValueError):
            synth_signal(g, np.eye(5), -0.1, seed=0)


def test_selection_gather_scatter_roundtrip():
    # the sampling plan acts as a selection operator: gathering observed
    # values then scattering them back reproduces the sampled entries
    g = erdos_renyi(12, 0.4, 1)
    sig = synth_signal(g, np.eye(12), 0.0, seed=5)
    plan = sample_nodes(g, 5, seed=6)
    y = sig.values[plan.sampled]
    scattered = np.zeros(12)
    scattered[plan.sampled] = y
    assert np.array_equal(scattered[plan.sampled], sig.values[plan.sampled])
