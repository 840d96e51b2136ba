import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrf import (
    Graph,
    GraphKernelSpec,
    SamplingPlan,
    erdos_renyi,
    graph_kernel_matrix,
    load_edge_list,
    load_labels,
    node_patterns,
    normalized_laplacian,
    sample_nodes,
    synth_signal,
)
from graphrf.baselines import knn_predict_batch
from graphrf.graph import _lines
from graphrf.config import load_config


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
        "kwargs, message",
        [({"adjacency": np.zeros((2, 3))}, r"adjacency must be square, got shape \(2, 3\)"),
         ({"adjacency": np.zeros((2, 2)), "node_names": ("a",)}, "node_names length must match")],
        ids=["not-square", "node-names"],
    )
    def test_malformed_graph_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Graph(**kwargs)

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
        assert np.array_equal(g.adjacency.sum(axis=1, dtype=np.float64), [2, 2, 2])

    def test_names_first_seen_order(self):
        g = load_edge_list(["b a", "c a"])
        assert g.node_names == ("b", "a", "c")

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

    @pytest.mark.parametrize(
        "line, message", [("b", "expected 'node value \\[value ...\\]'"), ("b x", "non-numeric label value")]
    )
    def test_malformed_line_reports_number(self, line, message):
        with pytest.raises(ValueError, match=f"line 2: {message}"):
            load_labels(["a 1", line])


# Every text input goes through one reader; these are the loaders built on it.
TEXT_LOADERS = {
    "edges": load_edge_list,
    "weighted_edges": partial(load_edge_list, weighted=True),
    "labels": load_labels,
    "config": load_config,
}
# junk, numbers, non-finite values, config keys and values, separators
_WORDS = ["a", "b", "0", "1", "-2.5", "1e400", "nan", "inf", "-inf", "x", "é", "d", "trials", "eta",
          "methods", "auto", "mkl,knn", "gaussian:1.0", "=", "=="]
_NUMBER = st.sampled_from(["0", "1", "0.25", "3e2", "-2.5"])
# a label row, an edge, or a weighted edge when the last number is >= 0
_ROW = st.builds("{} {} {}".format, st.sampled_from("abcdefghijklmnoé"), _NUMBER, _NUMBER)
_ENTRY = st.builds(
    "{} = {}".format,
    st.sampled_from(["n_nodes", "trials", "d", "eta", "edge_prob", "noise_var", "regret_T", "timing_reps"]),
    st.sampled_from(["2", "0.5", "1", "auto"]),
)
_JUNK = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join)
_TEXT_LINES = st.one_of(
    st.lists(_ROW, max_size=6),
    st.lists(_ENTRY, max_size=6),
    st.lists(st.one_of(_JUNK, _ROW, _ENTRY), max_size=8),
)
_COMMENT = st.sampled_from(["", "#", "# note", "#x # y", "#=1"])
_NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("text")


def loaded(loader: str, text: str, directory: Path):
    """What the loader makes of ``text`` written to a file as UTF-8, newlines
    untranslated: ``("ok", comparable result)`` or ``("error", message)``."""
    path = directory / "input.txt"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        result = TEXT_LOADERS[loader](path)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, Graph):
        return "ok", (result.adjacency.dtype, result.adjacency.tobytes(), result.n_nodes, result.node_names)
    if isinstance(result, dict):
        return "ok", [(node, values.tobytes()) for node, values in result.items()]
    return "ok", repr(result)


class TestTextInput:
    PLAIN = {
        "edges": "a b\nb c\nc a\n",
        "weighted_edges": "a b 0.5\nb c 2\n",
        "labels": "a 1 2\nb -0.5 3\n",
        "config": "n_nodes = 12\nmethods = mkl,knn\n",
    }

    @pytest.mark.parametrize("loader", sorted(TEXT_LOADERS))
    def test_bom_comments_and_blank_lines_read_like_the_plain_file(self, text_dir, loader):
        plain = self.PLAIN[loader]
        decorated = "\ufeff# header\n\n" + plain.replace("\n", "  # trailing\r\n")
        assert loaded(loader, plain, text_dir)[0] == "ok"
        assert loaded(loader, decorated, text_dir) == loaded(loader, plain, text_dir)

    # only \n, \r\n and \r end a line; the other characters that
    # str.splitlines() splits at stay inside it
    @pytest.mark.parametrize(
        "text, lines",
        [
            ("a b\x0cc d\r\ne f\n", [(1, "a b\x0cc d"), (2, "e f")]),
            ("a\x1cb\x1dc\x1ed\re f\r\n", [(1, "a\x1cb\x1dc\x1ed"), (2, "e f")]),
            ("a b\x85c d\u2028e f\n# tail", [(1, "a b\x85c d\u2028e f")]),
            ("x\x0c\x1c\x1d\x1e\x85\u2028 # separators\r\n\r\ny z\r", [(1, "x"), (3, "y z")]),
        ],
        ids=["form_feed", "group_separators", "next_line_and_line_separator", "all_at_once"],
    )
    def test_an_open_file_and_a_path_split_the_same_lines(self, tmp_path, text, lines):
        path = tmp_path / "text.txt"
        path.write_bytes(text.encode("utf-8"))
        assert list(_lines(io.StringIO(text))) == lines
        assert list(_lines(path)) == lines

    @settings(max_examples=150, deadline=None)
    @given(
        loader=st.sampled_from(sorted(TEXT_LOADERS)),
        lines=_TEXT_LINES,
        comments=st.lists(_COMMENT, min_size=8, max_size=8),
        newlines=st.lists(_NEWLINE, min_size=8, max_size=8),
        bom=st.booleans(),
    )
    def test_random_text_parses_or_is_refused(self, text_dir, loader, lines, comments, newlines, bom):
        text = "\ufeff" * bom + "".join(map("".join, zip(lines, comments, newlines)))
        loaded(loader, text, text_dir)  # any exception but ValueError fails the test

    @settings(max_examples=150, deadline=None)
    @given(
        loader=st.sampled_from(sorted(TEXT_LOADERS)),
        lines=_TEXT_LINES,
        newlines=st.lists(_NEWLINE, min_size=8, max_size=8),
    )
    def test_bom_and_trailing_comments_change_nothing(self, text_dir, loader, lines, newlines):
        # every decorated line holds a comment, so no line is empty and no
        # CR before an LF can merge two lines: the line numbers stay
        plain = "".join(line + "\n" for line in lines)
        decorated = "\ufeff" + "".join(f"{line} # note{newline}" for line, newline in zip(lines, newlines))
        assert loaded(loader, decorated, text_dir) == loaded(loader, plain, text_dir)


class TestErdosRenyi:
    def test_zero_probability_empty(self):
        g = erdos_renyi(5, 0.0, seed=1)
        assert g.adjacency.sum(axis=1, dtype=np.float64).sum() == 0

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
            assert abs(g.adjacency.sum(axis=1, dtype=np.float64).mean() - expected) <= 5.0 * sigma

    def test_symmetric_binary_zero_diagonal(self):
        g = erdos_renyi(40, 0.3, seed=7)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}
        assert np.all(np.diag(g.adjacency) == 0.0)

    def test_deterministic(self):
        assert np.array_equal(erdos_renyi(30, 0.4, 5).adjacency, erdos_renyi(30, 0.4, 5).adjacency)

    def test_bad_probability(self):
        with pytest.raises(ValueError, match=r"^edge_prob must be in \[0, 1\], got 1.5$"):
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
        assert g.adjacency.dtype == np.bool_ and g.adjacency.flags.c_contiguous

    def test_build_peaks_at_about_one_adjacency(self):
        # numpy reports its buffers to tracemalloc; 1000 nodes hold 1 MB.
        # numpy imports numpy.random on its first use (about 0.6 MB of
        # module objects), so a small build first keeps that out of the peak
        erdos_renyi(2, 0.2, seed=0)
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
    return node_patterns(g, np.arange(g.n_nodes), [node], mode)[0]


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

    def test_overlapping_sets_refused(self):
        with pytest.raises(ValueError, match="overlap"):
            SamplingPlan(np.array([3, 1]), np.array([0, 1, 2]))

    def test_repeated_sampled_index_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            SamplingPlan(np.array([2, 4, 2]), np.array([0, 1]))

    def test_sampling_does_not_import_numpy_ma(self):
        # np.intersect1d would import numpy.ma, about 0.75 MB of resident
        # memory for a check that set arithmetic does; run in a fresh process
        probe = (
            "import sys, graphrf\n"
            "graphrf.sample_nodes(graphrf.erdos_renyi(30, 0.2, 0), 5, seed=1)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestSynthSignal:
    def test_identity_kernel_range(self):
        g = erdos_renyi(50, 0.3, 0)
        x = synth_signal(g, np.eye(50), noise_var=0.0, seed=3)
        assert np.all(x >= 0.5)
        assert np.all(x <= 1.0)

    def test_noise_variance_monte_carlo(self):
        # zero kernel leaves x = e, so pooled entries over many draws must
        # recover the configured noise variance
        g = erdos_renyi(10, 0.3, 0)
        draws = np.concatenate(
            [synth_signal(g, np.zeros((10, 10)), 0.01, seed=s) for s in range(1000)]
        )
        assert 0.008 <= draws.var() <= 0.012

    def test_deterministic_without_noise(self):
        g = erdos_renyi(12, 0.4, 0)
        k = np.eye(12)
        a = synth_signal(g, k, 0.0, seed=11)
        b = synth_signal(g, k, 0.0, seed=11)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        g = erdos_renyi(5, 0.5, 0)
        with pytest.raises(ValueError):
            synth_signal(g, np.eye(4), 0.0, seed=0)

    def test_negative_noise(self):
        g = erdos_renyi(5, 0.5, 0)
        with pytest.raises(ValueError):
            synth_signal(g, np.eye(5), -0.1, seed=0)

    def test_nan_noise_refused(self):
        # nan < 0 and nan > 0 are both false: unchecked, a nan variance
        # would give the noise-free signal
        g = erdos_renyi(5, 0.5, 0)
        with pytest.raises(ValueError, match="noise_var"):
            synth_signal(g, np.eye(5), float("nan"), seed=1)

    def test_returns_a_read_only_float64_array(self):
        g = erdos_renyi(8, 0.4, 0)
        x = synth_signal(g, np.eye(8, dtype=np.float32), 0.01, seed=1)
        assert type(x) is np.ndarray
        assert x.dtype == np.float64 and x.shape == (8,)
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_non_finite_kernel_refused(self):
        g = erdos_renyi(6, 0.4, 0)
        k = np.eye(6)
        k[2, 3] = np.nan
        with pytest.raises(ValueError, match="signal values must be finite"):
            synth_signal(g, k, 0.0, seed=0)

    @pytest.mark.parametrize("noise_var", [0.0, 0.01])
    def test_a_function_gives_the_matrix_signal(self, noise_var):
        # alpha, then the noise, from the one generator either way
        g = erdos_renyi(9, 0.4, 0)
        k = np.random.default_rng(2).random((9, 9))
        x = synth_signal(g, lambda alpha: k @ alpha, noise_var, seed=4)
        assert x.tobytes() == synth_signal(g, k, noise_var, seed=4).tobytes()
        assert not x.flags.writeable

    @pytest.mark.parametrize("shape", [(5,), (6, 1), (1, 6), ()])
    def test_a_function_of_the_wrong_shape_refused(self, shape):
        g = erdos_renyi(6, 0.4, 0)
        message = r"kernel function must return shape \(6,\), got " + re.escape(str(shape))
        with pytest.raises(ValueError, match=message):
            synth_signal(g, lambda alpha: np.ones(shape), 0.0, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_function_refused(self, bad):
        g = erdos_renyi(6, 0.4, 0)
        with pytest.raises(ValueError, match="signal values must be finite"):
            synth_signal(g, lambda alpha: np.where(alpha > 0, bad, 0.0), 0.01, seed=0)


def test_selection_gather_scatter_roundtrip():
    # the sampling plan acts as a selection operator: gathering observed
    # values then scattering them back reproduces the sampled entries
    g = erdos_renyi(12, 0.4, 1)
    x = synth_signal(g, np.eye(12), 0.0, seed=5)
    plan = sample_nodes(g, 5, seed=6)
    y = x[plan.sampled]
    scattered = np.zeros(12)
    scattered[plan.sampled] = y
    assert np.array_equal(scattered[plan.sampled], x[plan.sampled])


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: NaN matches NaN and -0.0 does not match 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBoolAdjacency:
    """An unweighted graph holds bool, and every result equals the float64 one."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 24),
        p=st.floats(0.0, 1.0),
        directed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bool_and_float64_layouts_give_bit_identical_results(self, n, p, directed, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) < p
        if not directed:
            a = np.triu(a, 1)
            a = a | a.T
        as_bool, as_float = Graph(a, directed=directed), Graph(a.astype(np.float64), directed=directed)
        assert as_bool.adjacency.dtype == np.bool_ and as_float.adjacency.dtype == np.float64
        assert _same_bits(as_bool.adjacency.sum(axis=1, dtype=np.float64),
                          as_float.adjacency.sum(axis=1, dtype=np.float64))

        if not directed:
            assert _same_bits(normalized_laplacian(as_bool), normalized_laplacian(as_float))
            for spec in (
                GraphKernelSpec("diffusion", sigma2=float(rng.uniform(0.0, 10.0))),
                GraphKernelSpec("bandlimited", band_size=int(rng.integers(1, n + 1))),
            ):
                assert _same_bits(graph_kernel_matrix(as_bool, spec), graph_kernel_matrix(as_float, spec))

        labeled_ids = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        labeled = {int(j): float(v) for j, v in zip(labeled_ids, rng.normal(size=labeled_ids.size))}
        k = int(rng.integers(1, n + 1))
        for left, right in zip(
            knn_predict_batch(as_bool, labeled, np.arange(n), k),
            knn_predict_batch(as_float, labeled, np.arange(n), k),
        ):
            assert _same_bits(left, right)

        anchor = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        nodes = rng.permutation(n)
        for mode in ("column", "row", "concat"):
            for normalize in (False, True):
                assert _same_bits(
                    node_patterns(as_bool, anchor, nodes, mode, normalize),
                    node_patterns(as_float, anchor, nodes, mode, normalize),
                )

    @pytest.mark.parametrize("directed", [False, True])
    def test_edge_list_is_bool_unweighted_and_float64_weighted(self, directed):
        lines = ["a b 0.5", "b c 2.0"]
        unweighted = load_edge_list(lines, directed=directed)
        weighted = load_edge_list(lines, directed=directed, weighted=True)
        assert unweighted.adjacency.dtype == np.bool_ and weighted.adjacency.dtype == np.float64
        assert np.array_equal(unweighted.adjacency, weighted.adjacency > 0)
        assert weighted.adjacency[1, 2] == 2.0

    def test_frozen_bool_array_owning_its_memory_is_adopted(self):
        a = np.array([[False, True], [True, False]])
        a.setflags(write=False)
        assert Graph(a).adjacency is a

    def test_writeable_bool_array_is_copied_as_bool(self):
        a = np.array([[False, True], [True, False]])
        g = Graph(a)
        a[0, 1] = a[1, 0] = False
        assert g.adjacency is not a and g.adjacency.dtype == np.bool_
        assert not g.adjacency.flags.writeable
        assert np.array_equal(g.adjacency, [[False, True], [True, False]])

    def test_integer_adjacency_becomes_float64_and_is_checked(self):
        assert Graph(np.array([[0, 2], [2, 0]])).adjacency.dtype == np.float64
        with pytest.raises(ValueError, match="^adjacency entries must be non-negative$"):
            Graph(np.array([[0, -1], [-1, 0]]))
