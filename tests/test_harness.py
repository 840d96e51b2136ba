import json
import math
import re
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrf import (
    ExperimentConfig,
    Graph,
    GraphKernelSpec,
    MklTraces,
    SamplingPlan,
    bench_newnode,
    conventional_nmse,
    erdos_renyi,
    graph_kernel_matrix,
    load_config,
    nmse,
    run_dataset,
    run_regret,
    run_synthetic,
    write_report,
)
import graphrf.harness
import graphrf.kernels
import graphrf.mkl
from graphrf import KernelSpec, eval_kernel_matrix, mkl_init, mkl_predict_batch, mkl_train, sample_nodes, synth_signal
from graphrf.baselines import batch_kernel_ridge, spectral_ridge_predict
from graphrf.graph import _draw_plan, node_patterns, normalized_laplacian
from graphrf.harness import (
    _COLUMNS,
    SCENARIOS,
    MethodRow,
    Report,
    _draw_trial,
    _fit_method,
    _gk_new_node_scores,
    _regret_bound_check,
    _select,
    _standardize,
    _trial_seeds,
    config_from_dict,
)


@pytest.fixture
def tiny_dataset(tmp_path):
    rng = np.random.default_rng(0)
    n = 12
    lines = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                lines.append(f"v{i} v{j}")
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text("# fixture\n" + "\n".join(lines) + "\n")
    vals = rng.normal(size=n)
    label_path = tmp_path / "labels.txt"
    label_path.write_text("\n".join(f"v{i} {vals[i]:.6f}" for i in range(n)) + "\n")
    return str(edge_path), str(label_path)


class TestNmse:
    def test_zero_for_exact_estimates(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert nmse(truth, truth) == 0.0

    def test_printed_formula_hand_value(self):
        # zero estimates over 4 nodes: (1/4) * ||t||^2 / ||t||^2 = 1/4
        truth = np.array([1.0, -1.0, 2.0, 0.5])
        assert nmse(np.zeros(4), truth) == pytest.approx(0.25)
        assert conventional_nmse(np.zeros(4), truth) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        est, truth = rng.normal(size=(2, 10))
        for c in (0.5, -3.0, 100.0):
            assert nmse(c * est, c * truth) == pytest.approx(nmse(est, truth), rel=1e-12)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            nmse(np.ones(3), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.ones(3), np.ones(4))


# A valid config with every field away from its default.
EVERY_FIELD_SET = ExperimentConfig(
    n_nodes=64, edge_prob=0.3, scenario="identity", truth_sigma2=2.5,
    noise_var=0.5, sample_fraction=0.25, trials=3, base_seed=7,
    kernels=(("laplacian", 2.0), ("cauchy", 0.5)), d=12, eta=0.25, mu_grid=(1e-3, 0.1),
    loss="hinge", methods=("knn", "gk_bl"), normalize_patterns=False,
    standardize_labels=False, pattern_mode="concat", kl_sigma2=3.0, gk_sigma2_grid=(2.0,),
    band_grid=(3, 4), cv_fraction=0.5, measure_runtime=True, timing_reps=2, timing_nodes=4,
    regret_T=10, regret_mu=0.01, edge_list="edges.txt", labels="labels.txt",
    directed=True, weighted=True, symmetrize=False, sample_counts=(5, 6), bench_sizes=(30,),
)


def as_text(value) -> str:
    """A config value as it is written in a config file."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(
            ":".join(map(str, item)) if isinstance(item, tuple) else str(item) for item in value
        )
    return str(value)


class TestConfig:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(
            """
            # comment
            n_nodes = 64
            kernels = gaussian:1.0, gaussian:5.0
            methods = mkl,knn
            mu_grid = 1e-4,1e-2
            eta = auto
            measure_runtime = true
            """
        )
        config = load_config(path)
        assert config.n_nodes == 64
        assert config.kernels == (("gaussian", 1.0), ("gaussian", 5.0))
        assert config.methods == ("mkl", "knn")
        assert config.mu_grid == (1e-4, 1e-2)
        assert config.eta == "auto"
        assert config.measure_runtime is True

    def test_key_set_twice_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("n_nodes = 64\n# comment\nd = 8\nn_nodes = 32\n")
        with pytest.raises(ValueError, match=r"line 4: config key 'n_nodes' already set on line 1"):
            load_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"n_node": "12"})

    def test_bad_sample_fraction(self):
        with pytest.raises(ValueError, match="sample_fraction"):
            config_from_dict({"sample_fraction": "1.5"})

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            config_from_dict({"methods": "mkl,svm"})

    def test_empty_mu_grid(self):
        with pytest.raises(ValueError, match="mu_grid"):
            config_from_dict({"mu_grid": ""})

    def test_a_mu_past_one_over_two_eta_is_refused_before_any_trial(self, monkeypatch):
        # at eta = 0.5 a step multiplies theta by 1 - 2 eta mu = -9 at mu = 10,
        # and such a run used to overflow and exit on a non-finite report
        def no_graph(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(graphrf.harness, "erdos_renyi", no_graph)
        with pytest.raises(ValueError, match=re.escape("mu_grid entries must be <= 1/(2 eta) = 1.0 at eta = 0.5")):
            run_synthetic(config_from_dict({"mu_grid": "10", "n_nodes": "2000", "trials": "2"}))

    def test_eta_auto_resolution(self):
        config = config_from_dict({"eta": "auto"})
        assert config.eta_value(400) == pytest.approx(0.05)
        assert config_from_dict({"eta": "0.3"}).eta_value(400) == pytest.approx(0.3)

    @pytest.mark.parametrize("value", ["1", "1.5", "-0.1"])
    def test_bad_cv_fraction(self, value):
        with pytest.raises(ValueError, match="cv_fraction"):
            config_from_dict({"cv_fraction": value})

    def test_unknown_pattern_mode(self):
        with pytest.raises(ValueError, match="pattern_mode"):
            ExperimentConfig(pattern_mode="diagonal")

    def test_unknown_scenario_lists_the_valid_ones(self):
        with pytest.raises(ValueError, match=re.escape(f"unknown scenario 'x'; valid: {SCENARIOS}")):
            config_from_dict({"scenario": "x"})

    def test_empty_kernel_list(self):
        with pytest.raises(ValueError, match="^kernels must be non-empty$"):
            config_from_dict({"kernels": " , "})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("loss", "squared"),
            ("eta", "0"),
            ("eta", "1.5"),
            ("eta", "nan"),
            ("eta", "fast"),
            ("d", "0"),
            ("n_nodes", "0"),
            ("regret_T", "0"),
            ("timing_reps", "0"),
            ("timing_nodes", "-1"),
            ("edge_prob", "1.5"),
            ("edge_prob", "-0.1"),
            ("bench_sizes", "500,0"),
            ("sample_counts", "10,-2"),
            ("noise_var", "-1"),
            ("noise_var", "nan"),
            ("regret_mu", "-1e-6"),
            ("truth_sigma2", "0"),
            ("kl_sigma2", "-2"),
            ("mu_grid", "1e-3,-1"),
            ("mu_grid", ""),
            ("gk_sigma2_grid", "1,0"),
            ("gk_sigma2_grid", ""),
            ("band_grid", "2,0"),
            ("band_grid", ""),
            ("base_seed", "-1"),
            ("methods", ""),
            ("kernels", "gaussian:0"),
            ("kernels", []),
            ("bench_sizes", "100,100"),
            ("sample_counts", "5,6,5"),
            ("methods", "knn,knn"),
            ("methods", "mkl,kl,mkl"),
            ("noise_var", "inf"),
            ("regret_mu", "inf"),
            ("truth_sigma2", "inf"),
            ("kl_sigma2", "inf"),
            ("mu_grid", "1e-3,inf"),
            ("gk_sigma2_grid", "1,inf"),
            ("kernels", "gaussian:inf"),
            ("kernels", "gaussian"),
            ("scenario", "x"),
            ("normalize_patterns", "maybe"),
            ("bench_sizes", ""),
            ("sample_counts", ""),
        ],
    )
    def test_out_of_range_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            config_from_dict({key: value})

    def test_none_passes_as_the_default_of_an_optional_tuple(self):
        assert config_from_dict({"sample_counts": None}).sample_counts is None

    def test_parse_error_names_its_key(self):
        with pytest.raises(ValueError, match="config key 'd': "):
            config_from_dict({"d": "ten"})

    def test_replace_is_validated(self):
        with pytest.raises(ValueError, match="trials"):
            replace(ExperimentConfig(), trials=0)

    def test_readme_lists_every_key_with_its_default(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("All keys with their defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        (tmp_path / "readme.cfg").write_text(block)
        listed = load_config(tmp_path / "readme.cfg")
        without_default = {"edge_list", "labels", "sample_counts"}
        for f in fields(ExperimentConfig):
            assert f"\n{f.name} = " in "\n" + block, f"README omits {f.name}"
            if f.name not in without_default:
                assert getattr(listed, f.name) == getattr(ExperimentConfig(), f.name), f.name

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_every_field_parses_from_its_string_form(self, name):
        value = getattr(EVERY_FIELD_SET, name)
        assert value != getattr(ExperimentConfig(), name)  # not the default
        assert getattr(config_from_dict({name: as_text(value)}), name) == value


class TestSelect:
    y = np.arange(8.0)

    def test_ties_go_to_the_first_entry(self):
        offsets = {"worse": 1.0, "first": 0.5, "tied": -0.5}
        chosen = _select(list(offsets), self.y, 0.25, lambda n: [self.y[n:] + o for o in offsets.values()])
        assert chosen == "first"

    @pytest.mark.parametrize("grid, y", [(["only"], np.arange(8.0)), (["a", "b"], np.ones(1))])
    def test_nothing_to_compare_makes_no_fit(self, grid, y):
        def cv_predict(n):
            raise AssertionError("cv_predict called")

        assert _select(grid, y, 0.25, cv_predict) == grid[0]

    def test_nan_error_never_chosen(self):
        preds = {"nan": np.nan, "far": 10.0, "nan_again": np.nan}
        chosen = _select(list(preds), self.y, 0.25, lambda n: [self.y[n:] + p for p in preds.values()])
        assert chosen == "far"

    def test_the_training_share_is_rounded_not_floored(self):
        # 0.75 of 10 nodes is 7.5, which rounds to 8; a floor would give 7
        splits = []
        _select(["a", "b"], np.arange(10.0), 0.25, lambda n: splits.append(n) or [np.zeros(10 - n)] * 2)
        assert splits == [8]


class TestTrialHelpers:
    def test_trial_seeds_are_the_recorded_values(self):
        # every report and benchmark reference rests on these draws
        assert _trial_seeds(0, 0) == {"graph": 2968811710, "signal": 3677149159, "plan": 745650761,
                                      "map": 2884920346, "stream": 2642120001}
        assert _trial_seeds(7, 3) == {"graph": 3466196061, "signal": 1178487100, "plan": 3766853589,
                                      "map": 2196405662, "stream": 1408722627}

    def test_standardize_divides_by_the_population_std(self):
        # mean 2.5 and population variance 1.25; the sample variance is 5/3
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(_standardize(x), (x - 2.5) / math.sqrt(1.25), rtol=1e-15, atol=0)

    def test_a_knn_node_with_no_labelled_neighbour_scores_the_training_mean(self):
        # path 0 - 1 - 2 and an isolated node 3, with nodes 0 and 1 labelled
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
        plan = SamplingPlan(np.array([0, 1]), np.array([2, 3]))
        fitted = _fit_method("knn", ExperimentConfig(), Graph(a), plan, None, np.array([1.0, 4.0]), None, None)
        preds, failures = fitted.score(fitted.inputs)
        assert preds.tolist() == [4.0, 2.5]
        assert failures == 1


class TestRegretBoundCheck:
    @pytest.mark.parametrize("mu, oracle_losses, theta_norms", [
        # mu = 0: theta* = (1, 2) and (1/2, 1) fit both labels exactly
        (0.0, (0.0, 0.0), (5.0, 1.25)),
        # mu = 1/2, T = 2: theta* = y / 2 leaves residuals (1/2, 1), and
        # theta* = 2 y / 5 leaves (1/5, 2/5); each loss adds T mu |theta*|^2
        (0.5, (1.25 + 1.25, 0.2 + 0.8), (1.25, 0.8)),
    ], ids=["mu=0", "mu=0.5"])
    def test_margins_are_the_bound_written_out_by_hand(self, mu, oracle_losses, theta_norms):
        # two kernels over T = 2 steps: kernel 0 encodes the steps as e1 and
        # e2, kernel 1 as 2 e1 and 2 e2; the labels are 1 and 2
        zs = np.array([np.eye(2), 2.0 * np.eye(2)])
        ys = np.array([1.0, 2.0])
        eta, horizon, grad = 0.5, 2, 3.0
        traces = MklTraces(combined_loss=np.array([1.5, 2.5]), per_kernel_loss=np.zeros((2, 2)),
                           weights=np.full((2, 2), 0.5), prediction=np.zeros(2), max_grad=np.array([grad, 1.0]))
        check = _regret_bound_check(zs, ys, traces, eta, mu)
        # bound = ln(P) / eta + |theta*|^2 / (2 eta) + eta G^2 T / 2 + eta T, against
        # the online loss 1.5 + 2.5 less the comparator's regularised loss
        expected = [math.log(2) / eta + norm / (2 * eta) + eta * grad**2 * horizon / 2 + eta * horizon
                    - (4.0 - oracle) for oracle, norm in zip(oracle_losses, theta_norms)]
        assert check["max_grad"] == grad
        np.testing.assert_allclose(check["margins"], expected, rtol=1e-12, atol=0)
        assert check["holds"]


class TestColumns:
    def test_every_row_field_named_once(self):
        attrs = [attr for _, _, attr, _ in _COLUMNS]
        assert sorted(attrs) == sorted(f.name for f in fields(MethodRow))

    def test_tsv_header(self):
        assert Report([], {}, []).to_tsv() == (
            "method\tn\tm\ttrials\tnmse\tnmse_std\tnmse_conventional\tnmse_conventional_std"
            "\tmu\ttrain_s\tnewnode_s\tknn_failures\tnotes\n"
        )

    def test_cells(self):
        # missing values, a zero that is not missing, and mu as the median
        row = MethodRow("mkl", 10, 2, 3, 0.0, None, 1 / 3, None, [1e-3, 1e-2, 1e-1], 0.0, None, 4, "")
        assert Report([row], {}, []).to_tsv().splitlines()[1].split("\t") == [
            "mkl", "10", "2", "3", "0", "undefined", "0.333333", "undefined", "0.01", "0", "-", "4", "-",
        ]


    def test_a_report_that_cannot_be_written_as_json_writes_nothing(self, tmp_path):
        row = MethodRow("mkl", 10, 2, 3, 0.5, math.inf, 0.5, 0.0)
        with pytest.raises(ValueError, match="JSON"):
            write_report(Report([row], ExperimentConfig(), [0]), tmp_path / "out")
        assert not (tmp_path / "out" / "report.tsv").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "row, extras, message",
        [(MethodRow("mkl", 10, 2, 3, 0.5, math.inf, 0.5, 0.0), {},
          r"report row 'mkl' field 'nmse_std' is not finite"),
         (MethodRow("kl", 10, 2, 3, 0.5, 0.1, 0.5, 0.0, [1e-3, math.nan]), {},
          r"report row 'kl' field 'mu_selected\.1' is not finite"),
         (MethodRow("knn", 10, 2, 3, 0.5, 0.1, 0.5, 0.0), {"per_method": {"mkl": {"60": 1.0, "120": -math.inf}}},
          r"report extras key 'per_method\.mkl\.120' is not finite"),
         (MethodRow("knn", 10, 2, 3, 0.5, 0.1, 0.5, 0.0), {"sizes": [60, math.inf]},
          r"report extras key 'sizes\.1' is not finite")],
        ids=["row", "row_list", "extras", "extras_list"],
    )
    def test_a_non_finite_value_is_named_and_nothing_written(self, tmp_path, row, extras, message):
        report = Report([row], ExperimentConfig(), [0], extras=extras)
        with pytest.raises(ValueError, match=f"^{message}"):
            report.to_json()
        with pytest.raises(ValueError, match=f"^{message}"):
            write_report(report, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestPatterns:
    def test_concat_is_column_then_row(self):
        g = erdos_renyi(7, 0.5, 0)
        anchor, nodes = [0, 2, 5], np.arange(7)
        pats = node_patterns(g, anchor, nodes, "concat")
        assert pats.shape == (7, 2 * len(anchor))
        expected = np.hstack([node_patterns(g, anchor, nodes, mode) for mode in ("column", "row")])
        assert np.array_equal(pats, expected)

    def test_anchor_restriction_reads_adjacency_anchor_node(self):
        rng = np.random.default_rng(3)
        g = Graph(rng.random((9, 9)), directed=True)
        anchor, nodes = [7, 1, 4], [0, 4, 8, 2]
        pats = node_patterns(g, anchor, nodes, "column")
        assert pats.shape == (len(nodes), len(anchor))
        for i, node in enumerate(nodes):
            for k, a in enumerate(anchor):
                assert pats[i, k] == g.adjacency[a, node]

    def test_normalize_unit_rows_and_zero_rows(self):
        a = np.zeros((5, 5))
        a[0, 1] = a[1, 0] = 2.0
        a[0, 2] = a[2, 0] = 1.0
        a[1, 2] = a[2, 1] = 3.0
        g = Graph(a)  # nodes 3 and 4 reach no anchor
        pats = node_patterns(g, [0, 1, 2], np.arange(5), "column", True)
        np.testing.assert_allclose(np.linalg.norm(pats[:3], axis=1), 1.0, atol=1e-15)
        assert np.array_equal(pats[3:], np.zeros((2, 3)))
        raw = node_patterns(g, [0, 1, 2], np.arange(3), "column")
        np.testing.assert_allclose(pats[:3], raw / np.linalg.norm(raw, axis=1)[:, None])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="pattern mode"):
            node_patterns(Graph(np.zeros((3, 3))), [0], [1], "diagonal")

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12), directed=st.booleans(), mode=st.sampled_from(["column", "row", "concat"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_normalising_in_place_is_the_division(self, n, directed, mode, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        if not directed:
            a = np.triu(a, 1) + np.triu(a, 1).T
        g = Graph(a, directed=directed)
        anchor = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        nodes = rng.integers(0, n, size=rng.integers(1, 2 * n))
        raw = node_patterns(g, anchor, nodes, mode)
        norms = np.linalg.norm(raw, axis=1)
        norms[norms == 0] = 1.0
        expected = raw / norms[:, None]
        assert node_patterns(g, anchor, nodes, mode, True).tobytes() == expected.tobytes()


def dense_truth_signal(config, g, plan, seeds):
    """The signal as drawn from the whole N×N truth kernel."""
    every = np.arange(g.n_nodes)
    if config.scenario == "identity":
        k = np.eye(g.n_nodes)
    else:
        anchored = config.scenario == "connectivity_anchored"
        patterns = node_patterns(
            g, plan.sampled if anchored else every, every, config.pattern_mode,
            config.normalize_patterns and not anchored,
        )
        k = eval_kernel_matrix(KernelSpec("gaussian", config.truth_sigma2), patterns, patterns)
    return synth_signal(g, k, config.noise_var, seeds["signal"])


class TestTruthSignal:
    @settings(max_examples=40, deadline=None)
    @given(
        groups=st.integers(2, 11), tail=st.integers(1, 7), block_groups=st.integers(1, 3),
        scenario=st.sampled_from(["connectivity", "connectivity_anchored"]),
        noise_var=st.sampled_from([0.0, 0.01]), trial=st.integers(0, 2**16),
    )
    def test_blocks_give_the_dense_signal(self, groups, tail, block_groups, scenario, noise_var, trial):
        # n = 8 groups + tail is never a multiple of 8, and a budget of
        # 64 n block_groups bytes with no 128-row floor cuts K alpha into
        # blocks of 8 block_groups rows, so n spans several blocks; 0/1
        # patterns make every kernel entry exact, so only the blocking could
        # move a bit
        n = 8 * groups + tail
        config = ExperimentConfig(
            n_nodes=n, scenario=scenario, noise_var=noise_var, normalize_patterns=False,
            sample_fraction=0.2, standardize_labels=False,
        )
        seeds = _trial_seeds(0, trial)
        with mock.patch.object(graphrf.kernels, "_ROW_CHUNK_BYTES", 64 * n * block_groups), \
                mock.patch.object(graphrf.harness, "_TRUTH_MIN_ROWS", 8):
            g, plan, x = _draw_trial(config, n, seeds)
        assert x.tobytes() == dense_truth_signal(config, g, plan, seeds).tobytes()

    def test_normalised_patterns_keep_the_dense_signal_to_rounding(self):
        # normalised entries are not exact, and BLAS may round a block of
        # rows differently from the whole product
        n = 77
        config = ExperimentConfig(n_nodes=n, scenario="connectivity", standardize_labels=False)
        seeds = _trial_seeds(0, 1)
        with mock.patch.object(graphrf.kernels, "_ROW_CHUNK_BYTES", 0), \
                mock.patch.object(graphrf.harness, "_TRUTH_MIN_ROWS", 8):
            g, plan, x = _draw_trial(config, n, seeds)
        np.testing.assert_allclose(x, dense_truth_signal(config, g, plan, seeds), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [60, 120, 200, 500, 1000, 2000])
    def test_identity_is_the_eye_signal(self, n):
        config = ExperimentConfig(n_nodes=n, scenario="identity", standardize_labels=False)
        seeds = _trial_seeds(3, 0)
        g, plan, x = _draw_trial(config, n, seeds)
        assert x.tobytes() == dense_truth_signal(config, g, plan, seeds).tobytes()

    @pytest.mark.parametrize("scenario,bound", [("identity", 0.2), ("connectivity_anchored", 0.35)])
    def test_no_n_by_n_kernel_is_built(self, scenario, bound):
        # one N×N float64 array at n = 2000 is 30.5 MB; the bool adjacency is
        # an eighth of that, the anchored patterns a twentieth and each block
        # of 128 rows a sixteenth (measured: 0.14 and 0.29 of one N×N array)
        n = 2000
        config = ExperimentConfig(n_nodes=n, scenario=scenario)
        erdos_renyi(2, 0.2, seed=0)  # imports numpy.random before measuring
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _draw_trial(config, n, _trial_seeds(0, 0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < bound * 8 * n * n


class TestRunSynthetic:
    def test_single_method_single_trial_shape(self):
        config = ExperimentConfig(
            n_nodes=30, trials=1, sample_fraction=0.2, methods=("knn",), scenario="identity"
        )
        report = run_synthetic(config)
        assert len(report.rows) == 1
        assert report.rows[0].method == "knn"
        assert report.rows[0].trials == 1

    def test_noiseless_beats_noisy(self):
        base = dict(
            n_nodes=110, trials=3, sample_fraction=0.2, d=100,
            kernels=(("gaussian", 5.0),), methods=("mkl",), eta=0.5,
            scenario="connectivity_anchored", normalize_patterns=False,
            standardize_labels=True, base_seed=5,
        )
        noisy = run_synthetic(ExperimentConfig(noise_var=1.0, **base))
        clean = run_synthetic(ExperimentConfig(noise_var=0.0, **base))
        assert clean.rows[0].nmse_mean < noisy.rows[0].nmse_mean

    def test_report_bodies_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            n_nodes=40, trials=2, sample_fraction=0.2, d=8,
            methods=("mkl", "knn"), scenario="identity", base_seed=9,
        )
        r1 = run_synthetic(config)
        r2 = run_synthetic(config)
        write_report(r1, tmp_path / "a")
        write_report(r2, tmp_path / "b")
        assert (tmp_path / "a/report.tsv").read_bytes() == (tmp_path / "b/report.tsv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()
        assert r1.to_tsv() == r2.to_tsv()

    def test_report_is_the_golden_file_byte_for_byte(self, tmp_path):
        # tests/data/synthetic_report.tsv was written by this config; its six
        # significant digits hide last-bit BLAS differences between CPUs,
        # while a change to any method's scores or its chosen mu shows
        config = ExperimentConfig(
            n_nodes=60, trials=2, scenario="connectivity_anchored", sample_fraction=0.2, d=20,
            methods=("mkl", "kl", "gk_df", "gk_bl", "knn"),
        )
        write_report(run_synthetic(config), tmp_path)
        golden = Path(__file__).parent / "data" / "synthetic_report.tsv"
        assert (tmp_path / "report.tsv").read_bytes() == golden.read_bytes()

    def test_a_trial_is_freed_before_the_next_is_drawn(self, monkeypatch):
        drawn = []

        def draw(*args):
            assert all(ref() is None for ref in drawn), "an earlier trial's graph is still alive"
            g = erdos_renyi(*args)
            drawn.append(weakref.ref(g))
            return g

        monkeypatch.setattr(graphrf.harness, "erdos_renyi", draw)
        run_synthetic(ExperimentConfig(
            n_nodes=30, trials=3, sample_fraction=0.3, d=8, methods=("mkl", "kl", "knn"), scenario="identity",
        ))
        assert len(drawn) == 3

    def test_gk_methods_run(self):
        config = ExperimentConfig(
            n_nodes=30, trials=1, sample_fraction=0.3, d=8,
            methods=("gk_df", "gk_bl"), scenario="diffusion",
            mu_grid=(1e-4, 1e-2), gk_sigma2_grid=(1.0, 5.0), band_grid=(2, 5),
        )
        report = run_synthetic(config)
        assert {r.method for r in report.rows} == {"gk_df", "gk_bl"}
        for row in report.rows:
            assert row.nmse_mean is not None

    def test_traces_emitted(self, tmp_path):
        config = ExperimentConfig(
            n_nodes=30, trials=1, sample_fraction=0.3, d=8,
            methods=("mkl", "knn"), scenario="identity",
        )
        write_report(run_synthetic(config), tmp_path / "one")
        trace_file = tmp_path / "one" / "traces" / "mkl_trial0.tsv"
        assert trace_file.exists()
        header = trace_file.read_text().splitlines()[0].split("\t")
        assert header[:2] == ["t", "combined_loss"]
        # more trials write the same first trial's traces, and only mkl has any
        write_report(run_synthetic(replace(config, trials=3)), tmp_path / "three")
        assert [p.name for p in (tmp_path / "three" / "traces").iterdir()] == ["mkl_trial0.tsv"]
        assert (tmp_path / "three" / "traces" / "mkl_trial0.tsv").read_bytes() == trace_file.read_bytes()

    def test_a_run_with_mkl_has_mkl_traces_and_only_those(self):
        config = ExperimentConfig(
            n_nodes=30, trials=2, sample_fraction=0.3, d=8,
            methods=("mkl", "knn"), scenario="identity",
        )
        report = run_synthetic(config)
        assert list(report.traces) == ["mkl_trial0"]
        names, columns = report.traces["mkl_trial0"]
        assert names == ["combined_loss", "loss_0", "loss_1", "weight_0", "weight_1"]
        assert len(columns) == len(names)


def small_trial(**overrides):
    """A 16-node training set of an 80-node graph, as ``_fit_method`` takes it."""
    config = ExperimentConfig(n_nodes=80, d=10, **overrides)
    g = erdos_renyi(config.n_nodes, config.edge_prob, 3)
    plan = sample_nodes(g, 16, 4)
    y = np.random.default_rng(5).normal(size=plan.sampled.size)
    x_train, x_eval = (node_patterns(g, plan.sampled, nodes, "column", True)
                       for nodes in (plan.sampled, plan.unsampled))
    return config, g, plan, _trial_seeds(0, 0), y, x_train, x_eval


class TestMklTrial:
    """One mkl fit per trial draws the maps and encodes the training patterns
    once, and selects and trains exactly as a fresh model per mu would."""

    def test_maps_drawn_once_per_fit(self, monkeypatch):
        calls = []
        build_map = graphrf.mkl.build_map
        monkeypatch.setattr(graphrf.mkl, "build_map", lambda *a: calls.append(a) or build_map(*a))
        config, *args = small_trial()
        _fit_method("mkl", config, *args)
        assert len(calls) == len(config.kernels)

    @pytest.mark.parametrize("eta", [0.5, "auto"])
    def test_matches_a_fresh_model_per_mu(self, eta):
        config, g, plan, seeds, y, x_train, x_eval = small_trial(eta=eta)
        fitted = _fit_method("mkl", config, g, plan, seeds, y, x_train, x_eval)

        def fit(mu, xs, ys):
            model = mkl_init(config.kernel_specs(), config.d, xs.shape[1], config.eta_value(len(ys)),
                             mu, config.loss, seeds["map"])
            return mkl_train(model, list(zip(xs, ys)))[0]

        tr, val = np.arange(12), np.arange(12, 16)  # cv_fraction 0.25 of 16
        errors = [np.mean((mkl_predict_batch(fit(mu, x_train[tr], y[tr]), x_train[val]) - y[val]) ** 2)
                  for mu in config.mu_grid]
        mu = config.mu_grid[int(np.argmin(errors))]
        assert fitted.mu == mu
        reference = fit(mu, x_train, y)
        model, traces = fitted.refit()
        assert np.array_equal(model.thetas, reference.thetas)
        assert np.array_equal(model.log_weights, reference.log_weights)
        assert np.array_equal(traces.weights, fitted.traces.weights)
        preds, _ = fitted.score(x_eval)
        assert np.array_equal(preds, mkl_predict_batch(reference, x_eval))


class TestKlTrial:
    """kl evaluates its training kernel once per trial, and selects and fits
    exactly as fresh kernel matrices per mu would."""

    def test_training_kernel_evaluated_once_before_scoring(self, monkeypatch):
        calls = []
        evaluate = graphrf.harness.eval_kernel_matrix
        monkeypatch.setattr(graphrf.harness, "eval_kernel_matrix",
                            lambda spec, xs, ys: calls.append((xs, ys)) or evaluate(spec, xs, ys))
        config, g, plan, seeds, y, x_train, x_eval = small_trial()
        fitted = _fit_method("kl", config, g, plan, seeds, y, x_train, x_eval)
        assert len(calls) == 1
        assert calls[0][0] is x_train and calls[0][1] is x_train
        fitted.score(x_eval)
        assert len(calls) == 2
        assert calls[1][0] is x_eval and calls[1][1] is x_train

    def test_matches_a_fresh_fit_per_mu(self):
        config, g, plan, seeds, y, x_train, x_eval = small_trial()
        fitted = _fit_method("kl", config, g, plan, seeds, y, x_train, x_eval)
        spec = KernelSpec("gaussian", config.kl_sigma2)

        def fit(mu, xs, ys):
            return batch_kernel_ridge(eval_kernel_matrix(spec, xs, xs), ys, mu)

        tr, val = np.arange(12), np.arange(12, 16)  # cv_fraction 0.25 of 16
        errors = [np.mean((eval_kernel_matrix(spec, x_train[val], x_train[tr]) @ fit(mu, x_train[tr], y[tr])
                           - y[val]) ** 2) for mu in config.mu_grid]
        mu = config.mu_grid[int(np.argmin(errors))]
        assert fitted.mu == mu
        alpha = fit(mu, x_train, y)
        assert np.array_equal(fitted.refit(), alpha)
        preds, failures = fitted.score(x_eval)
        assert np.array_equal(preds, eval_kernel_matrix(spec, x_eval, x_train) @ alpha)
        assert failures == 0


class TestGkTrial:
    @pytest.mark.parametrize("method, family", [("gk_df", "diffusion"), ("gk_bl", "bandlimited")])
    def test_scores_each_new_node_as_a_ridge_fit_on_its_grown_graph(self, monkeypatch, method, family):
        # scoring forms no kernel matrix and solves nothing, yet predicts what
        # the explicit route does: the kernel of the grown graph, one ridge
        # solve on its sampled block and one dot product
        config, g, plan, seeds, y, x_train, x_eval = small_trial()
        fitted = _fit_method(method, config, g, plan, seeds, y, x_train, x_eval)
        knob = fitted.notes.removeprefix("knob=")
        spec = (GraphKernelSpec("diffusion", sigma2=float(knob)) if family == "diffusion"
                else GraphKernelSpec("bandlimited", band_size=int(knob)))
        with monkeypatch.context() as patched:
            for name in ("graph_kernel_matrix", "batch_kernel_ridge"):
                patched.setattr(graphrf.harness, name, mock.Mock(side_effect=AssertionError(f"{name} called")))
            preds, failures = fitted.score(fitted.inputs)
        m = plan.sampled.size
        expected = []
        for a_new in fitted.inputs:
            grown = np.zeros((m + 1, m + 1))
            grown[:m, :m] = g.adjacency[np.ix_(plan.sampled, plan.sampled)]
            grown[m, :m] = grown[:m, m] = a_new
            k = graph_kernel_matrix(Graph(grown, directed=False), spec)
            expected.append(float(np.dot(k[m, :m], batch_kernel_ridge(k[:m, :m], y, fitted.mu))))
        assert failures == 0
        np.testing.assert_allclose(preds, expected, rtol=0.0,
                                   atol=1e-8 * max(np.abs(expected).max(), np.abs(y).max()))


def scores_node_by_node(sub, patterns, spec, y, mu):
    """The block scorer's reference: per new node, the Laplacian of its
    checked grown Graph, one eigh and a one-node spectral readout.  Returns
    the predictions, or the first refusal's message."""
    m = sub.shape[0]
    out = []
    for a_new in patterns:
        grown = np.zeros((m + 1, m + 1))
        grown[:m, :m] = sub
        grown[m, :m] = grown[:m, m] = a_new
        lam, u = np.linalg.eigh(normalized_laplacian(Graph(grown, directed=False)))
        try:
            out.append(spectral_ridge_predict(u, graphrf.kernels.graph_kernel_response(spec, lam), y, mu))
        except ValueError as exc:
            return str(exc)
    return np.array(out)


def scores_in_blocks(sub, patterns, spec, y, mu, rows):
    """``_gk_new_node_scores`` with a budget of ``rows`` nodes per block, or
    its refusal's message."""
    budget = rows * 8 * (sub.shape[0] + 1) ** 2
    with mock.patch.object(graphrf.harness, "_GK_BLOCK_BYTES", budget):
        try:
            return _gk_new_node_scores(sub, patterns, spec, y, mu)
        except ValueError as exc:
            return str(exc)


def same_outcome(a, b) -> bool:
    """The same message, or predictions with the same bits."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


GK_SPECS = [GraphKernelSpec("diffusion", sigma2=5.0), GraphKernelSpec("bandlimited", band_size=4)]


class TestGkCv:
    @pytest.mark.parametrize("method", ["gk_df", "gk_bl"])
    def test_every_knob_is_read_off_its_own_two_kernels(self, monkeypatch, method):
        # each knob's kernels of the subgraph and of its CV prefix are built
        # through the harness's graph_kernel_matrix, one decomposition each,
        # and every (mu, knob) entry predicts as those two kernels would
        config, g, plan, seeds, y, x_train, x_eval = small_trial()
        recorded = {}
        select = graphrf.harness._select

        def recording(grid, ys, cv_fraction, cv_predict):
            recorded.update(grid=grid, cv_predict=cv_predict)
            return select(grid, ys, cv_fraction, cv_predict)

        monkeypatch.setattr(graphrf.harness, "_select", recording)
        _fit_method(method, config, g, plan, seeds, y, x_train, x_eval)
        eigh = mock.Mock(side_effect=np.linalg.eigh)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        kernel = mock.Mock(side_effect=graph_kernel_matrix)
        monkeypatch.setattr(graphrf.harness, "graph_kernel_matrix", kernel)
        n = 12  # cv_fraction 0.25 of 16
        preds = recorded["cv_predict"](n)
        knobs = len({knob for _, knob in recorded["grid"]})
        assert knobs > 1
        assert eigh.call_count == kernel.call_count == 2 * knobs
        sub = g.adjacency[np.ix_(plan.sampled, plan.sampled)]
        for (mu, knob), got in zip(recorded["grid"], preds, strict=True):
            spec = (GraphKernelSpec("diffusion", sigma2=knob) if method == "gk_df"
                    else GraphKernelSpec("bandlimited", band_size=int(knob)))
            whole, prefix = (graph_kernel_matrix(Graph(a, directed=False), spec) for a in (sub, sub[:n, :n]))
            assert got.tobytes() == (whole[n:, :n] @ batch_kernel_ridge(prefix, y[:n], mu)).tobytes()


class TestGkBlockScorer:
    """New nodes scored a block at a time get, bit for bit, what scoring each
    on its own grown graph gives."""

    def case(self, weighted, m=12, n_new=23, seed=0):
        g = erdos_renyi(60, 0.2, seed)
        if weighted:
            upper = np.triu(g.adjacency * np.random.default_rng(seed).uniform(0.1, 2.0, size=(60, 60)), 1)
            g = Graph(upper + upper.T)
        plan = sample_nodes(g, m, seed)
        sub = np.ascontiguousarray(g.adjacency[np.ix_(plan.sampled, plan.sampled)])
        patterns = node_patterns(g, plan.sampled, plan.unsampled[:n_new])
        patterns[1] = 0.0  # a new node with no edge into the sampled set
        return sub, patterns, np.random.default_rng(seed + 1).normal(size=m)

    @pytest.mark.parametrize("spec", GK_SPECS)
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("rows", [1, 5, 64])
    def test_matches_node_by_node(self, spec, weighted, rows):
        # 23 nodes: blocks of 5 leave a partial block, 64 is one partial block
        sub, patterns, y = self.case(weighted)
        assert sub.dtype == (np.float64 if weighted else np.bool_)
        expected = scores_node_by_node(sub, patterns, spec, y, 1e-3)
        assert not isinstance(expected, str)
        assert same_outcome(scores_in_blocks(sub, patterns, spec, y, 1e-3, rows), expected)

    @pytest.mark.parametrize("spec", GK_SPECS)
    def test_one_sampled_node(self, spec):
        sub, patterns, y = self.case(False, m=1, n_new=9)
        expected = scores_node_by_node(sub, patterns, spec, y, 1e-2)
        assert same_outcome(scores_in_blocks(sub, patterns, spec, y, 1e-2, 4), expected)

    def test_the_first_residual_refusal_is_the_first_refused_node_s(self):
        # at mu = 0 and sigma2 = 20 some nodes' systems are too ill-conditioned;
        # their residual norms differ, so the message names the node
        rng = np.random.default_rng(9)
        sub = np.triu((rng.random((6, 6)) < 0.3).astype(float), 1)
        sub += sub.T
        y = rng.normal(size=6)
        patterns = (rng.random((8, 6)) < 0.4).astype(float)
        spec = GraphKernelSpec("diffusion", sigma2=20.0)
        expected = scores_node_by_node(sub, patterns, spec, y, 0.0)
        assert isinstance(expected, str) and expected.startswith("ridge solve residual")
        assert not isinstance(scores_node_by_node(sub, patterns[:1], spec, y, 0.0), str)
        for rows in (1, 3, 8):
            assert scores_in_blocks(sub, patterns, spec, y, 0.0, rows) == expected

    def test_a_singular_system_is_refused_at_its_node(self):
        # with no sampled edge, a node with no edge leaves L = I, but a node
        # with edges makes a star, whose eigenvalue 2 overflows exp(1000) and
        # leaves a zero response at mu = 0
        sub, y = np.zeros((3, 3)), np.array([1.0, -1.0, 0.5])
        patterns = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        spec = GraphKernelSpec("diffusion", sigma2=1000.0)
        with np.errstate(over="ignore"):
            expected = scores_node_by_node(sub, patterns, spec, y, 0.0)
            assert expected == "singular ridge system; kernel is rank-deficient and mu is too small"
            assert scores_in_blocks(sub, patterns, spec, y, 0.0, 3) == expected
            assert not isinstance(scores_in_blocks(sub, patterns[:1], spec, y, 0.0, 3), str)

    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (np.inf, "finite"), (-0.5, "non-negative")])
    def test_incoming_patterns_are_checked_as_a_graph_checks_weights(self, bad, message):
        sub, patterns, y = self.case(True, n_new=6)
        patterns[4, 2] = bad
        with pytest.raises(ValueError, match=f"^adjacency entries must be {message}$"):
            Graph(np.block([[sub, patterns[4:5].T], [patterns[4:5], np.zeros((1, 1))]]), directed=False)
        with pytest.raises(ValueError, match=f"^adjacency entries must be {message}$"):
            _gk_new_node_scores(sub, patterns, GK_SPECS[0], y, 1e-3)

    def test_patterns_of_another_width_are_refused(self):
        sub, patterns, y = self.case(False)
        with pytest.raises(ValueError, match=r"need \(nodes, 12\) new-node patterns"):
            _gk_new_node_scores(sub, patterns[:, :5], GK_SPECS[0], y, 1e-3)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 8), n_new=st.integers(1, 12), rows=st.integers(1, 5), weighted=st.booleans(),
           density=st.sampled_from([0.0, 0.3, 0.8]), seed=st.integers(0, 2**32 - 1),
           spec=st.sampled_from([GraphKernelSpec("diffusion", sigma2=s) for s in (0.5, 5.0, 10.0)]
                                + [GraphKernelSpec("bandlimited", band_size=b) for b in (1, 3, 9)]),
           mu=st.sampled_from([0.0, 1e-7, 1e-3, 1.0]))
    def test_property_blocks_match_node_by_node(self, m, n_new, rows, weighted, density, seed, spec, mu):
        rng = np.random.default_rng(seed)

        def edges(shape):
            a = rng.random(shape) < density
            return a * rng.uniform(0.1, 2.0, size=shape) if weighted else a

        sub = np.triu(edges((m, m)), 1)
        sub = sub | sub.T if sub.dtype == np.bool_ else sub + sub.T
        patterns = edges((n_new, m)).astype(np.float64)
        y = rng.normal(size=m)
        assert same_outcome(scores_in_blocks(sub, patterns, spec, y, mu, rows),
                            scores_node_by_node(sub, patterns, spec, y, mu))


class TestRunDataset:
    def test_knn_averages_every_neighbor_on_light_edges(self, tmp_path):
        # Edge weights below 1 make the weighted degree smaller than the
        # neighbor count.  Scaling every weight by 8 (exact in binary) leaves
        # a weighted mean unchanged, so both runs must report the same NMSE.
        rng = np.random.default_rng(1)
        n = 14
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        weights = rng.choice([0.125, 0.25, 0.375], size=len(edges))
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(f"v{i} {float(v)!r}" for i, v in enumerate(rng.normal(size=n))) + "\n")
        nmse_by_scale = []
        for scale in (1.0, 8.0):
            path = tmp_path / f"edges{scale}.txt"
            path.write_text("".join(f"v{i} v{j} {float(w * scale)!r}\n" for (i, j), w in zip(edges, weights)))
            config = ExperimentConfig(
                edge_list=str(path), labels=str(labels), weighted=True,
                trials=3, sample_counts=(6,), methods=("knn",),
            )
            nmse_by_scale.append(run_dataset(config).rows[0].nmse_mean)
        assert nmse_by_scale[0] == nmse_by_scale[1]

    def test_smoke_fixture(self, tiny_dataset):
        edges, labels = tiny_dataset
        config = ExperimentConfig(
            edge_list=edges, labels=labels,
            trials=2, sample_counts=(5,), d=6, methods=("mkl", "kl", "knn"),
        )
        report = run_dataset(config)
        assert {r.method for r in report.rows} == {"mkl", "kl", "knn"}
        for row in report.rows:
            assert row.nmse_mean is not None
            assert row.n_sampled == 5

    @staticmethod
    def inline_plan(labeled_idx, count, seed):
        """The draw run_dataset made inline before it shared sample_nodes' draw."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(labeled_idx.size)
        return SamplingPlan(labeled_idx[order[:count]], np.sort(labeled_idx[order[count:]]))

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=40, unique=True),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_draw_gives_the_inline_plans(self, ids, data, seed):
        labeled_idx = np.array(ids, dtype=np.int64)  # in file order, not sorted
        count = data.draw(st.integers(1, labeled_idx.size))
        plan = _draw_plan(labeled_idx, count, seed)
        expected = self.inline_plan(labeled_idx, count, seed)
        assert plan.sampled.tolist() == expected.sampled.tolist()
        assert plan.unsampled.tolist() == expected.unsampled.tolist()

    def test_every_trial_draws_its_plan_through_the_shared_draw(self, tiny_dataset, monkeypatch):
        edges, labels = tiny_dataset
        config = ExperimentConfig(
            edge_list=edges, labels=labels, trials=3, sample_counts=(4, 7), methods=("knn",),
        )
        draws = []

        def recorded(ids, count, seed):
            plan = _draw_plan(ids, count, seed)
            draws.append((count, seed, plan, self.inline_plan(ids, count, seed)))
            return plan

        monkeypatch.setattr(graphrf.harness, "_draw_plan", recorded)
        report = run_dataset(config)
        assert [count for count, _, _, _ in draws] == [4] * 3 + [7] * 3
        assert [seed for _, seed, _, _ in draws] == report.seeds
        for _, _, plan, expected in draws:
            assert plan.sampled.tolist() == expected.sampled.tolist()
            assert plan.unsampled.tolist() == expected.unsampled.tolist()

    def test_full_sampling_flags_undefined_nmse(self, tiny_dataset):
        edges, labels = tiny_dataset
        config = ExperimentConfig(
            edge_list=edges, labels=labels,
            trials=1, sample_counts=(12,), d=6, methods=("mkl",),
        )
        report = run_dataset(config)
        row = report.rows[0]
        assert row.nmse_mean is None
        assert "undefined" in row.notes
        assert "undefined" in report.to_tsv()

    def test_more_samples_do_not_hurt_on_average(self, tmp_path):
        # labels vary smoothly with whole connectivity patterns, so seeing
        # more of the pattern (and more samples) must not degrade the error
        from graphrf import KernelSpec, erdos_renyi, eval_kernel_matrix

        rng = np.random.default_rng(1)
        g = erdos_renyi(60, 0.3, seed=42)
        pats_full = g.adjacency.T.copy()
        kern = eval_kernel_matrix(KernelSpec("gaussian", 15.0), pats_full, pats_full)
        x = kern @ rng.uniform(0.5, 1.0, 60)
        x = (x - x.mean()) / x.std()
        edges = tmp_path / "edges.txt"
        lines = [
            f"w{i} w{j}"
            for i in range(60)
            for j in range(i + 1, 60)
            if g.adjacency[i, j] > 0
        ]
        edges.write_text("\n".join(lines) + "\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(f"w{i} {x[i]:.8f}" for i in range(60)) + "\n")
        config = ExperimentConfig(
            edge_list=str(edges), labels=str(labels), eta=0.5,
            kernels=(("gaussian", 5.0), ("gaussian", 15.0)), normalize_patterns=False,
            trials=20, sample_counts=(6, 30), d=60, methods=("mkl",), base_seed=3,
        )
        report = run_dataset(config)
        by_count = {row.n_sampled: row.nmse_conv_mean for row in report.rows}
        assert by_count[30] <= by_count[6] * 1.25  # improves, or flat within band

    def test_missing_paths_rejected(self):
        with pytest.raises(ValueError, match="edge_list"):
            run_dataset(ExperimentConfig())

    def test_unknown_label_token_rejected(self, tiny_dataset, tmp_path):
        edges, _ = tiny_dataset
        bad = tmp_path / "bad_labels.txt"
        bad.write_text("nosuchnode 1.0\n")
        config = ExperimentConfig(edge_list=edges, labels=str(bad))
        with pytest.raises(ValueError, match="unknown nodes"):
            run_dataset(config)

    @staticmethod
    def _count_fits(monkeypatch):
        calls = []
        real = graphrf.harness._fit_method

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(graphrf.harness, "_fit_method", counting)
        return calls

    def test_oversized_sample_count_rejected_before_any_fit(self, tiny_dataset, monkeypatch):
        edges, labels = tiny_dataset
        calls = self._count_fits(monkeypatch)
        config = ExperimentConfig(
            edge_list=edges, labels=labels,
            trials=2, sample_counts=(5, 6, 50), d=6, methods=("mkl", "kl", "knn"),
        )
        with pytest.raises(ValueError, match="sample count 50 exceeds 12 labeled nodes"):
            run_dataset(config)
        assert calls == []

    def test_graph_kernel_on_directed_graph_rejected_before_any_fit(self, tiny_dataset, monkeypatch):
        edges, labels = tiny_dataset
        calls = self._count_fits(monkeypatch)
        config = ExperimentConfig(
            edge_list=edges, labels=labels, directed=True, symmetrize=False,
            trials=1, sample_counts=(5,), d=6, methods=("mkl", "kl", "gk_df"),
        )
        with pytest.raises(ValueError, match="gk_df requires an undirected graph"):
            run_dataset(config)
        assert calls == []

    def test_multi_column_labels_run_per_column(self, tiny_dataset, tmp_path):
        edges, _ = tiny_dataset
        multi = tmp_path / "multi.txt"
        rng = np.random.default_rng(4)
        multi.write_text(
            "\n".join(f"v{i} {rng.normal():.4f} {rng.normal():.4f}" for i in range(12)) + "\n"
        )
        config = ExperimentConfig(
            edge_list=edges, labels=str(multi),
            trials=2, sample_counts=(5,), d=6, methods=("knn",),
        )
        report = run_dataset(config)
        assert report.rows[0].trials == 4  # trials x label columns

    def test_directed_input_symmetrized_for_graph_kernels(self, tmp_path):
        rng = np.random.default_rng(6)
        edges = tmp_path / "directed.txt"
        lines = [
            f"u{i} u{j}"
            for i in range(14)
            for j in range(14)
            if i != j and rng.random() < 0.25
        ]
        edges.write_text("\n".join(lines) + "\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(f"u{i} {rng.normal():.4f}" for i in range(14)) + "\n")
        config = ExperimentConfig(
            edge_list=str(edges), labels=str(labels),
            directed=True, symmetrize=True,
            trials=1, sample_counts=(6,), d=5, methods=("gk_df", "mkl"),
        )
        report = run_dataset(config)
        assert {r.method for r in report.rows} == {"gk_df", "mkl"}

    def test_traces_are_the_first_trials_mkl_traces(self, tiny_dataset, tmp_path):
        edges, labels = tiny_dataset
        config = ExperimentConfig(
            edge_list=edges, labels=labels,
            trials=2, sample_counts=(5, 7), d=6, methods=("mkl", "knn"),
        )
        report = run_dataset(config)
        assert list(report.traces) == ["mkl_trial0"]
        names, columns = report.traces["mkl_trial0"]
        assert names[0] == "combined_loss" and all(len(c) == 5 for c in columns)
        # the first sample count's first trial, as a one-trial run draws it
        first = run_dataset(replace(config, trials=1, sample_counts=(5,)))
        write_report(report, tmp_path / "all")
        write_report(first, tmp_path / "first")
        trace = tmp_path / "all" / "traces" / "mkl_trial0.tsv"
        assert trace.read_bytes() == (tmp_path / "first" / "traces" / "mkl_trial0.tsv").read_bytes()


class TestRunRegret:
    def test_zero_labels_zero_regret(self):
        config = ExperimentConfig(
            n_nodes=30, trials=1, regret_T=50, d=5, scenario="identity",
            noise_var=0.0, standardize_labels=False, regret_mu=0.0, base_seed=1,
        )
        # zero out the signal by scaling: identity scenario keeps alpha in
        # [0.5, 1], so instead check the sanity path directly
        from graphrf.harness import _prefix_oracle_losses
        from graphrf import mkl_init, mkl_train, KernelSpec

        model = mkl_init([KernelSpec("gaussian", 1.0)], 5, 30, 0.5, 0.0, "least_squares", 2)
        pats = np.random.default_rng(3).random((50, 30))
        samples = [(p, 0.0) for p in pats]
        model, traces = mkl_train(model, samples)
        assert np.all(traces.combined_loss == 0.0)
        oracle = _prefix_oracle_losses(model.maps[0].encode_batch(pats), np.zeros(50), 0.0)
        np.testing.assert_allclose(oracle, 0.0, atol=1e-20)

    def test_end_to_end_run(self):
        config = ExperimentConfig(
            n_nodes=60, trials=2, regret_T=200, d=8, eta="auto",
            scenario="diffusion", base_seed=7,
        )
        report = run_regret(config)
        assert report.extras["T"] == 200
        assert report.extras["eta"] == pytest.approx(1 / math.sqrt(200))
        assert report.extras["regret_bound_holds"] is True
        assert len(report.extras["fitted_exponents"]) == 2

    def test_prefix_consistency(self):
        # regret at matched prefixes agrees between a short and a long run
        from graphrf import KernelSpec, mkl_init, mkl_train
        from graphrf.harness import _prefix_oracle_losses

        rng = np.random.default_rng(8)
        pats = rng.random((80, 12))
        ys = rng.normal(size=80)
        spec = KernelSpec("gaussian", 1.0)

        def run(T):
            model = mkl_init([spec], 4, 12, 0.5, 1e-6, "least_squares", 9)
            model, traces = mkl_train(model, list(zip(pats[:T], ys[:T])))
            oracle = _prefix_oracle_losses(model.maps[0].encode_batch(pats[:T]), ys[:T], 1e-6)
            return np.cumsum(traces.combined_loss) - oracle

        short = run(40)
        full = run(80)
        np.testing.assert_allclose(short, full[:40], atol=1e-10)

    def test_requires_ls_loss(self):
        with pytest.raises(ValueError, match="least-squares"):
            run_regret(ExperimentConfig(loss="hinge"))

    # the C8 stream, one trial of it
    C8_STREAM = dict(n_nodes=200, trials=1, regret_T=2000, d=10, eta="auto", scenario="diffusion",
                     truth_sigma2=5.0, kernels=(("gaussian", 1.0), ("gaussian", 5.0)), base_seed=5)

    @pytest.mark.parametrize("mu", [1e-16, 1e-20])
    def test_a_mu_too_small_for_the_oracle_is_refused(self, mu):
        # the first prefixes' losses fall below the rounding of y'y
        with pytest.raises(ValueError, match=r"regret_mu = .*regret_mu = 0 for the unregularised comparator"):
            run_regret(ExperimentConfig(**self.C8_STREAM, regret_mu=mu))

    @pytest.mark.parametrize("mu", [0.0, 1e-6])
    def test_zero_and_a_small_mu_run(self, mu):
        report = run_regret(ExperimentConfig(**self.C8_STREAM, regret_mu=mu))
        assert report.extras["regret_bound_holds"] is True
        oracle = report.traces["regret_trial0"][1][1]
        assert np.all(np.isfinite(oracle)) and np.all(oracle >= 0.0)

    @pytest.mark.parametrize("mu", [0.0, 1e-6])
    def test_zero_labels_cost_the_oracle_nothing(self, mu):
        from graphrf.harness import _prefix_oracle_losses

        rng = np.random.default_rng(4)
        zs = rng.normal(size=(30, 6))
        ys = np.where(np.arange(30) < 10, 0.0, rng.normal(size=30))
        oracle = _prefix_oracle_losses(zs, ys, mu)
        assert np.all(oracle[:10] == 0.0) and np.all(oracle[10:] > 0.0)

    def test_regret_trace_written(self, tmp_path):
        config = ExperimentConfig(
            n_nodes=40, trials=1, regret_T=60, d=5, scenario="identity", base_seed=2,
        )
        report = run_regret(config)
        names, (cum, oracle, regret) = report.traces["regret_trial0"]
        assert list(report.traces) == ["regret_trial0"]
        assert names == ["cum_online", "oracle", "regret"]
        assert len(cum) == len(oracle) == 60
        assert np.array_equal(regret, cum - oracle)
        write_report(report, tmp_path)
        assert (tmp_path / "traces" / "regret_trial0.tsv").exists()


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
@pytest.mark.parametrize("runner", [run_synthetic, bench_newnode])
def test_random_graph_runs_refuse_a_classification_loss_before_any_trial(monkeypatch, runner, loss):
    # the synthetic signal is real-valued: the run fails before it draws a graph
    def no_graph(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(graphrf.harness, "erdos_renyi", no_graph)
    with pytest.raises(ValueError, match=f"least-squares loss, got loss = '{loss}'"):
        runner(ExperimentConfig(loss=loss))


def test_regret_run_refuses_the_anchored_scenario_before_any_trial(monkeypatch):
    def no_graph(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(graphrf.harness, "erdos_renyi", no_graph)
    with pytest.raises(ValueError, match="regret runs stream whole patterns; use another scenario"):
        run_regret(ExperimentConfig(scenario="connectivity_anchored"))


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
@pytest.mark.parametrize(
    "standardize, values, message",
    [(True, [-1.0, 1.0], "standardize_labels"), (False, [-1.0, 0.5], r"labels file .*labels\.txt")],
)
def test_dataset_run_refuses_a_classification_loss_its_labels_cannot_train(
    tmp_path, monkeypatch, loss, standardize, values, message
):
    rng = np.random.default_rng(2)
    n = 12
    (tmp_path / "edges.txt").write_text("".join(f"v{i} v{(i + 1) % n}\n" for i in range(n)))
    (tmp_path / "labels.txt").write_text("".join(f"v{i} {float(rng.choice(values))!r}\n" for i in range(n)))

    def no_fit(*args):
        raise AssertionError("a fit started")

    monkeypatch.setattr(graphrf.harness, "_fit_method", no_fit)
    config = ExperimentConfig(
        edge_list=str(tmp_path / "edges.txt"), labels=str(tmp_path / "labels.txt"),
        loss=loss, standardize_labels=standardize, sample_counts=(4,), methods=("mkl",),
    )
    with pytest.raises(ValueError, match=f"loss = {loss} .*{message}"):
        run_dataset(config)


@pytest.mark.parametrize(
    "standardize, value, message",
    [(True, 3.0, "constant, which standardize_labels makes all zero"), (True, 0.0, "all zero"),
     (False, 0.0, "all zero")],
    ids=["constant", "zero", "zero-unstandardized"],
)
def test_dataset_run_refuses_a_label_column_without_an_nmse(tmp_path, monkeypatch, standardize, value, message):
    # column 2 holds no signal to score; column 1 is a normal one
    rng = np.random.default_rng(3)
    n = 30
    (tmp_path / "edges.txt").write_text("".join(f"n{i} n{(i + 1) % n}\n" for i in range(n)))
    (tmp_path / "labels.txt").write_text("".join(f"n{i} {rng.normal()!r} {value!r}\n" for i in range(n)))

    def no_fit(*args):
        raise AssertionError("a fit started")

    monkeypatch.setattr(graphrf.harness, "_fit_method", no_fit)
    config = ExperimentConfig(
        edge_list=str(tmp_path / "edges.txt"), labels=str(tmp_path / "labels.txt"),
        standardize_labels=standardize, methods=("mkl", "knn"),
    )
    with pytest.raises(ValueError, match=rf"label column 2 of the labels file .*labels\.txt is {message}"):
        run_dataset(config)


def test_a_trial_whose_unsampled_truth_is_zero_has_no_nmse(tmp_path, monkeypatch):
    # one nonzero label, at n0: a trial that samples n0 leaves zero truth on
    # its unsampled nodes, so it reports no NMSE and names itself in the notes;
    # the other trials are scored
    n = 30
    (tmp_path / "edges.txt").write_text("".join(f"n{i} n{(i + 1) % n}\n" for i in range(n)))
    (tmp_path / "labels.txt").write_text("".join(f"n{i} {float(i == 0)!r}\n" for i in range(n)))
    sampled = []
    fit = graphrf.harness._fit_method

    def recording(method, config, g, plan, *args):
        if method == "mkl":
            sampled.append(g.node_names.index("n0") in plan.sampled)
        return fit(method, config, g, plan, *args)

    monkeypatch.setattr(graphrf.harness, "_fit_method", recording)
    config = ExperimentConfig(
        edge_list=str(tmp_path / "edges.txt"), labels=str(tmp_path / "labels.txt"),
        standardize_labels=False, sample_fraction=0.5, trials=10, methods=("mkl", "knn"),
    )
    report = run_dataset(config)
    zero = [t for t, hit in enumerate(sampled, start=1) if hit]
    assert len(sampled) == 10 and 0 < len(zero) < 10
    notes = "; ".join(f"nmse undefined: zero truth on the unsampled nodes of label column 1, trial {t} of 10"
                      for t in zero)
    for row in report.rows:
        assert row.trials == 10 and row.notes == notes
        assert row.nmse_mean is not None and math.isfinite(row.nmse_mean)
    write_report(report, tmp_path / "out")


def test_dataset_run_keeps_a_constant_column_it_does_not_standardize(tmp_path):
    n = 30
    (tmp_path / "edges.txt").write_text("".join(f"n{i} n{(i + 1) % n}\n" for i in range(n)))
    (tmp_path / "labels.txt").write_text("".join(f"n{i} 3.0\n" for i in range(n)))
    config = ExperimentConfig(
        edge_list=str(tmp_path / "edges.txt"), labels=str(tmp_path / "labels.txt"),
        standardize_labels=False, trials=1, d=6, methods=("mkl", "knn"),
    )
    assert [row.method for row in run_dataset(config).rows] == ["knn", "mkl"]


def test_dataset_run_trains_a_classification_loss_on_plain_labels(tmp_path):
    n = 12
    (tmp_path / "edges.txt").write_text("".join(f"v{i} v{(i + 1) % n}\n" for i in range(n)))
    (tmp_path / "labels.txt").write_text("".join(f"v{i} {(-1.0) ** i!r}\n" for i in range(n)))
    config = ExperimentConfig(
        edge_list=str(tmp_path / "edges.txt"), labels=str(tmp_path / "labels.txt"),
        loss="hinge", standardize_labels=False, sample_counts=(4,), trials=1, d=6, methods=("mkl",),
    )
    assert run_dataset(config).rows[0].method == "mkl"


class TestBenchNewnode:
    def test_table_shape(self):
        config = ExperimentConfig(
            scenario="identity", bench_sizes=(30, 60), d=8,
            methods=("mkl", "knn"), sample_fraction=0.2, timing_reps=2, timing_nodes=5,
        )
        report = bench_newnode(config)
        assert {(r.method, r.n_nodes) for r in report.rows} == {
            ("mkl", 30), ("mkl", 60), ("knn", 30), ("knn", 60),
        }
        for row in report.rows:
            assert row.newnode_time is not None and row.newnode_time >= 0
        assert "mkl" in report.extras["per_method"]

    def test_summary_echoes_the_timed_config(self, tmp_path):
        # the run always times, so its summary.json says so whatever the config said
        config = ExperimentConfig(scenario="identity", bench_sizes=(30,), d=5, methods=("mkl",),
                                  timing_reps=1, timing_nodes=2)
        write_report(bench_newnode(config), tmp_path)
        assert json.loads((tmp_path / "summary.json").read_text())["config"]["measure_runtime"] is True

    def test_ratio_divides_the_largest_size_by_the_smallest_in_any_order(self):
        config = ExperimentConfig(
            scenario="identity", bench_sizes=(120, 60), d=10, methods=("mkl",), timing_reps=1, timing_nodes=3,
        )
        by_size = bench_newnode(config).extras["per_method"]["mkl"]
        assert by_size["ratio_max_over_min"] == by_size["120"] / by_size["60"]


@pytest.mark.parametrize("runner", [run_synthetic, run_regret, bench_newnode])
def test_sample_counts_refused_before_any_trial_of_a_run_that_ignores_it(monkeypatch, runner):
    # only dataset runs sweep sample_counts; the others sample by
    # sample_fraction or stream nodes, and their summary.json would echo it
    def no_graph(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(graphrf.harness, "erdos_renyi", no_graph)
    with pytest.raises(ValueError, match=r"ignore sample_counts, got \[30\]: leave it out"):
        runner(ExperimentConfig(n_nodes=60, trials=1, methods=("knn",), sample_counts=(30,)))


class TestWriteReport:
    RUNS = {
        "synthetic": ExperimentConfig(
            n_nodes=30, trials=1, sample_fraction=0.3, d=8, methods=("mkl", "knn"),
            scenario="identity",
        ),
        "regret": ExperimentConfig(n_nodes=40, trials=1, regret_T=60, d=5, scenario="identity"),
        "bench_newnode": ExperimentConfig(
            scenario="identity", bench_sizes=(30, 40), d=5, methods=("mkl", "knn"),
            sample_fraction=0.2, timing_reps=1, timing_nodes=2,
        ),
    }

    @staticmethod
    def files(root):
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())

    @pytest.mark.parametrize("runner", ["synthetic", "dataset", "regret", "bench_newnode"])
    def test_runners_write_no_file(self, tiny_dataset, tmp_path, monkeypatch, runner):
        if runner == "dataset":
            edges, labels = tiny_dataset
            config = ExperimentConfig(
                edge_list=edges, labels=labels, sample_counts=(4,), trials=1, d=6,
                methods=("mkl", "knn"),
            )
        else:
            config = self.RUNS[runner]
        monkeypatch.chdir(tmp_path)
        before = self.files(tmp_path)
        getattr(graphrf.harness, f"run_{runner}" if runner != "bench_newnode" else runner)(config)
        assert self.files(tmp_path) == before

    def test_writes_the_report_and_one_file_per_trace(self, tmp_path):
        report = run_regret(self.RUNS["regret"])
        report.traces["extra"] = (["a", "b"], [np.arange(3.0), [0.1, 0.2, 0.3]])
        write_report(report, tmp_path / "out")
        assert self.files(tmp_path / "out") == [
            "report.tsv", "summary.json", "traces/extra.tsv", "traces/regret_trial0.tsv",
        ]
        assert (tmp_path / "out/report.tsv").read_text() == report.to_tsv()
        assert (tmp_path / "out/summary.json").read_text() == report.to_json()
        assert (tmp_path / "out/traces/extra.tsv").read_text() == (
            "t\ta\tb\n1\t0.0\t0.1\n2\t1.0\t0.2\n3\t2.0\t0.3\n"
        )
        assert sorted(json.loads(report.to_json())) == ["config", "extras", "rows", "seeds"]

    def test_a_report_removes_the_traces_an_earlier_report_left(self, tmp_path):
        # an mkl,knn run with traces, then a knn run, into one directory: no
        # mkl trace is left beside a report that has no mkl, and a file that
        # no report writes stays
        config = replace(self.RUNS["synthetic"], n_nodes=60)
        write_report(run_synthetic(config), tmp_path)
        assert self.files(tmp_path) == ["report.tsv", "summary.json", "traces/mkl_trial0.tsv"]
        (tmp_path / "traces" / "notes.txt").write_text("kept")
        write_report(run_synthetic(replace(config, methods=("knn",))), tmp_path)
        assert self.files(tmp_path) == ["report.tsv", "summary.json", "traces/notes.txt"]

    def test_no_traces_no_traces_directory(self, tmp_path):
        write_report(run_synthetic(replace(self.RUNS["synthetic"], methods=("knn",))), tmp_path)
        assert self.files(tmp_path) == ["report.tsv", "summary.json"]
        assert not (tmp_path / "traces").exists()
