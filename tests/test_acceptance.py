"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
stream).  Criteria are property-based at desk scale; every tolerance is
stated inline."""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

import graphrf as grf
from graphrf._kernels import cost_grad_scale, cost_value
from graphrf.baselines import batch_rf_ls
from graphrf.features import null_space_collision


@contextmanager
def criterion(cid, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"ACCEPTANCE {cid} ({description}): FAIL (over {budget_s}s budget: {elapsed:.1f}s)")
        pytest.fail(f"criterion {cid} exceeded its {budget_s}s runtime budget")
    print(f"ACCEPTANCE {cid} ({description}): PASS [{elapsed:.2f}s]")


def test_c01_rf_normalization():
    with criterion("C1", "encodings are unit norm", budget_s=1.0):
        rng = np.random.default_rng(0)
        spec = grf.KernelSpec("gaussian", 1.0)
        for d in (1, 10, 100):
            rf_map = grf.build_map(spec, d, 20, seed=d)
            pats = rng.normal(size=(10_000, 20)) * 2.0
            norms = np.linalg.norm(rf_map.encode_batch(pats), axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-12


def test_c02_rf_unbiasedness_and_concentration():
    with criterion("C2", "kernel estimates concentrate and error shrinks with D", budget_s=30.0):
        spec = grf.KernelSpec("gaussian", 1.0)
        rng = np.random.default_rng(1)
        hits = 0
        for trial in range(100):
            a = rng.integers(0, 2, size=20).astype(float)
            b = rng.integers(0, 2, size=20).astype(float)
            exact = grf.eval_kernel(spec, a, b)
            rf_map = grf.build_map(spec, 50_000, 20, seed=1000 + trial)
            if abs(grf.approx_kernel(rf_map, a, b) - exact) <= 0.01:
                hits += 1
        assert hits >= 95

        g = grf.erdos_renyi(20, 0.3, seed=2)
        pats = g.adjacency.T
        exact = grf.eval_kernel_matrix(spec, pats, pats)
        medians = []
        for d in (10, 100, 1000, 10_000):
            errs = []
            for rep in range(20):
                rf_map = grf.build_map(spec, d, 20, seed=13 * d + rep)
                z = rf_map.encode_batch(pats)
                errs.append(np.abs(z @ z.T - exact).max())
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2] > medians[3]


def test_c03_gradient_correctness():
    with criterion("C3", "loss gradients match finite differences", budget_s=5.0):
        rng = np.random.default_rng(3)
        h = 1e-6
        for kind in ("least_squares", "hinge", "logistic"):
            loss = grf.LossKind(kind, mu=0.03)
            checked = 0
            while checked < 100:
                dim = int(rng.integers(2, 10))
                z = rng.normal(size=dim)
                theta = rng.normal(size=dim)
                label = float(rng.normal()) if kind == "least_squares" else float(rng.choice([-1.0, 1.0]))
                if kind == "hinge" and abs(label * float(np.dot(theta, z)) - 1.0) < 1e-4:
                    continue
                # the step learner_block descends, against finite differences
                # of the loss the stream records
                grad = cost_grad_scale(kind, np.dot(z, theta), label) * z + 2.0 * loss.mu * theta
                fd = np.empty(dim)
                for i in range(dim):
                    tp, tm = theta.copy(), theta.copy()
                    tp[i] += h
                    tm[i] -= h
                    fd[i] = (
                        cost_value(kind, np.dot(z, tp), label) + loss.mu * np.dot(tp, tp)
                        - cost_value(kind, np.dot(z, tm), label) - loss.mu * np.dot(tm, tm)
                    ) / (2 * h)
                assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8) <= 1e-5
                checked += 1


def test_c04_batch_oracle_equivalence():
    with criterion("C4", "online descent reaches the batch solution", budget_s=30.0):
        n_nodes, m, d, mu = 50, 30, 200, 0.05
        rng = np.random.default_rng(42)
        g = grf.erdos_renyi(n_nodes, 0.2, 1)
        pats = (g.adjacency / np.maximum(np.linalg.norm(g.adjacency, axis=0), 1e-12)).T
        rf_map = grf.build_map(grf.KernelSpec("gaussian", 1.0), d, n_nodes, 3)
        x = grf.synth_signal(g, np.eye(n_nodes), 0.01, 5)
        x = (x - x.mean()) / x.std()
        idx = rng.permutation(n_nodes)[:m]
        train, y = pats[idx], x[idx]
        z = rf_map.encode_batch(train)
        theta_star = batch_rf_ls(z, y, mu)
        # stationarity of (1/M) sum C(z.theta, y) + mu ||theta||^2
        grad = z.T @ cost_grad_scale("least_squares", z @ theta_star, y) / m + 2.0 * mu * theta_star
        assert np.linalg.norm(grad) <= 1e-8

        z_all = rf_map.encode_batch(pats)
        model = grf.mkl_from_maps([rf_map], 0.3, mu, "least_squares", None)
        order_rng = np.random.default_rng(7)
        for eta_e, n_epochs in [(0.3, 100), (0.1, 300), (0.03, 600), (0.01, 1000), (0.003, 1500), (0.001, 2500)]:
            model = dataclasses.replace(model, eta=eta_e)
            for _ in range(n_epochs):
                perm = order_rng.permutation(m)
                model, _ = grf.mkl_train(model, list(zip(train[perm], y[perm])))
        rms = float(np.sqrt(np.mean((z_all @ model.thetas[0] - z_all @ theta_star) ** 2)))
        assert rms <= 1e-3


def test_c05_rf_converges_to_exact_kernel_ridge():
    with criterion("C5", "RF ridge approaches exact kernel ridge as D grows", budget_s=60.0):
        spec = grf.KernelSpec("gaussian", 1.0)
        mu = 1e-3
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            g = grf.erdos_renyi(50, 0.2, seed)
            pats = (g.adjacency / np.maximum(np.linalg.norm(g.adjacency, axis=0), 1e-12)).T
            idx = rng.permutation(50)[:30]
            train, y = pats[idx], rng.normal(size=30)
            k_train = grf.eval_kernel_matrix(spec, train, train)
            alpha = grf.batch_kernel_ridge(k_train, y, mu)
            exact = grf.eval_kernel_matrix(spec, pats, train) @ alpha
            gaps = {}
            for d in (50, 2000):
                rf_map = grf.build_map(spec, d, 50, seed=7000 + 10 * seed + (d == 2000))
                theta = batch_rf_ls(rf_map.encode_batch(train), y, mu)
                preds = rf_map.encode_batch(pats) @ theta
                gaps[d] = float(np.sqrt(np.mean((preds - exact) ** 2)))
            wins += gaps[2000] < gaps[50]
        assert wins >= 9


def test_c06_reduction_and_determinism(tmp_path):
    with criterion("C6", "each learner reduces bit-exactly to its one-kernel model; reports reproduce",
                   budget_s=30.0):
        specs = [grf.KernelSpec("gaussian", 2.0), grf.KernelSpec("laplacian", 1.0), grf.KernelSpec("cauchy", 0.5)]
        rng = np.random.default_rng(6)
        for kind in ("least_squares", "hinge", "logistic"):
            labels = rng.normal(size=200) if kind == "least_squares" else rng.choice([-1.0, 1.0], size=200)
            samples = list(zip(rng.random((200, 9)), labels))
            model, traces = grf.mkl_train(grf.mkl_init(specs, 8, 9, 0.4, 1e-3, kind, 42), samples)
            for p, rf_map in enumerate(model.maps):
                single, trace = grf.mkl_train(grf.mkl_from_maps([rf_map], 0.4, 1e-3, kind, None), samples)
                assert np.array_equal(model.thetas[p], single.thetas[0])
                assert np.array_equal(traces.per_kernel_loss[:, p], trace.per_kernel_loss[:, 0])
                assert np.array_equal(trace.combined_loss, trace.per_kernel_loss[:, 0])
                assert np.all(trace.weights == 1.0)

        config = grf.ExperimentConfig(
            n_nodes=60, trials=2, sample_fraction=0.2, d=10,
            methods=("mkl", "knn"), scenario="identity", base_seed=11,
        )
        grf.write_report(grf.run_synthetic(config), tmp_path / "a")
        grf.write_report(grf.run_synthetic(config), tmp_path / "b")
        assert (tmp_path / "a/report.tsv").read_bytes() == (tmp_path / "b/report.tsv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()


def _adaptivity_weight(seed, n_nodes=1050, n_anchor=20, horizon=1000, d=100, eta=0.5):
    """Final weight of the matched kernel on data drawn from it."""
    ss = np.random.SeedSequence([seed]).generate_state(4)
    g = grf.erdos_renyi(n_nodes, 0.2, int(ss[0]))
    anchors = np.arange(n_anchor)
    rest = np.arange(n_anchor, n_nodes)
    pats = g.adjacency[np.ix_(anchors, rest)].T
    truth = grf.KernelSpec("gaussian", 5.0)
    kern = grf.eval_kernel_matrix(truth, pats, pats)
    rng = np.random.default_rng(int(ss[1]))
    x = kern @ rng.uniform(0.5, 1.0, size=rest.size) + rng.normal(0, 0.1, size=rest.size)
    x = (x - x.mean()) / x.std()
    order = np.random.default_rng(int(ss[2])).permutation(rest.size)[:horizon]
    model = grf.mkl_init(
        [grf.KernelSpec("gaussian", 1.0), grf.KernelSpec("gaussian", 5.0)],
        d, n_anchor, eta, 0.0, "least_squares", int(ss[3]),
    )
    model, _ = grf.mkl_train(model, [(pats[i], x[i]) for i in order])
    return float(model.normalized_weights[1])


def test_c07_mkl_adaptivity():
    with criterion("C7", "hedge weight concentrates on the matched kernel", budget_s=60.0):
        wins = sum(_adaptivity_weight(seed) > 0.6 for seed in range(20))
        assert wins >= 16


def test_c08_regret_bound_holds():
    with criterion("C8", "hedge+descent regret bound holds on every run", budget_s=120.0):
        config = grf.ExperimentConfig(
            n_nodes=200, trials=20, regret_T=2000, d=10, eta="auto",
            scenario="diffusion", truth_sigma2=5.0, regret_mu=1e-6,
            kernels=(("gaussian", 1.0), ("gaussian", 5.0)), base_seed=5,
        )
        report = grf.run_regret(config)
        assert report.extras["regret_bound_holds"] is True
        assert all(b["holds"] for b in report.extras["bound_checks"])


def test_c09_sublinear_regret_trend():
    with criterion("C9", "regret grows sublinearly (fitted exponent <= 0.75)", budget_s=120.0):
        config = grf.ExperimentConfig(
            n_nodes=200, trials=10, regret_T=2000, d=10, eta="auto",
            scenario="diffusion", truth_sigma2=5.0, regret_mu=1e-6,
            kernels=(("gaussian", 1.0), ("gaussian", 5.0)), base_seed=5,
        )
        report = grf.run_regret(config)
        mean_exponent = report.extras["mean_fitted_exponent"]
        assert mean_exponent is not None
        assert mean_exponent <= 0.75


def test_c10_newnode_scalability():
    with criterion("C10", "new-node inference scales linearly vs cubic re-solve", budget_s=600.0):
        config = grf.ExperimentConfig(
            scenario="identity", bench_sizes=(500, 1000, 2000), d=100,
            methods=("mkl", "gk_df"), sample_fraction=0.05,
            timing_reps=5, timing_nodes=20, base_seed=3,
        )
        report = grf.bench_newnode(config)
        per = report.extras["per_method"]
        mkl_ratio = per["mkl"]["2000"] / per["mkl"]["500"]
        gk_ratio = per["gk_df"]["2000"] / per["gk_df"]["500"]
        assert mkl_ratio <= 8.0
        assert gk_ratio > mkl_ratio
        assert per["gk_df"]["2000"] / per["mkl"]["2000"] >= 10.0


def test_c11_end_to_end_accuracy():
    with criterion("C11", "online multi-kernel lands near exact ridge, beats k-NN", budget_s=600.0):
        config = grf.ExperimentConfig(
            n_nodes=1000, sample_fraction=0.05, trials=20, d=200,
            scenario="connectivity_anchored", truth_sigma2=5.0, kl_sigma2=5.0,
            normalize_patterns=False, eta=0.5,
            kernels=(("gaussian", 1.0), ("gaussian", 5.0)),
            methods=("mkl", "kl", "knn"), base_seed=11,
        )
        report = grf.run_synthetic(config)
        rows = {r.method: r for r in report.rows}
        assert rows["mkl"].nmse_mean <= 2.0 * rows["kl"].nmse_mean
        assert rows["mkl"].nmse_mean < rows["knn"].nmse_mean


def test_c12_privacy_boundary():
    with criterion("C12", "encodings collide below rank and are all learners see", budget_s=30.0):
        rng = np.random.default_rng(12)
        for d, n in ((3, 10), (5, 40), (20, 64)):
            rf_map = grf.build_map(grf.KernelSpec("gaussian", 1.0), d, n, seed=d)
            a = rng.normal(size=n)
            a2 = null_space_collision(rf_map, a)
            assert np.linalg.norm(a2 - a) > 0
            assert np.linalg.norm(rf_map.encode(a) - rf_map.encode(a2)) <= 1e-10

        # structural: the update path accepts only 2D-dimensional encodings
        rf_map = grf.build_map(grf.KernelSpec("gaussian", 1.0), 4, 10, seed=0)
        model = grf.mkl_from_maps([rf_map], 0.5, 0.0, "least_squares", None)
        with pytest.raises(ValueError):
            grf.mkl_train_encoded(model, np.zeros((1, 1, 10)), [1.0])

        # behavioral: colliding patterns are indistinguishable to training,
        # one kernel and several alike
        rf_map = grf.build_map(grf.KernelSpec("gaussian", 1.0), 3, 12, seed=9)
        a = rng.normal(size=12)
        a2 = null_space_collision(rf_map, a)
        tail = [(rng.normal(size=12), float(rng.normal())) for _ in range(6)]
        one_kernel = grf.mkl_from_maps([rf_map], 0.3, 0.0, "least_squares", None)
        s1, t1 = grf.mkl_train(one_kernel, [(a, 1.0)] + tail)
        s2, t2 = grf.mkl_train(one_kernel, [(a2, 1.0)] + tail)
        assert np.abs(s1.thetas - s2.thetas).max() <= 1e-12
        np.testing.assert_allclose(t1.per_kernel_loss, t2.per_kernel_loss, atol=1e-12)

        # a joint collision against every map in a dictionary fools the
        # multi-kernel learner too
        model = grf.mkl_init([grf.KernelSpec("gaussian", 1.0)] * 2, 3, 12, 0.5, 0.0, "least_squares", 3)
        stacked = np.vstack([m.v_matrix for m in model.maps])
        _, _, vt = np.linalg.svd(stacked)
        joint = a + vt[-1]
        m1, tr1 = grf.mkl_update(model, a, 1.0)
        m2, tr2 = grf.mkl_update(model, joint, 1.0)
        assert abs(tr1.combined_loss[0] - tr2.combined_loss[0]) <= 1e-12
        assert np.abs(m1.thetas - m2.thetas).max() <= 1e-12
