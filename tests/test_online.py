import dataclasses
import math

import numpy as np
import pytest

from graphrf import (
    KernelSpec,
    LossKind,
    build_map,
    mkl_encode,
    mkl_from_maps,
    mkl_train,
    mkl_train_encoded,
)
from graphrf._kernels import cost_grad_scale, cost_value
from graphrf.features import null_space_collision


def small_map(d=4, n=6, seed=0):
    return build_map(KernelSpec("gaussian", 1.0), d, n, seed=seed)


def one_kernel(rf_map, eta, kind="least_squares", mu=0.0):
    """A zero P = 1 model: the one-kernel learner over ``rf_map``."""
    return mkl_from_maps([rf_map], eta, mu, kind, None)


def step(model, z, label):
    """One update on one encoded sample."""
    return mkl_train_encoded(model, np.asarray(z, dtype=float)[None, None, :], [label])[0]


def objective(loss, z, theta, label):
    """The regularized loss a learner records: C(z.theta, y) + mu ||theta||^2."""
    return cost_value(loss.kind, np.dot(z, theta), label) + loss.mu * np.dot(theta, theta)


def gradient(loss, z, theta, label):
    """The step a learner descends: C'(z.theta, y) z + 2 mu theta."""
    return cost_grad_scale(loss.kind, np.dot(z, theta), label) * z + 2.0 * loss.mu * theta


class TestLossValue:
    def test_ls_zero_at_exact_prediction(self):
        assert cost_value("least_squares", 2.5, 2.5) == 0.0

    def test_hinge_margin_boundary(self):
        assert cost_value("hinge", 1.0, 1.0) == 0.0
        assert cost_value("hinge", 0.0, 1.0) == 1.0

    def test_logistic_at_zero_prediction(self):
        val = cost_value("logistic", 0.0, 1.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_regularizer_added(self):
        # z.theta = 1 against label 0 and ||theta||^2 = 2: the recorded
        # pre-update loss is 1 + 0.5 * 2
        model = dataclasses.replace(one_kernel(small_map(d=1, n=2), eta=0.1, mu=0.5), thetas=[[1.0, 1.0]])
        _, traces = mkl_train_encoded(model, np.array([[[1.0, 0.0]]]), [0.0])
        assert traces.per_kernel_loss[0, 0] == pytest.approx(2.0)

    def test_classification_label_validation(self):
        z = np.array([[[1.0, 0.0]]])
        with pytest.raises(ValueError, match=r"hinge loss requires labels in \{-1, \+1\}, got 0.5"):
            mkl_train_encoded(one_kernel(small_map(d=1, n=2), 0.1, "hinge"), z, [0.5])
        with pytest.raises(ValueError, match=r"logistic loss requires labels in \{-1, \+1\}, got 2.0"):
            mkl_train_encoded(one_kernel(small_map(d=1, n=2), 0.1, "logistic"), z, [2.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LossKind("absolute")


class TestLossGrad:
    def test_ls_hand_value(self):
        # theta = 0, y = 1, z = (0, 1): gradient 2 (pred - y) z = (0, -2)
        grad = gradient(LossKind("least_squares"), np.array([0.0, 1.0]), np.zeros(2), 1.0)
        np.testing.assert_allclose(grad, [0.0, -2.0], atol=1e-15)

    def test_hinge_inactive_outside_margin(self):
        z = np.array([0.0, 2.0])
        theta = np.array([0.0, 1.0])  # y * theta.z = 2 > 1
        grad = gradient(LossKind("hinge"), z, theta, 1.0)
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_hinge_boundary_uses_zero_subgradient(self):
        z = np.array([1.0])
        theta = np.array([1.0])  # margin exactly 1
        grad = gradient(LossKind("hinge"), z, theta, 1.0)
        np.testing.assert_array_equal(grad, np.zeros(1))

    @pytest.mark.parametrize("kind", ["least_squares", "hinge", "logistic"])
    def test_matches_central_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        loss = LossKind(kind, mu=0.05)
        h = 1e-6
        checked = 0
        while checked < 100:
            dim = int(rng.integers(2, 8))
            z = rng.normal(size=dim)
            theta = rng.normal(size=dim)
            label = 1.0 if kind == "least_squares" else float(rng.choice([-1.0, 1.0]))
            if kind == "least_squares":
                label = float(rng.normal())
            if kind == "hinge" and abs(label * np.dot(theta, z) - 1.0) < 1e-4:
                continue  # finite differences straddle the kink
            grad = gradient(loss, z, theta, label)
            fd = np.empty(dim)
            for i in range(dim):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (objective(loss, z, tp, label) - objective(loss, z, tm, label)) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5
            checked += 1

    @pytest.mark.parametrize("kind", ["least_squares", "hinge", "logistic"])
    def test_one_training_step_descends_this_gradient(self, kind):
        rng = np.random.default_rng(31)
        loss = LossKind(kind, mu=0.05)
        model = dataclasses.replace(one_kernel(small_map(d=5, n=7, seed=32), 0.3, kind, loss.mu),
                                    thetas=rng.normal(size=(1, 10)))
        pattern = rng.random(7)
        label = float(rng.normal()) if kind == "least_squares" else -1.0
        trained, _ = mkl_train(model, [(pattern, label)])
        z = mkl_encode(model, pattern)[0, 0]
        expected = model.thetas[0] - model.eta * gradient(loss, z, model.thetas[0], label)
        np.testing.assert_allclose(trained.thetas[0], expected, rtol=1e-12)

    def test_logistic_stable_at_large_scores(self):
        # exp overflows past about 709.8, so a naive -y / (1 + exp(y s)) raises here
        z = np.array([1.0])
        for score in (1000.0, -1000.0):
            for label in (-1.0, 1.0):
                with np.errstate(over="raise", invalid="raise"):
                    grad = gradient(LossKind("logistic"), z, np.array([score]), label)
                assert np.all(np.isfinite(grad))


class TestOgdStep:
    def test_hand_computed_update(self):
        m = small_map(d=1, n=2)
        new = step(one_kernel(m, eta=0.1), [0.0, 1.0], 1.0)
        np.testing.assert_allclose(new.thetas[0], [0.0, 0.2], atol=1e-15)

    def test_zero_gradient_fixed_point(self):
        m = small_map(d=1, n=2)
        model = dataclasses.replace(one_kernel(m, eta=0.5), thetas=[[0.0, 1.0]])
        new = step(model, [0.0, 1.0], 1.0)  # prediction == label
        np.testing.assert_array_equal(new.thetas, model.thetas)

    def test_rejects_wrong_length(self):
        m = small_map(d=3, n=5)
        with pytest.raises(ValueError, match="shape"):
            step(one_kernel(m, eta=0.1), np.zeros(5), 1.0)  # raw pattern, not an encoding


class TestTrainStream:
    def test_empty_stream(self):
        model = one_kernel(small_map(), eta=0.2)
        new, traces = mkl_train(model, [])
        np.testing.assert_array_equal(new.thetas, model.thetas)
        assert traces.n_steps == 0

    def test_non_finite_label_rejected(self):
        model = one_kernel(small_map(), eta=0.2)
        with pytest.raises(ValueError, match="finite"):
            mkl_train(model, [(np.ones(6), 1.0), (np.ones(6), np.nan)])

    def test_matches_stepwise_updates(self):
        model = one_kernel(small_map(d=5, n=7, seed=3), eta=0.3, mu=1e-3)
        rng = np.random.default_rng(4)
        pats = rng.random((20, 7))
        ys = rng.normal(size=20)
        streamed, traces = mkl_train(model, list(zip(pats, ys)))
        stepped = model
        for z, y in zip(mkl_encode(model, pats)[0], ys):
            stepped = step(stepped, z, y)
        assert np.array_equal(streamed.thetas, stepped.thetas)
        assert traces.n_steps == 20

    def test_constant_stream_loss_non_increasing(self):
        # repeated identical sample under least squares contracts the
        # residual whenever eta is below the unit-curvature bound
        model = one_kernel(small_map(d=6, n=5, seed=5), eta=0.3)
        pattern = np.random.default_rng(6).random(5)
        _, traces = mkl_train(model, [(pattern, 2.0)] * 30)
        assert np.all(np.diff(traces.per_kernel_loss[:, 0]) <= 1e-12)

    def test_deterministic(self):
        m = small_map(d=4, n=6, seed=7)
        rng = np.random.default_rng(8)
        samples = [(rng.random(6), float(rng.normal())) for _ in range(15)]
        m1, t1 = mkl_train(one_kernel(m, 0.2), samples)
        m2, t2 = mkl_train(one_kernel(m, 0.2), samples)
        assert np.array_equal(m1.thetas, m2.thetas)
        assert np.array_equal(t1.per_kernel_loss, t2.per_kernel_loss)

    def test_trace_is_pre_update_loss(self):
        model = one_kernel(small_map(d=2, n=3, seed=9), eta=0.5)
        _, traces = mkl_train(model, [(np.ones(3), 1.0)])
        # theta starts at zero so the first recorded loss is exactly y^2
        assert traces.per_kernel_loss[0, 0] == pytest.approx(1.0)

    def test_hinge_stream_accepts_binary_labels_only(self):
        model = one_kernel(small_map(), eta=0.1, kind="hinge")
        with pytest.raises(ValueError, match="labels"):
            mkl_train(model, [(np.zeros(6), 0.3)])

    def test_norm_stays_bounded_with_regularization(self):
        model = one_kernel(small_map(d=8, n=10, seed=10), eta=0.5, mu=1e-2)
        rng = np.random.default_rng(11)
        pats = rng.random((100_000, 10))
        ys = rng.normal(size=100_000)
        model, traces = mkl_train(model, list(zip(pats, ys)))
        assert np.all(np.isfinite(traces.per_kernel_loss))
        assert np.linalg.norm(model.thetas[0]) < 1e3


class TestPredict:
    def test_prediction_after_hand_step(self):
        model = step(one_kernel(small_map(d=1, n=2), eta=0.1), [0.0, 1.0], 1.0)
        # predicting the same encoded point: theta . z = 0.2
        assert float(np.dot(model.thetas[0], [0.0, 1.0])) == pytest.approx(0.2)


class TestPrivacyBoundary:
    def test_update_path_accepts_encodings_only(self):
        # the update consumes 2D-dimensional encodings; a raw length-N
        # pattern is rejected whenever N != 2D
        model = one_kernel(small_map(d=4, n=6), eta=0.1)
        with pytest.raises(ValueError):
            step(model, np.zeros(6), 1.0)

    def test_colliding_patterns_train_identically(self):
        # two different patterns with equal encodings produce bit-identical
        # training runs: only the encoding crosses into the learner
        m = small_map(d=2, n=9, seed=23)
        rng = np.random.default_rng(24)
        a = rng.normal(size=9)
        a2 = null_space_collision(m, a)
        assert np.linalg.norm(a - a2) > 1e-3
        tail = [(rng.normal(size=9), float(rng.normal())) for _ in range(5)]
        m1, t1 = mkl_train(one_kernel(m, 0.3), [(a, 1.0)] + tail)
        m2, t2 = mkl_train(one_kernel(m, 0.3), [(a2, 1.0)] + tail)
        close = np.abs(m1.thetas - m2.thetas).max()
        assert close <= 1e-12
        np.testing.assert_allclose(t1.per_kernel_loss, t2.per_kernel_loss, atol=1e-12)
