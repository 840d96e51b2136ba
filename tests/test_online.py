import dataclasses
import math

import numpy as np
import pytest

from graphrf import (
    KernelSpec,
    LossKind,
    build_map,
    init_state,
    loss_grad,
    loss_value,
    ogd_step,
    train_stream,
)
from graphrf.features import null_space_collision


def small_map(d=4, n=6, seed=0):
    return build_map(KernelSpec("gaussian", 1.0), d, n, seed=seed)


class TestLossValue:
    def test_ls_zero_at_exact_prediction(self):
        assert loss_value(LossKind("least_squares"), 2.5, 2.5) == 0.0

    def test_hinge_margin_boundary(self):
        hinge = LossKind("hinge")
        assert loss_value(hinge, 1.0, 1.0) == 0.0
        assert loss_value(hinge, 0.0, 1.0) == 1.0

    def test_logistic_at_zero_prediction(self):
        val = loss_value(LossKind("logistic"), 0.0, 1.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_regularizer_added(self):
        loss = LossKind("least_squares", mu=0.5)
        assert loss_value(loss, 1.0, 0.0, theta_norm2=2.0) == pytest.approx(2.0)

    def test_classification_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            loss_value(LossKind("hinge"), 0.0, 0.5)
        with pytest.raises(ValueError, match="labels"):
            loss_value(LossKind("logistic"), 0.0, 2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LossKind("absolute")


class TestLossGrad:
    def test_ls_hand_value(self):
        # theta = 0, y = 1, z = (0, 1): gradient 2 (pred - y) z = (0, -2)
        grad = loss_grad(LossKind("least_squares"), np.array([0.0, 1.0]), np.zeros(2), 1.0)
        np.testing.assert_allclose(grad, [0.0, -2.0], atol=1e-15)

    def test_hinge_inactive_outside_margin(self):
        z = np.array([0.0, 2.0])
        theta = np.array([0.0, 1.0])  # y * theta.z = 2 > 1
        grad = loss_grad(LossKind("hinge"), z, theta, 1.0)
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_hinge_boundary_uses_zero_subgradient(self):
        z = np.array([1.0])
        theta = np.array([1.0])  # margin exactly 1
        grad = loss_grad(LossKind("hinge"), z, theta, 1.0)
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
            grad = loss_grad(loss, z, theta, label)
            fd = np.empty(dim)
            for i in range(dim):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (
                    loss_value(loss, float(np.dot(tp, z)), label, float(np.dot(tp, tp)))
                    - loss_value(loss, float(np.dot(tm, z)), label, float(np.dot(tm, tm)))
                ) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5
            checked += 1

    def test_logistic_stable_at_large_scores(self):
        z = np.array([1.0])
        theta = np.array([500.0])
        for label in (-1.0, 1.0):
            grad = loss_grad(LossKind("logistic"), z, theta, label)
            assert np.all(np.isfinite(grad))


class TestOgdStep:
    def test_hand_computed_update(self):
        m = small_map(d=1, n=2)
        state = dataclasses.replace(init_state(m, eta=0.1, loss=LossKind("least_squares")))
        new = ogd_step(state, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(new.theta, [0.0, 0.2], atol=1e-15)

    def test_zero_gradient_fixed_point(self):
        m = small_map(d=1, n=2)
        state = init_state(m, eta=0.5, loss=LossKind("least_squares"))
        state = dataclasses.replace(state, theta=np.array([0.0, 1.0]))
        new = ogd_step(state, np.array([0.0, 1.0]), 1.0)  # prediction == label
        np.testing.assert_array_equal(new.theta, state.theta)

    def test_degenerate_step_size(self):
        m = small_map(d=2, n=3)
        state = init_state(m, eta=0.0, loss=LossKind("least_squares"))
        z = m.encode(np.ones(3))
        s1 = ogd_step(state, z, 1.0)
        s2 = ogd_step(s1, z, 1.0)
        np.testing.assert_array_equal(s2.theta, np.zeros(4))

    def test_rejects_wrong_length(self):
        m = small_map(d=3, n=5)
        state = init_state(m, eta=0.1, loss=LossKind("least_squares"))
        with pytest.raises(ValueError, match="length"):
            ogd_step(state, np.zeros(5), 1.0)  # raw pattern, not an encoding

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_rejects_divergence(self):
        m = small_map(d=1, n=2)
        state = init_state(m, eta=1e300, loss=LossKind("least_squares"))
        z = np.array([0.0, 1.0])
        state = ogd_step(state, z, 1.0)
        with pytest.raises(FloatingPointError):
            for _ in range(10):
                state = ogd_step(state, z, 1.0)


class TestTrainStream:
    def test_empty_stream(self):
        m = small_map()
        state = init_state(m, eta=0.2, loss=LossKind("least_squares"))
        new, trace = train_stream(state, [], m)
        np.testing.assert_array_equal(new.theta, state.theta)
        assert trace.size == 0

    def test_non_finite_label_rejected(self):
        m = small_map()
        state = init_state(m, eta=0.2, loss=LossKind("least_squares"))
        with pytest.raises(ValueError, match="finite"):
            train_stream(state, [(np.ones(6), 1.0), (np.ones(6), np.nan)], m)

    def test_matches_stepwise_updates(self):
        m = small_map(d=5, n=7, seed=3)
        rng = np.random.default_rng(4)
        pats = rng.random((20, 7))
        ys = rng.normal(size=20)
        state = init_state(m, eta=0.3, loss=LossKind("least_squares", 1e-3))
        streamed, trace = train_stream(state, list(zip(pats, ys)), m)
        stepped = state
        for z, y in zip(m.encode_batch(pats), ys):
            stepped = ogd_step(stepped, z, y)
        assert np.array_equal(streamed.theta, stepped.theta)
        assert trace.size == 20

    def test_constant_stream_loss_non_increasing(self):
        # repeated identical sample under least squares contracts the
        # residual whenever eta is below the unit-curvature bound
        m = small_map(d=6, n=5, seed=5)
        pattern = np.random.default_rng(6).random(5)
        state = init_state(m, eta=0.3, loss=LossKind("least_squares"))
        _, trace = train_stream(state, [(pattern, 2.0)] * 30, m)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_deterministic(self):
        m = small_map(d=4, n=6, seed=7)
        rng = np.random.default_rng(8)
        samples = [(rng.random(6), float(rng.normal())) for _ in range(15)]
        s1, t1 = train_stream(init_state(m, 0.2, LossKind("least_squares")), samples, m)
        s2, t2 = train_stream(init_state(m, 0.2, LossKind("least_squares")), samples, m)
        assert np.array_equal(s1.theta, s2.theta)
        assert np.array_equal(t1, t2)

    def test_trace_is_pre_update_loss(self):
        m = small_map(d=2, n=3, seed=9)
        state = init_state(m, eta=0.5, loss=LossKind("least_squares"))
        _, trace = train_stream(state, [(np.ones(3), 1.0)], m)
        # theta starts at zero so the first recorded loss is exactly y^2
        assert trace[0] == pytest.approx(1.0)

    def test_map_mismatch_rejected(self):
        m1, m2 = small_map(seed=1), small_map(seed=2)
        state = init_state(m1, eta=0.1, loss=LossKind("least_squares"))
        with pytest.raises(ValueError, match="map"):
            train_stream(state, [(np.zeros(6), 0.0)], m2)

    def test_hinge_stream_accepts_binary_labels_only(self):
        m = small_map()
        state = init_state(m, eta=0.1, loss=LossKind("hinge"))
        with pytest.raises(ValueError, match="labels"):
            train_stream(state, [(np.zeros(6), 0.3)], m)

    def test_norm_stays_bounded_with_regularization(self):
        m = small_map(d=8, n=10, seed=10)
        rng = np.random.default_rng(11)
        pats = rng.random((100_000, 10))
        ys = rng.normal(size=100_000)
        state = init_state(m, eta=0.5, loss=LossKind("least_squares", mu=1e-2))
        state, trace = train_stream(state, list(zip(pats, ys)), m)
        assert np.all(np.isfinite(trace))
        assert np.linalg.norm(state.theta) < 1e3


class TestPredict:
    def test_prediction_after_hand_step(self):
        m = small_map(d=1, n=2)
        state = init_state(m, eta=0.1, loss=LossKind("least_squares"))
        state = ogd_step(state, np.array([0.0, 1.0]), 1.0)
        # predicting the same encoded point: theta . z = 0.2
        assert float(np.dot(state.theta, [0.0, 1.0])) == pytest.approx(0.2)


class TestPrivacyBoundary:
    def test_update_path_accepts_encodings_only(self):
        # the state update consumes 2D-dimensional encodings; a raw length-N
        # pattern is rejected whenever N != 2D
        m = small_map(d=4, n=6)
        state = init_state(m, eta=0.1, loss=LossKind("least_squares"))
        with pytest.raises(ValueError):
            ogd_step(state, np.zeros(6), 1.0)

    def test_colliding_patterns_train_identically(self):
        # two different patterns with equal encodings produce bit-identical
        # training runs: only the encoding crosses into the learner
        m = small_map(d=2, n=9, seed=23)
        rng = np.random.default_rng(24)
        a = rng.normal(size=9)
        a2 = null_space_collision(m, a)
        assert np.linalg.norm(a - a2) > 1e-3
        tail = [(rng.normal(size=9), float(rng.normal())) for _ in range(5)]
        s1, t1 = train_stream(init_state(m, 0.3, LossKind("least_squares")), [(a, 1.0)] + tail, m)
        s2, t2 = train_stream(init_state(m, 0.3, LossKind("least_squares")), [(a2, 1.0)] + tail, m)
        close = np.abs(s1.theta - s2.theta).max()
        assert close <= 1e-12
        np.testing.assert_allclose(t1, t2, atol=1e-12)
