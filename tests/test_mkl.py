import base64
import json
import math
import re
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrf import (
    KernelSpec,
    LossKind,
    MklModel,
    load_mkl_checkpoint,
    mkl_init,
    mkl_predict,
    mkl_train,
    mkl_update,
    save_mkl_checkpoint,
)
from graphrf import _kernels
from graphrf.features import _HEADER, _MAGIC, RFMap, _map_bytes, build_map, project_stacked
from graphrf.harness import _prefix_oracle_losses, fit_growth_exponent
from graphrf.mkl import (
    absorb_new_node_mkl,
    mkl_encode,
    mkl_from_maps,
    mkl_predict_batch,
    mkl_predict_encoded,
    mkl_train_encoded,
)


def _b64_doubles(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def flat_map():
    """Map with V = 0 so every pattern encodes to (0, 1): handy for hand math."""
    return RFMap(v_matrix=np.zeros((1, 3)), kernel=KernelSpec("gaussian", 1.0), seed=0)


def manual_model(thetas, log_weights, eta=0.5, mu=0.0):
    return MklModel(
        maps=tuple(flat_map() for _ in thetas),
        thetas=np.asarray(thetas, dtype=float),
        log_weights=np.asarray(log_weights, dtype=float),
        eta=eta,
        loss=LossKind("least_squares", mu),
    )


class TestInit:
    def test_single_kernel_weight_is_one(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)], 4, 6, 0.5, 0.0, "least_squares", 0)
        assert model.normalized_weights == pytest.approx([1.0])

    def test_two_kernels_start_uniform(self):
        model = mkl_init(
            [KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 5.0)],
            4, 6, 0.5, 0.0, "least_squares", 0,
        )
        np.testing.assert_allclose(model.normalized_weights, [0.5, 0.5])

    def test_thetas_start_at_zero(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 3, 4, 6, 0.5, 0.0, "least_squares", 0)
        assert np.array_equal(model.thetas, np.zeros((3, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="learner weights must be finite"):
            manual_model(thetas=[[0.0, 1.0], [bad, 1.0]], log_weights=[0.0, 0.0])

    def test_maps_use_independent_seeds(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 6, 0.5, 0.0, "least_squares", 0)
        assert not np.array_equal(model.maps[0].v_matrix, model.maps[1].v_matrix)

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            mkl_init([], 4, 6, 0.5, 0.0, "least_squares", 0)

    def test_eta_range(self):
        with pytest.raises(ValueError):
            mkl_init([KernelSpec("gaussian", 1.0)], 4, 6, 1.5, 0.0, "least_squares", 0)

    @pytest.mark.parametrize(
        "shapes, message",
        [(((4, 6), (5, 6)), "same D, got 4 and 5"), (((4, 6), (4, 7)), "same N, got 6 and 7")],
    )
    def test_maps_of_different_shape_rejected(self, shapes, message):
        maps = [build_map(KernelSpec("gaussian", 1.0), d, n, seed) for seed, (d, n) in enumerate(shapes)]
        with pytest.raises(ValueError, match=message):
            mkl_from_maps(maps, 0.5, 0.0, "least_squares", 0)

    def test_loss_is_given_by_name(self):
        maps = [build_map(KernelSpec("gaussian", 1.0), 4, 6, 0)]
        with pytest.raises(ValueError, match="unknown loss kind"):
            mkl_from_maps(maps, 0.5, 0.0, LossKind("hinge", 0.7), 0)
        assert mkl_from_maps(maps, 0.5, 1e-3, "hinge", 0).loss == LossKind("hinge", 1e-3)

    def test_a_loss_that_is_not_a_loss_kind_is_refused(self):
        maps = (build_map(KernelSpec("gaussian", 1.0), 4, 6, 0),)
        with pytest.raises(ValueError, match="loss must be a LossKind, got 'least_squares'"):
            MklModel(maps, np.zeros((1, 8)), np.zeros(1), 0.5, "least_squares")

    def test_a_numpy_integer_seed_is_stored_as_int_and_saves(self, tmp_path):
        model = mkl_init([KernelSpec("gaussian", 1.0)], 4, 6, 0.5, 0.0, "least_squares", np.int64(3))
        assert type(model.seed) is int and model.seed == 3
        same = mkl_init([KernelSpec("gaussian", 1.0)], 4, 6, 0.5, 0.0, "least_squares", 3)
        assert np.array_equal(model.maps[0].v_matrix, same.maps[0].v_matrix)
        save_mkl_checkpoint(model, tmp_path / "mkl.json")
        assert load_mkl_checkpoint(tmp_path / "mkl.json").seed == 3

    @pytest.mark.parametrize("seed", ["x", True, np.bool_(False), 3.0])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        maps = [build_map(KernelSpec("gaussian", 1.0), 4, 6, 0)]
        with pytest.raises(ValueError, match="seed must be an integer or None"):
            mkl_from_maps(maps, 0.5, 0.0, "least_squares", seed)

    @pytest.mark.parametrize("seed", ["x", -1, np.int64(-1), True, None, 3.0])
    def test_init_refuses_a_seed_that_seeds_no_maps(self, seed):
        # checked before the per-map seeds are derived, whose errors name no field
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
            mkl_init([KernelSpec("gaussian", 1.0)], 4, 6, 0.5, 0.0, "least_squares", seed)

    def test_simplex_holds_during_training(self):
        model = mkl_init([KernelSpec("gaussian", b) for b in (1.0, 2.0, 5.0)],
                         4, 6, 0.9, 0.0, "least_squares", 1)
        rng = np.random.default_rng(2)
        for _ in range(30):
            model, _ = mkl_update(model, rng.random(6), float(rng.normal()))
            wbar = model.normalized_weights
            assert np.all(wbar >= 0)
            assert wbar.sum() == pytest.approx(1.0, abs=1e-12)


class TestPredict:
    def test_zero_thetas_predict_zero(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 6, 0.5, 0.0, "least_squares", 3)
        assert mkl_predict(model, np.ones(6)) == 0.0

    def test_hand_computed_convex_combination(self):
        # per-kernel predictions (1, 3) with normalized weights (0.25, 0.75)
        model = manual_model(
            thetas=[[0.0, 1.0], [0.0, 3.0]],
            log_weights=[math.log(1.0), math.log(3.0)],
        )
        assert mkl_predict(model, np.zeros(3)) == pytest.approx(2.5, abs=1e-12)

    def test_prediction_inside_convex_hull(self):
        rng = np.random.default_rng(4)
        model = manual_model(
            thetas=rng.normal(size=(3, 2)),
            log_weights=rng.normal(size=3),
        )
        a = np.zeros(3)
        per_kernel = model.thetas @ [0.0, 1.0]
        combined = mkl_predict(model, a)
        assert min(per_kernel) - 1e-12 <= combined <= max(per_kernel) + 1e-12

    def test_batch_matches_scalar(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 5, 7, 0.5, 0.0, "least_squares", 5)
        rng = np.random.default_rng(6)
        model, _ = mkl_train(model, [(rng.random(7), float(rng.normal())) for _ in range(10)])
        pats = rng.random((4, 7))
        batch = mkl_predict_batch(model, pats)
        for i in range(4):
            assert batch[i] == pytest.approx(mkl_predict(model, pats[i]), abs=1e-12)


class TestUpdate:
    def test_hand_computed_weight_update(self):
        # clipped losses (1, 0) at eta = 0.5 from uniform weights leave the
        # loser at e^{-1/2} / (1 + e^{-1/2}) =~ 0.377541
        model = manual_model(
            thetas=[[0.0, 0.0], [0.0, 1.0]],  # predictions 0 and 1
            log_weights=[math.log(0.5), math.log(0.5)],
        )
        model, traces = mkl_update(model, np.zeros(3), label=1.0)
        np.testing.assert_allclose(traces.per_kernel_loss[0], [1.0, 0.0], atol=1e-15)
        assert model.normalized_weights[0] == pytest.approx(0.37754066879814546, abs=1e-12)

    def test_equal_losses_leave_weights_unchanged(self):
        model = manual_model(
            thetas=[[0.0, 1.0], [0.0, 1.0]],
            log_weights=[math.log(0.3), math.log(0.7)],
        )
        before = model.normalized_weights.copy()
        model, _ = mkl_update(model, np.zeros(3), label=0.0)
        np.testing.assert_allclose(model.normalized_weights, before, atol=1e-12)

    def test_persistently_better_kernel_gains_monotonically(self):
        model = manual_model(
            thetas=[[0.0, 0.8], [0.0, 0.0]],  # first kernel always closer to label 1
            log_weights=[0.0, 0.0],
            eta=0.5,
            mu=0.0,
        )
        weights = []
        for _ in range(10):
            new_model, _ = mkl_update(model, np.zeros(3), label=1.0)
            weights.append(new_model.normalized_weights[0])
            model = MklModel(
                maps=model.maps,
                thetas=model.thetas,  # reset thetas, keep the new weights
                log_weights=new_model.log_weights,
                eta=model.eta,
                loss=model.loss,
            )
        assert all(b > a for a, b in zip(weights, weights[1:]))

    def test_traces_hold_one_step_of_the_absorb_update(self):
        rng = np.random.default_rng(12)
        model = mkl_init([KernelSpec("gaussian", b) for b in (1.0, 5.0)], 4, 6, 0.5, 1e-3, "least_squares", 13)
        model, _ = mkl_train(model, [(rng.random(6), float(rng.normal())) for _ in range(5)])
        a, y = rng.random(6), float(rng.normal())
        updated, traces = mkl_update(model, a, y)
        prediction, absorbed = absorb_new_node_mkl(model, a, y)
        assert traces.n_steps == 1
        assert traces.per_kernel_loss.shape == traces.weights.shape == (1, 2)
        assert traces.prediction[0] == prediction
        assert np.array_equal(updated.thetas, absorbed.thetas)
        assert np.array_equal(updated.log_weights, absorbed.log_weights)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(7)
        base = manual_model(thetas=rng.normal(size=(2, 2)), log_weights=[0.1, -0.4])
        scaled = MklModel(
            maps=base.maps,
            thetas=base.thetas,
            log_weights=base.log_weights + 7.3,  # multiply weights by e^7.3
            eta=base.eta,
            loss=base.loss,
        )
        a = np.zeros(3)
        assert mkl_predict(base, a) == pytest.approx(mkl_predict(scaled, a), abs=1e-12)
        b1, _ = mkl_update(base, a, 1.0)
        b2, _ = mkl_update(scaled, a, 1.0)
        np.testing.assert_allclose(b1.normalized_weights, b2.normalized_weights, atol=1e-12)


def _left_to_right_weights(log_weights):
    """exp(w - max w) / sum, with the maximum and the sum taken entry by entry
    from the left: the hedge's fold order over the kernel axis."""
    top = log_weights[0]
    for w in log_weights[1:]:
        top = w if w >= top else top
    scale = np.exp(np.array([w - top for w in log_weights]))
    total = 0.0
    for s in scale.tolist():
        total += s
    return scale / total


_LOG_WEIGHT = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-700.0, 700.0))


@given(st.integers(1, 19).flatmap(lambda p: st.one_of(
    st.lists(_LOG_WEIGHT, min_size=p, max_size=p),
    st.floats(0.0, 700.0).flatmap(lambda spread: st.lists(st.floats(-spread, 0.0), min_size=p, max_size=p)),
    st.just([-0.0] * p),
)))
@settings(max_examples=400, deadline=None)
def test_normalized_weights_fold_the_kernel_axis_left_to_right(log_weights):
    # one to 19 kernels (numpy's own sum turns pairwise from 8 entries),
    # 0.0 and -0.0 ties, all -0.0 rows and spreads up to 700
    model = manual_model(thetas=[[0.0, 0.0]] * len(log_weights), log_weights=log_weights)
    expected = _left_to_right_weights(log_weights)
    assert model.normalized_weights.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestTrain:
    def _stream(self, n=7, steps=25, seed=8):
        rng = np.random.default_rng(seed)
        return [(rng.random(n), float(rng.normal())) for _ in range(steps)]

    def test_single_kernel_reduces_to_plain_learner(self):
        # each learner trains as the one-kernel model over its map alone,
        # whose combined loss is its learner's and whose weight stays 1
        specs = [KernelSpec("gaussian", 2.0), KernelSpec("laplacian", 1.0)]
        samples = self._stream()
        model, traces = mkl_train(mkl_init(specs, 6, 7, 0.4, 1e-3, "least_squares", 42), samples)
        for p, rf_map in enumerate(model.maps):
            single, trace = mkl_train(mkl_from_maps([rf_map], 0.4, 1e-3, "least_squares", None), samples)
            assert np.array_equal(traces.per_kernel_loss[:, p], trace.per_kernel_loss[:, 0])
            assert np.array_equal(model.thetas[p], single.thetas[0])
            assert np.array_equal(trace.combined_loss, trace.per_kernel_loss[:, 0])
            assert np.all(trace.weights == 1.0)

    def test_deterministic_bit_identical(self):
        specs = [KernelSpec("gaussian", 1.0), KernelSpec("laplacian", 1.0)]
        samples = self._stream(seed=9)
        m1, t1 = mkl_train(mkl_init(specs, 5, 7, 0.5, 0.0, "least_squares", 7), samples)
        m2, t2 = mkl_train(mkl_init(specs, 5, 7, 0.5, 0.0, "least_squares", 7), samples)
        assert np.array_equal(t1.combined_loss, t2.combined_loss)
        assert np.array_equal(t1.per_kernel_loss, t2.per_kernel_loss)
        assert np.array_equal(t1.weights, t2.weights)
        assert np.array_equal(m1.thetas, m2.thetas)

    def test_recorded_losses_are_pre_update(self):
        spec = KernelSpec("gaussian", 1.0)
        model = mkl_init([spec, spec], 4, 5, 0.5, 0.0, "least_squares", 10)
        _, traces = mkl_train(model, [(np.ones(5), 3.0)])
        # zero initialization means the first combined loss is exactly y^2
        assert traces.combined_loss[0] == pytest.approx(9.0)
        np.testing.assert_allclose(traces.weights[0], [0.5, 0.5])

    def test_absorb_new_node(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 5, 0.5, 0.0, "least_squares", 13)
        pred, same = absorb_new_node_mkl(model, np.ones(5))
        assert pred == 0.0
        assert same is model
        pred2, updated = absorb_new_node_mkl(model, np.ones(5), label=1.0)
        assert updated is not model
        assert mkl_predict(updated, np.ones(5)) != 0.0

    def test_labelled_join_moves_the_prediction_toward_the_label(self):
        model = mkl_init([KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 3.0)], 4, 6, 0.1, 0.0,
                         "least_squares", 24)
        a = np.random.default_rng(25).random(6)
        before, updated = absorb_new_node_mkl(model, a, 2.0)
        assert abs(mkl_predict(updated, a) - 2.0) < abs(before - 2.0)

    def test_absorb_encodes_once_per_map(self, monkeypatch):
        # one call of the fused encoder covers every map; no per-map encoding
        import graphrf.mkl

        specs = [KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 5.0), KernelSpec("laplacian", 1.0)]
        model = mkl_init(specs, 4, 6, 0.5, 1e-3, "least_squares", 14)
        fused, per_map = [], []
        encode_stacked, encode_batch = graphrf.mkl.encode_stacked, RFMap.encode_batch

        def counting_fused(v_block, patterns):
            fused.append(v_block.shape)
            return encode_stacked(v_block, patterns)

        def counting_per_map(self, patterns):
            per_map.append(self.ref)
            return encode_batch(self, patterns)

        monkeypatch.setattr(graphrf.mkl, "encode_stacked", counting_fused)
        monkeypatch.setattr(RFMap, "encode_batch", counting_per_map)
        pattern = np.random.default_rng(15).random(6)
        for label in (None, 0.7, None):
            fused.clear()
            _, model = absorb_new_node_mkl(model, pattern, label)
            assert fused == [(3, 4, 6)]
        assert per_map == []

    def test_batch_scoring_holds_one_map_encoding_at_a_time(self):
        # the fused (P, T, 2D) block, or one map's encoding kept alive while
        # the next is drawn, would take the peak past two encodings
        specs = [KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 5.0), KernelSpec("laplacian", 1.0)]
        model = mkl_init(specs, 100, 50, 0.5, 1e-3, "least_squares", 14)
        patterns = np.random.default_rng(15).random((2000, 50))
        one_encoding = patterns.shape[0] * 2 * model.maps[0].d * 8
        tracemalloc.start()
        try:
            mkl_predict_batch(model, patterns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * one_encoding

    def test_each_entry_point_makes_one_stream_pass(self, monkeypatch):
        # mkl.py calls the kernel through the module, so a wrapper set on
        # graphrf._kernels (as the benchmark's tracer sets one) sees every pass
        import graphrf._kernels

        calls = []
        mkl_stream = graphrf._kernels.mkl_stream

        def counting(zs, *args):
            calls.append(zs.shape)
            return mkl_stream(zs, *args)

        monkeypatch.setattr(graphrf._kernels, "mkl_stream", counting)
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 6, 0.5, 1e-3, "least_squares", 15)
        rng = np.random.default_rng(16)
        model, _ = mkl_train(model, [(rng.random(6), float(rng.normal())) for _ in range(5)])
        assert calls == [(2, 5, 8)]
        model, _ = mkl_update(model, rng.random(6), 0.3)
        assert calls[1:] == [(2, 1, 8)]
        _, model = absorb_new_node_mkl(model, rng.random(6))
        assert len(calls) == 2
        _, model = absorb_new_node_mkl(model, rng.random(6), -0.4)
        assert calls[2:] == [(2, 1, 8)]

    def test_labelled_join_returns_read_only_arrays(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 5, 0.5, 1e-3, "least_squares", 21)
        _, model = absorb_new_node_mkl(model, np.ones(5), 0.4)
        _, model = absorb_new_node_mkl(model, np.full(5, 0.5), -0.2)
        for array in (model.log_weights, model.thetas):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_diverging_join_raises(self):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 5, 1.0, 0.0, "least_squares", 22)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            absorb_new_node_mkl(model, np.ones(5), 1e308)

    @pytest.mark.parametrize("shape", [(2, 5), (1, 5), (1, 1, 5)])
    def test_join_refuses_a_connectivity_that_is_not_1d(self, shape):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 5, 0.5, 0.0, "least_squares", 23)
        for label in (None, 0.5):
            with pytest.raises(ValueError, match=r"1-d.*" + re.escape(str(shape))):
                absorb_new_node_mkl(model, np.ones(shape), label)

    def test_absorb_scores_the_same_with_or_without_label(self):
        # the score-only sum mirrors the stream kernel's arithmetic, so a
        # labelled join's pre-update prediction is the score-only one exactly
        rng = np.random.default_rng(16)
        families = ("gaussian", "laplacian", "cauchy")
        for n_kernels, (d, n) in zip((1, 2, 3, 8, 12), ((5, 6), (20, 7), (12, 30), (8, 16), (16, 9))):
            specs = [KernelSpec(families[p % 3], 0.5 + p) for p in range(n_kernels)]
            model = mkl_init(specs, d, n, 0.5, 1e-3, "least_squares", 17)
            model, _ = mkl_train(model, [(rng.random(n), float(rng.normal())) for _ in range(30)])
            for pattern in rng.random((20, n)):
                scored, same = absorb_new_node_mkl(model, pattern)
                absorbed, _ = absorb_new_node_mkl(model, pattern, 0.3)
                assert same is model
                assert scored == absorbed, (n_kernels, d, n)
                assert scored == pytest.approx(mkl_predict(model, pattern), rel=1e-12)

    def test_absorbing_a_stream_matches_one_training_pass(self):
        # per-node absorbs encode one row at a time (gemv) and update the
        # hedge weights step by step; one pass encodes the whole stream (gemm)
        # and replays the weights at once.  Over these 2,000 steps the two end
        # about 2e-15 apart, a thousandth of the tolerance.
        specs = [KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 5.0)]
        rng = np.random.default_rng(18)
        pats = (rng.random((2000, 20)) < 0.2).astype(float)
        ys = rng.normal(size=2000)
        model = mkl_init(specs, 20, 20, 0.5, 1e-6, "least_squares", 19)
        absorbed = model
        for a, y in zip(pats, ys):
            _, absorbed = absorb_new_node_mkl(absorbed, a, float(y))
        trained, _ = mkl_train(model, list(zip(pats, ys)))
        np.testing.assert_allclose(absorbed.thetas, trained.thetas, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(
            absorbed.normalized_weights, trained.normalized_weights, rtol=1e-11, atol=1e-13
        )


def _frozen_absorb(v_block, eta, loss, thetas, logw, pattern, label):
    """A labelled or score-only join as the general stream computes it:
    learner_block's and the vectorised hedge replay's numpy operations in
    their order, kept here so that the join's one-step path is held to them.
    Returns (prediction, thetas, log-weights)."""
    d = v_block.shape[1]
    x = np.matmul(pattern[None, :], v_block.transpose(0, 2, 1))
    zs = np.empty((v_block.shape[0], 1, 2 * d))
    np.sin(x, out=zs[..., :d])
    np.cos(x, out=zs[..., d:])
    zs *= d**-0.5
    if label is None:
        preds = (thetas * zs[:, 0]).sum(axis=1)
        w = np.exp(logw - logw.max())
        return float(((w / w.sum()) * preds).sum()), thetas, logw
    thetas, logw, ys = thetas.copy(), logw.copy(), np.array([label])
    work = np.empty((2,) + thetas.shape)
    theta = work[1]
    theta[:] = thetas
    z = zs[:, 0]
    work[0] = z
    dots = (work * theta).sum(axis=2)
    g = _kernels.cost_grad_scale(loss.kind, dots[0], ys[0])
    grad = g.reshape((-1, 1)) * z
    grad += 2.0 * loss.mu * theta
    grad *= eta
    theta -= grad
    per_kernel = _kernels.cost_value(loss.kind, dots[None, 0], ys[:, None]) + loss.mu * dots[None, 1]
    hist = np.empty((2, logw.size))
    hist[0] = logw
    after = hist[1:]
    np.minimum(np.maximum(per_kernel, 0.0, out=after), 1.0, out=after)
    np.add.accumulate(after, axis=0, out=after)
    after *= eta
    np.subtract(logw, after, out=after)
    hist -= np.maximum.reduce(hist, axis=1, keepdims=True)
    weights = np.exp(hist[:-1])
    weights /= np.add.reduce(weights, axis=1, keepdims=True)
    f_hat = np.add.reduce(weights * dots[None, 0], axis=1)
    return float(f_hat[0]), theta.copy(), hist[-1].copy()


class TestOneStepJoin:
    @pytest.mark.parametrize(
        "loss, n_kernels", [("least_squares", 2), ("least_squares", 5), ("hinge", 3), ("logistic", 2)]
    )
    def test_chained_joins_are_the_frozen_arithmetic_bit_for_bit(self, loss, n_kernels):
        # 500 joins, a quarter of them score-only, each on the model the last
        # one returned, against a frozen copy of the general path's arithmetic
        specs = [KernelSpec(("gaussian", "laplacian", "cauchy")[p % 3], 1.0 + 2 * p) for p in range(n_kernels)]
        rng = np.random.default_rng(23)
        pats = (rng.random((500, 20)) < 0.2).astype(float)
        labels = rng.normal(size=500) if loss == "least_squares" else rng.choice([-1.0, 1.0], size=500)
        labelled = rng.random(500) >= 0.25
        model = mkl_init(specs, 30, 20, 0.5, 1e-6, loss, 24)
        thetas, logw = model.thetas, model.log_weights
        for pattern, label, absorb in zip(pats, labels, labelled):
            label = float(label) if absorb else None
            expected, thetas, logw = _frozen_absorb(
                model._v_block, model.eta, model.loss, thetas, logw, pattern, label
            )
            prediction, model = absorb_new_node_mkl(model, pattern, label)
            assert prediction == expected
            assert model.thetas.tobytes() == thetas.tobytes()
            assert model.log_weights.tobytes() == logw.tobytes()
            assert not (model.thetas.flags.writeable or model.log_weights.flags.writeable)

    @pytest.mark.parametrize("loss", _kernels.LOSS_KINDS)
    def test_chained_joins_over_9_kernels_are_the_general_path_bit_for_bit(self, loss):
        # 200 joins, a quarter of them score-only, each on the model the last
        # one returned, through the one-step branch, against the stream with
        # that branch declined; a score-only join is held to the pre-update
        # prediction of the labelled one
        specs = [KernelSpec(("gaussian", "laplacian", "cauchy")[p % 3], 1.0 + 2 * p) for p in range(9)]
        rng = np.random.default_rng(26)
        pats = (rng.random((200, 20)) < 0.2).astype(float)
        labels = rng.normal(size=200) if loss == "least_squares" else rng.choice([-1.0, 1.0], size=200)
        labelled = rng.random(200) >= 0.25
        model = mkl_init(specs, 30, 20, 0.5, 1e-6, loss, 27)
        for pattern, label, absorb in zip(pats, labels, labelled):
            with mock.patch.object(_kernels, "_one_step", lambda *args: None):
                expected, general = absorb_new_node_mkl(model, pattern, float(label))
            with mock.patch.object(_kernels, "learner_block", None):
                prediction, model = absorb_new_node_mkl(model, pattern, float(label) if absorb else None)
            assert np.float64(prediction).tobytes() == np.float64(expected).tobytes()
            if absorb:
                assert model.thetas.tobytes() == general.thetas.tobytes()
                assert model.log_weights.tobytes() == general.log_weights.tobytes()

    @pytest.mark.parametrize(
        "loss, label",
        [("least_squares", np.nan), ("least_squares", np.inf), ("least_squares", "x"),
         ("least_squares", [0.5]), ("least_squares", np.array([1.0, -1.0])), ("hinge", 0.5), ("hinge", np.nan)],
        ids=["nan", "inf", "text", "list", "array", "hinge_half", "hinge_nan"],
    )
    def test_a_join_refuses_a_label_as_a_training_pass_does(self, loss, label):
        model = mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 5, 0.5, 1e-3, loss, 25)
        pattern = np.full(5, 0.5)
        with pytest.raises(ValueError) as trained:
            mkl_train_encoded(model, mkl_encode(model, pattern[None, :]), [label])
        with pytest.raises(ValueError, match=f"^{re.escape(str(trained.value))}$"):
            absorb_new_node_mkl(model, pattern, label)


class TestNonFiniteInput:
    def model(self):
        return mkl_init([KernelSpec("gaussian", 1.0)] * 2, 4, 5, 0.5, 0.0, "least_squares", 20)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_label_rejected(self, bad):
        samples = [(np.ones(5), 1.0), (np.ones(5), bad)]
        with pytest.raises(ValueError, match="finite"):
            mkl_train(self.model(), samples)

    @pytest.mark.parametrize(
        "loss,bad,message",
        [
            ("least_squares", np.nan, "labels must be finite, got nan"),
            ("hinge", 0.5, "hinge loss requires labels in {-1, +1}, got 0.5"),
            ("logistic", -np.inf, "labels must be finite, got -inf"),
        ],
    )
    def test_first_bad_label_of_a_long_stream_is_named(self, loss, bad, message):
        # the labels are checked as one array; the error names the first bad
        # one exactly as the per-label check words it, not a later one
        model = mkl_init([KernelSpec("gaussian", 1.0)], 2, 3, 0.5, 0.0, loss, 21)
        labels = np.where(np.arange(2000) % 2 == 0, 1.0, -1.0)
        labels[1000] = bad
        labels[1500] = 7.0
        zs = mkl_encode(model, np.ones((labels.size, 3)))
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            mkl_train_encoded(model, zs, labels)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()])
    def test_labels_that_are_not_1d_refused(self, shape):
        model = self.model()
        n_steps = int(np.prod(shape))
        zs = mkl_encode(model, np.ones((n_steps, 5)))
        with pytest.raises(ValueError, match=r"1-d.*" + re.escape(str(shape))):
            mkl_train_encoded(model, zs, np.full(shape, 0.5))

    def test_pattern_rejected_by_batch_prediction(self):
        pats = np.ones((3, 5))
        pats[2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mkl_predict_batch(self.model(), pats)


# a graphrf-mkl-v2 file saved by an earlier release: two kernels, D = 4,
# N = 6, after five training steps
GOLDEN_V2 = Path(__file__).parent / "data" / "mkl_v2.json"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The bytes of TestCheckpoint's saved file, and its directory."""
    _, path = TestCheckpoint().saved(tmp_path_factory.mktemp("checkpoint"))
    return path.read_bytes(), path.parent


class TestCheckpoint:
    # a file cut at any byte, or with any one byte replaced, must load to a
    # usable model or be refused with a ValueError (json's and the UTF-8
    # decoder's errors are ValueErrors too), and raise nothing else
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_truncated_or_changed_file_loads_or_is_refused(self, checkpoint, data):
        raw, directory = checkpoint
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            changed = raw[:at]
        else:
            changed = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at + 1 :]
        path = directory / "changed.json"
        path.write_bytes(changed)
        try:
            loaded = load_mkl_checkpoint(path)
        except ValueError:
            return
        for a in (loaded.thetas, loaded.log_weights, *(m.v_matrix for m in loaded.maps)):
            assert np.isfinite(a).all() and not a.flags.writeable

    def test_golden_v2_file_loads_scores_and_resaves_unchanged(self, tmp_path):
        model = load_mkl_checkpoint(GOLDEN_V2)
        assert model.thetas.shape == (2, 8)
        probe = np.array([[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], [0.5, 0, 0.25, 1, 0, 0.75]], dtype=float)
        recorded = ["0x1.3948937a66614p-2", "-0x1.4e135dd9b29d4p-4", "-0x1.f68b65b86a3e4p-3"]
        scores = mkl_predict_batch(model, probe)
        assert scores.tolist() == [float.fromhex(h) for h in recorded]
        # the amplitude-phase scorer stays within rounding of scoring the encodings
        assert np.abs(scores - mkl_predict_encoded(model, mkl_encode(model, probe))).max() <= 1e-15
        save_mkl_checkpoint(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == GOLDEN_V2.read_bytes()

    def test_roundtrip(self, tmp_path):
        specs = [KernelSpec("gaussian", 1.0), KernelSpec("cauchy", 2.0)]
        model = mkl_init(specs, 4, 6, 0.5, 1e-3, "least_squares", 14)
        rng = np.random.default_rng(15)
        model, _ = mkl_train(model, [(rng.random(6), float(rng.normal())) for _ in range(9)])
        path = tmp_path / "mkl.json"
        save_mkl_checkpoint(model, path)
        loaded = load_mkl_checkpoint(path)
        assert loaded.eta == model.eta
        np.testing.assert_array_equal(loaded.log_weights, model.log_weights)
        assert np.array_equal(loaded.thetas, model.thetas)
        for a, b in zip(loaded.maps, model.maps):
            assert a.ref == b.ref
            assert np.array_equal(a.v_matrix, b.v_matrix)
        a = rng.random(6)
        assert mkl_predict(loaded, a) == mkl_predict(model, a)

    def test_single_kernel_roundtrip_keeps_the_loss(self, tmp_path):
        # the one-kernel learner is the P = 1 model, saved as one learner record
        model = mkl_init([KernelSpec("laplacian", 0.7)], 4, 6, 0.37, 1e-4, "logistic", 21)
        rng = np.random.default_rng(22)
        model, _ = mkl_train(model, [(rng.random(6), float(rng.choice([-1.0, 1.0]))) for _ in range(12)])
        path = tmp_path / "one.json"
        save_mkl_checkpoint(model, path)
        loaded = load_mkl_checkpoint(path)
        assert (loaded.eta, loaded.loss, loaded.seed) == (0.37, LossKind("logistic", 1e-4), 21)
        assert np.array_equal(loaded.thetas, model.thetas)
        assert loaded.maps[0].ref == model.maps[0].ref

    def test_record_layout(self, tmp_path):
        _, path = self.saved(tmp_path)
        record = json.loads(path.read_text())
        assert list(record) == ["format", "eta", "seed", "log_weights_b64", "learners", "maps_b64"]
        assert list(record["learners"][0]) == ["format", "map_ref", "eta", "loss", "theta_b64"]

    def test_file_with_a_config_fingerprint_loads(self, tmp_path):
        # earlier files carry a config_sha256 field, which nothing reads
        model, _ = self.saved(tmp_path)
        path = self.tampered(tmp_path, lambda record: record.update(config_sha256="e3b0c442"))
        loaded = load_mkl_checkpoint(path)
        assert np.array_equal(loaded.thetas, model.thetas)
        assert np.array_equal(loaded.log_weights, model.log_weights)

    def test_wrong_format_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in ('{"format": "something-else"}', "[]"):
            path.write_text(text)
            with pytest.raises(ValueError, match="not a multi-kernel checkpoint"):
                load_mkl_checkpoint(path)

    def saved(self, tmp_path):
        model = mkl_init([KernelSpec("gaussian", 1.0), KernelSpec("cauchy", 2.0)], 4, 6, 0.5, 1e-3,
                         "least_squares", 14)
        model, _ = mkl_train(model, [(np.full(6, 0.1 * i), float(i)) for i in range(5)])
        path = tmp_path / "mkl.json"
        save_mkl_checkpoint(model, path)
        return model, path

    def test_loaded_maps_do_not_depend_on_the_random_streams(self, tmp_path, monkeypatch):
        import graphrf.mkl

        model, path = self.saved(tmp_path)
        build = graphrf.mkl.build_map

        def other_draws(kernel, d, n, seed):  # same provenance, other matrix
            return RFMap(build(kernel, d, n, seed).v_matrix + 1.0, kernel, seed)

        monkeypatch.setattr(graphrf.mkl, "build_map", other_draws)
        loaded = load_mkl_checkpoint(path)
        for a, b in zip(loaded.maps, model.maps):
            assert np.array_equal(a.v_matrix, b.v_matrix)
            assert a.ref == b.ref
        a = np.linspace(0.0, 1.0, 6)
        assert mkl_predict(loaded, a) == mkl_predict(model, a)

    @pytest.mark.parametrize("keep", [20, -8])
    def test_truncated_map_blob_refused(self, tmp_path, keep):
        _, path = self.saved(tmp_path)
        record = json.loads(path.read_text())
        blob = base64.b64decode(record["maps_b64"][1])[:keep]
        record["maps_b64"][1] = base64.b64encode(blob).decode("ascii")
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="truncated"):
            load_mkl_checkpoint(path)

    def tampered(self, tmp_path, change):
        _, path = self.saved(tmp_path)
        record = json.loads(path.read_text())
        change(record)
        path.write_text(json.dumps(record))
        return path

    @pytest.mark.parametrize("values", [7, 9])
    def test_theta_of_the_wrong_length_refused(self, tmp_path, values):
        def change(record):  # the maps have D = 4, so each theta holds 8 values
            theta = np.arange(values, dtype="<f8")
            record["learners"][1]["theta_b64"] = base64.b64encode(theta.tobytes()).decode("ascii")

        with pytest.raises(ValueError, match=rf"learners\[1\]\.theta_b64 holds {values} values"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_theta_refused(self, tmp_path, bad):
        def change(record):
            theta = np.frombuffer(base64.b64decode(record["learners"][1]["theta_b64"]), dtype="<f8").copy()
            theta[3] = bad
            record["learners"][1]["theta_b64"] = base64.b64encode(theta.tobytes()).decode("ascii")

        with pytest.raises(ValueError, match=r"learners\[1\]\.theta_b64 holds non-finite values"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    @pytest.mark.parametrize(
        "index, field, value",
        [
            (1, "loss", {"kind": "least_squares", "mu": 0.5}),
            (1, "eta", 0.01),
            (1, "map_ref", "gaussian:bw=1.0:D=4:N=6:seed=0:L1"),
            (0, "map_ref", "cauchy:bw=2.0:D=4:N=6:seed=1:L1"),
        ],
    )
    def test_learner_that_disagrees_refused(self, tmp_path, index, field, value):
        def change(record):
            record["learners"][index][field] = value

        with pytest.raises(ValueError, match=rf"learners\[{index}\]\.{field} is"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    def test_first_learner_with_another_loss_refused(self, tmp_path):
        # the shared loss is learners[0]'s, so the next learner is the one that disagrees
        def change(record):
            record["learners"][0]["loss"] = {"kind": "hinge", "mu": 0.001}

        with pytest.raises(ValueError, match=r"learners\[1\]\.loss is .*learners\[0\]\.loss is .*hinge"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    def test_no_maps_refused(self, tmp_path):
        def change(record):
            record["maps_b64"] = []

        with pytest.raises(ValueError, match="^checkpoint field maps_b64 holds no maps$"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_learner_count_refused(self, tmp_path, count):
        def change(record):
            record["learners"] = (record["learners"] * 2)[:count]

        with pytest.raises(ValueError, match=f"learners and maps_b64 hold {count} and 2 records"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    @pytest.mark.parametrize("values", [1, 3])
    def test_log_weights_of_the_wrong_length_refused(self, tmp_path, values):
        def change(record):
            logw = np.zeros(values, dtype="<f8")
            record["log_weights_b64"] = base64.b64encode(logw.tobytes()).decode("ascii")

        with pytest.raises(ValueError, match=rf"log_weights_b64 holds {values} values"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    @pytest.mark.parametrize("field", ["eta", "seed", "log_weights_b64", "learners", "maps_b64"])
    def test_missing_field_refused(self, tmp_path, field):
        with pytest.raises(ValueError, match=f"missing the field '{field}'"):
            load_mkl_checkpoint(self.tampered(tmp_path, lambda record: record.pop(field)))

    @pytest.mark.parametrize("field", ["map_ref", "eta", "loss", "theta_b64"])
    def test_missing_learner_field_refused(self, tmp_path, field):
        with pytest.raises(ValueError, match=f"missing the field '{field}'"):
            load_mkl_checkpoint(self.tampered(tmp_path, lambda record: record["learners"][0].pop(field)))

    def test_non_finite_map_refused(self, tmp_path):
        def change(record):
            blob = bytearray(base64.b64decode(record["maps_b64"][0]))
            blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # the last entry of V
            record["maps_b64"][0] = base64.b64encode(bytes(blob)).decode("ascii")

        with pytest.raises(ValueError, match=r"maps_b64\[0\] .*v_matrix must be finite"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    # D and N are the 8-byte header fields after the magic and the two versions
    @pytest.mark.parametrize("offset", [16, 24], ids=["D", "N"])
    def test_zero_size_map_refused(self, tmp_path, offset):
        def change(record):
            for p, text in enumerate(record["maps_b64"]):
                # the header alone: D * N = 0 needs no body
                blob = bytearray(base64.b64decode(text)[: len(_MAGIC) + struct.calcsize(_HEADER)])
                blob[offset : offset + 8] = bytes(8)
                record["maps_b64"][p] = base64.b64encode(bytes(blob)).decode("ascii")

        with pytest.raises(ValueError, match=r"maps_b64\[0\] is malformed .*D >= 1 and N >= 1"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    @pytest.mark.parametrize(
        "change, field",
        [
            # every learner's loss, so that the learners still agree
            pytest.param(lambda r: [lr["loss"].pop("mu") for lr in r["learners"]],
                         r"learners\[0\]\.loss is malformed", id="loss-without-mu"),
            pytest.param(lambda r: [lr.update(loss="least_squares") for lr in r["learners"]],
                         r"learners\[0\]\.loss is malformed", id="loss-as-string"),
            pytest.param(lambda r: [lr["loss"].update(kind="squared") for lr in r["learners"]],
                         r"learners\[0\]\.loss .*unknown loss kind", id="unknown-loss-kind"),
            pytest.param(lambda r: [lr["loss"].update(mu=np.nan) for lr in r["learners"]],
                         r"learners\[0\]\.loss .*mu must be >= 0", id="nan-mu"),
            pytest.param(lambda r: r.update(learners=7), r"field learners must be a list", id="learners-not-a-list"),
            pytest.param(lambda r: r["learners"].__setitem__(1, "x"), r"learners\[1\] is not a learner record",
                         id="learner-not-a-record"),
            pytest.param(lambda r: r.update(eta="x"), r"field eta", id="eta-as-string"),
            pytest.param(lambda r: r.update(eta=2.0), r"field eta", id="eta-out-of-range"),
            pytest.param(lambda r: r.update(seed="x"), r"field seed", id="seed-as-string"),
            pytest.param(lambda r: r.update(log_weights_b64=_b64_doubles([0.0, np.nan])), r"field log_weights_b64",
                         id="nan-log-weight"),
            pytest.param(lambda r: r.update(log_weights_b64=base64.b64encode(bytes(15)).decode("ascii")),
                         r"field log_weights_b64", id="log-weights-odd-bytes"),
            pytest.param(lambda r: r["learners"][1].update(theta_b64=base64.b64encode(bytes(63)).decode("ascii")),
                         r"learners\[1\]\.theta_b64", id="theta-odd-bytes"),
            pytest.param(lambda r: r["learners"][1].update(theta_b64=3), r"learners\[1\]\.theta_b64",
                         id="theta-not-a-string"),
            pytest.param(lambda r: r["maps_b64"].__setitem__(1, "not base64!"), r"maps_b64\[1\]",
                         id="map-not-base64"),
            pytest.param(lambda r: r.update(maps_b64="abc"), r"field maps_b64 must be a list", id="maps-not-a-list"),
        ],
    )
    def test_malformed_field_refused_naming_it(self, tmp_path, change, field):
        with pytest.raises(ValueError, match=field):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    def test_maps_of_different_shape_refused(self, tmp_path):
        other = build_map(KernelSpec("cauchy", 2.0), 5, 6, 0)

        def change(record):
            record["maps_b64"][1] = base64.b64encode(_map_bytes(other)).decode("ascii")

        with pytest.raises(ValueError, match=r"field maps_b64 holds maps of \(D, N\)"):
            load_mkl_checkpoint(self.tampered(tmp_path, change))

    def test_seeds_only_checkpoint_refused(self, tmp_path):
        # the earlier layout: each map as the seed it was drawn from
        model, path = self.saved(tmp_path)
        record = json.loads(path.read_text())
        record["format"] = "graphrf-mkl-v1"
        record["maps"] = [
            {"family": m.kernel.family, "bandwidth": m.kernel.bandwidth, "d": m.d, "n": m.n, "seed": m.seed}
            for m in model.maps
        ]
        del record["maps_b64"]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="seeds"):
            load_mkl_checkpoint(path)


@st.composite
def encode_cases(draw):
    n_maps = draw(st.integers(1, 3))
    d = draw(st.integers(1, 130))
    n = draw(st.integers(1, 60))
    n_rows = draw(st.one_of(st.integers(1, 8), st.integers(1, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        patterns = (rng.random((n_rows, n)) < 0.2).astype(float)
    else:
        patterns = rng.normal(size=(n_rows, n))
    families = draw(st.lists(st.sampled_from(["gaussian", "laplacian", "cauchy"]), min_size=n_maps, max_size=n_maps))
    specs = [KernelSpec(f, draw(st.sampled_from([0.5, 1.0, 5.0]))) for f in families]
    return mkl_init(specs, d, n, 0.5, 0.0, "least_squares", draw(st.integers(0, 1000))), patterns


@settings(max_examples=40, deadline=None)
@given(encode_cases())
def test_fused_encoding_is_the_per_map_encoding_bit_for_bit(case):
    model, patterns = case
    fused = mkl_encode(model, patterns)
    per_map = np.stack([m.encode_batch(patterns) for m in model.maps])
    # the encoding as one map computes it on its own: the reference arithmetic
    reference = []
    for m in model.maps:
        x = patterns @ m.v_matrix.T
        reference.append(np.concatenate([np.sin(x), np.cos(x)], axis=1) * m.d**-0.5)
    assert fused.shape == (model.n_kernels, patterns.shape[0], 2 * model.maps[0].d)
    assert np.array_equal(fused, per_map)
    assert np.array_equal(fused, np.stack(reference))


@st.composite
def scorer_cases(draw):
    """A trained-looking model of every kernel family, P in {1, 2, 3}, with
    some rows of θ all zero, and a small batch of patterns."""
    n_maps = draw(st.integers(1, 3))
    d, n, n_rows = draw(st.integers(1, 12)), draw(st.integers(1, 10)), draw(st.integers(1, 8))
    families = draw(st.lists(st.sampled_from(["gaussian", "laplacian", "cauchy"]), min_size=n_maps, max_size=n_maps))
    specs = [KernelSpec(f, draw(st.sampled_from([0.5, 1.0, 5.0]))) for f in families]
    model = mkl_init(specs, d, n, 0.5, 1e-3, "least_squares", draw(st.integers(0, 1000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = rng.normal(size=(n_maps, 2 * d)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    thetas[draw(st.lists(st.booleans(), min_size=n_maps, max_size=n_maps))] = 0.0
    model = MklModel(model.maps, thetas, rng.normal(size=n_maps), model.eta, model.loss, model.seed)
    if draw(st.booleans()):
        patterns = (rng.random((n_rows, n)) < 0.3).astype(float)
    else:
        patterns = rng.normal(size=(n_rows, n)) * draw(st.sampled_from([1.0, 30.0]))
    return model, patterns


def amplitude_phase_bound(model, patterns):
    """First-order bound on |mkl_predict_batch - mkl_predict_encoded(mkl_encode)|.

    Per feature, with rho = hypot(s, c) D^{-1/2}: the scorer rounds phi (at
    most pi in size) and x + phi, so sin's argument is off by at most
    eps (|x| + 3 pi); sin, rho and each of the D products and sums add at
    most eps (4 + D) rho.  The encoding's path rounds sin or cos, the scaling
    and 2D products and sums, at most eps (6 + 3D) rho in all.  Weighting and
    summing the P kernels then adds at most 4 P eps rho per kernel.
    """
    eps = np.finfo(np.float64).eps
    x = project_stacked(model._v_block, patterns)
    d, n_maps = x.shape[2], x.shape[0]
    rho = np.hypot(model.thetas[:, :d], model.thetas[:, d:]) * d**-0.5
    per_kernel = np.matmul(np.abs(x) + (3 * math.pi + 10 + 4 * d + 4 * n_maps), rho[:, :, None])[..., 0]
    return eps * (model.normalized_weights @ per_kernel)


@settings(max_examples=150, deadline=None)
@given(scorer_cases())
def test_amplitude_phase_scores_are_the_encoded_scores_within_rounding(case):
    model, patterns = case
    scores = mkl_predict_batch(model, patterns)
    encoded = mkl_predict_encoded(model, mkl_encode(model, patterns))
    assert scores.shape == (patterns.shape[0],)
    assert (np.abs(scores - encoded) <= amplitude_phase_bound(model, patterns)).all()
    zero = MklModel(model.maps, np.zeros_like(model.thetas), model.log_weights, model.eta, model.loss)
    assert (mkl_predict_batch(zero, patterns) == 0.0).all()


@settings(max_examples=60, deadline=None)
@given(scorer_cases(), st.sampled_from(["absorb", "update"]))
def test_an_updated_model_scores_as_a_model_rebuilt_from_its_weights(case, step):
    # the first model scores before the step, so anything it cached would
    # carry into the updated model and show here
    model, patterns = case
    mkl_predict_batch(model, patterns)
    if step == "absorb":
        _, model = absorb_new_node_mkl(model, patterns[0], 0.7)
    else:
        model, _ = mkl_update(model, patterns[0], 0.7)
    rebuilt = MklModel(model.maps, model.thetas, model.log_weights, model.eta, model.loss, model.seed)
    assert np.array_equal(mkl_predict_batch(model, patterns), mkl_predict_batch(rebuilt, patterns))


def test_encoding_each_node_once_and_gathering_is_encoding_the_gathered_rows():
    # run_regret encodes the n node patterns once and gathers the stream's
    # rows; both are one BLAS product per map over rows of the same patterns
    rng = np.random.default_rng(12)
    pats = (rng.random((200, 200)) < 0.2).astype(float)
    stream = rng.integers(0, 200, size=2000)
    model = mkl_init([KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 5.0)], 10, 200, 0.5, 1e-6,
                     "least_squares", 5)
    assert np.array_equal(mkl_encode(model, pats)[:, stream], mkl_encode(model, pats[stream]))


class TestStaticRegret:
    def test_zero_regret_reports_nan_exponent(self):
        losses = np.full(50, 0.25)
        oracle = np.cumsum(losses)
        regret = np.cumsum(losses) - oracle
        np.testing.assert_allclose(regret, 0.0, atol=1e-12)
        assert math.isnan(fit_growth_exponent(regret))

    def test_regret_non_negative_for_true_minimizer(self):
        # with one kernel the combined predictor lives in the comparator
        # class, so the per-prefix best fixed parameter can only do better
        rng = np.random.default_rng(26)
        spec = KernelSpec("gaussian", 1.0)
        model = mkl_init([spec], 5, 6, 0.5, 0.0, "least_squares", 27)
        pats = rng.random((60, 6))
        ys = rng.normal(size=60)
        model2, traces = mkl_train(model, list(zip(pats, ys)))
        zs = model.maps[0].encode_batch(pats)
        oracle = _prefix_oracle_losses(zs, ys, mu=0.0)
        regret = np.cumsum(traces.combined_loss) - oracle
        assert regret[-1] >= -1e-9

    def test_growth_exponent_recovers_sqrt(self):
        t = np.arange(1, 3000)
        series = 2.0 * np.sqrt(t)
        assert fit_growth_exponent(series) == pytest.approx(0.5, abs=1e-6)
