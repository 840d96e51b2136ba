import dataclasses
import functools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrf import _kernels, config, harness, kernels, mkl
from graphrf import (
    Graph,
    GraphKernelSpec,
    KernelSpec,
    erdos_renyi,
    eval_kernel,
    eval_kernel_matrix,
    graph_kernel_matrix,
    spectral_sample,
)


def triangle():
    return Graph(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float))


class TestEvalKernel:
    def test_standardized_at_zero_distance(self):
        a = np.array([0.3, -1.2, 4.0])
        for family, bw in (("gaussian", 1.0), ("laplacian", 2.0), ("cauchy", 0.7)):
            assert eval_kernel(KernelSpec(family, bw), a, a) == pytest.approx(1.0)

    def test_gaussian_hand_value(self):
        # sigma^2 = 2 and squared distance 4 gives exp(-4 / (2 * 2)) = exp(-1)
        spec = KernelSpec("gaussian", 2.0)
        val = eval_kernel(spec, np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_laplacian_hand_value(self):
        spec = KernelSpec("laplacian", 2.0)
        val = eval_kernel(spec, np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_cauchy_hand_value(self):
        spec = KernelSpec("cauchy", 1.0)
        val = eval_kernel(spec, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for family, bw in (("gaussian", 1.5), ("laplacian", 1.0), ("cauchy", 2.0)):
            spec = KernelSpec(family, bw)
            a, b, c = rng.normal(size=(3, 6))
            assert eval_kernel(spec, a, b) == pytest.approx(eval_kernel(spec, a + c, b + c), rel=1e-10)

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec("gaussian", 1.0)
        for _ in range(1000):
            a, b = rng.normal(size=(2, 4))
            assert eval_kernel(spec, a, b) == eval_kernel(spec, b, a)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for family in ("gaussian", "laplacian", "cauchy"):
            spec = KernelSpec(family, 0.8)
            for _ in range(200):
                a, b = rng.normal(size=(2, 5)) * 3
                val = eval_kernel(spec, a, b)
                assert 0.0 <= val <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_kernel(KernelSpec("gaussian", 1.0), np.zeros(3), np.zeros(4))

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 0.0)

    @pytest.mark.parametrize("bandwidth", [float("inf"), float("nan")])
    def test_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            KernelSpec("laplacian", bandwidth)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec("sinc", 1.0)

    def test_bool_bandwidth(self):
        # math.isfinite and > 0 read True as 1
        with pytest.raises(ValueError, match="^bandwidth takes no bool, got True$"):
            KernelSpec("gaussian", True)


class TestEvalKernelMatrix:
    @pytest.mark.parametrize("family,bw", [("gaussian", 1.3), ("laplacian", 0.9), ("cauchy", 1.1)])
    def test_matches_scalar_evaluation(self, family, bw):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(7, 5))
        ys = rng.normal(size=(4, 5))
        spec = KernelSpec(family, bw)
        mat = eval_kernel_matrix(spec, xs, ys)
        for i in range(7):
            for j in range(4):
                assert mat[i, j] == pytest.approx(eval_kernel(spec, xs[i], ys[j]), abs=1e-10)

    @settings(max_examples=90, deadline=None)
    @given(
        family=st.sampled_from(kernels.KERNEL_FAMILIES),
        rows=st.integers(1, 44), cols=st.integers(1, 12), dim=st.integers(1, 6),
        bw=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([0, 1 << 20]), self_gram=st.booleans(), pass_norms=st.booleans(),
    )
    def test_in_place_equals_the_whole_array_recipe(
        self, family, rows, cols, dim, bw, seed, budget, self_gram, pass_norms
    ):
        # a budget of 0 bytes gives chunks of 8 rows, so up to 6 chunks
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(rows, dim))
        ys = xs if self_gram else np.concatenate([xs[: cols // 2], rng.normal(size=(cols - cols // 2, dim))])
        if family == "gaussian":
            sq = (xs * xs).sum(axis=1)[:, None] + (ys * ys).sum(axis=1)[None, :] - 2.0 * xs @ ys.T
            np.clip(sq, 0.0, None, out=sq)
            expected = np.exp(-sq / (2.0 * bw))
        else:
            d = np.abs(xs[:, None, :] - ys[None, :, :])
            if family == "laplacian":
                expected = np.exp(-d.sum(axis=2) / bw)
            else:
                expected = np.prod(1.0 / (1.0 + (d / bw) ** 2), axis=2)
        # a caller that passes the squared row norms of ys gets the same bytes
        norms = (ys * ys).sum(axis=1) if pass_norms else None
        with mock.patch.object(kernels, "_ROW_CHUNK_BYTES", budget):
            got = eval_kernel_matrix(KernelSpec(family, bw), xs, ys, norms)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 44), cols=st.integers(1, 30), dim=st.integers(1, 12),
        bw=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([0, 1 << 20]),
        kind=st.sampled_from(["normal", "binary", "normalized"]), self_gram=st.booleans(),
        scale=st.sampled_from([1.0, 1e3]),
    )
    def test_gaussian_tail_per_chunk_is_the_whole_output_tail(
        self, rows, cols, dim, bw, seed, budget, kind, self_gram, scale
    ):
        # the recipe that clips, negates, divides and exponentiates the whole
        # output, one pass each, after the chunked sums.  At scale 1e3 the
        # rounded squared distance of a row to itself is often negative, so
        # the clip shows
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(rows, dim))
        if kind != "normal":
            xs = (xs > 0.5).astype(float)
        if kind == "normalized":
            xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        xs *= scale
        ys = xs if self_gram else xs[rng.integers(0, rows, size=cols)]
        if kind == "normal" and not self_gram:
            ys = ys + rng.normal(size=ys.shape)
        expected = np.empty((rows, ys.shape[0]))
        xn, yn = (xs * xs).sum(axis=1), (ys * ys).sum(axis=1)
        np.matmul(2.0 * xs, ys.T, out=expected)
        with mock.patch.object(kernels, "_ROW_CHUNK_BYTES", budget):
            chunk = kernels.row_chunk(8 * ys.shape[0])
            got = eval_kernel_matrix(KernelSpec("gaussian", bw), xs, ys)
        for i0 in range(0, rows, chunk):
            blk = expected[i0 : i0 + chunk]
            np.subtract(xn[i0 : i0 + chunk, None] + yn[None, :], blk, out=blk)
        np.clip(expected, 0.0, None, out=expected)
        np.negative(expected, out=expected)
        expected /= 2.0 * bw
        np.exp(expected, out=expected)
        assert got.tobytes() == expected.tobytes()

    def test_gaussian_peaks_at_about_one_output(self):
        # the whole-array recipe holds the sum and the product, two outputs, at once
        xs = np.random.default_rng(5).random((1500, 20))
        tracemalloc.start()
        try:
            out = eval_kernel_matrix(KernelSpec("gaussian", 5.0), xs, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.nbytes


class TestRowChunk:
    def test_a_multiple_of_8_within_the_budget(self):
        assert kernels.row_chunk(8 * 1000) == 128
        assert kernels.row_chunk(8 * 999) == 128
        assert kernels.row_chunk(8) == kernels._ROW_CHUNK_BYTES // 8

    @pytest.mark.parametrize("row_bytes", [8 * 20000, 10**12])
    def test_at_least_8_rows(self, row_bytes):
        assert kernels.row_chunk(row_bytes) == 8


class TestSpectralSample:
    def test_gaussian_unit_variance(self):
        v = spectral_sample(KernelSpec("gaussian", 1.0), 100_000, 1, seed=0)
        assert 0.99 <= v.var() <= 1.01

    def test_gaussian_quarter_variance(self):
        # sigma^2 = 4 gives sample variance 1/4 within 2 percent
        v = spectral_sample(KernelSpec("gaussian", 4.0), 100_000, 1, seed=1)
        assert abs(v.var() - 0.25) <= 0.005

    def test_laplacian_gives_cauchy_scale(self):
        # |Cauchy(scale)| has median equal to the scale, here 1/sigma
        v = spectral_sample(KernelSpec("laplacian", 2.0), 100_000, 1, seed=2)
        assert np.median(np.abs(v)) == pytest.approx(0.5, rel=0.05)

    def test_cauchy_gives_laplace_variance(self):
        # Laplace(1/sigma) has variance 2/sigma^2
        v = spectral_sample(KernelSpec("cauchy", 1.0), 100_000, 1, seed=3)
        assert v.var() == pytest.approx(2.0, rel=0.05)

    def test_deterministic(self):
        spec = KernelSpec("gaussian", 1.0)
        assert np.array_equal(spectral_sample(spec, 50, 7, 9), spectral_sample(spec, 50, 7, 9))

    def test_shape(self):
        assert spectral_sample(KernelSpec("gaussian", 1.0), 12, 5, 0).shape == (12, 5)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            spectral_sample(KernelSpec("gaussian", 1.0), 0, 5, 0)


class TestGraphKernelMatrix:
    def test_diffusion_small_sigma_is_identity(self):
        g = erdos_renyi(10, 0.5, 0)
        k = graph_kernel_matrix(g, GraphKernelSpec("diffusion", sigma2=0.0))
        np.testing.assert_allclose(k, np.eye(10), atol=1e-10)

    def test_triangle_diffusion_spectrum(self):
        # normalized Laplacian of the triangle has eigenvalues (0, 1.5, 1.5),
        # so the diffusion response exp(-sigma2 lambda / 2) with sigma2 = 2
        # gives kernel eigenvalues (1, e^-1.5, e^-1.5)
        k = graph_kernel_matrix(triangle(), GraphKernelSpec("diffusion", sigma2=2.0))
        evals = np.sort(np.linalg.eigvalsh(k))
        expected = np.sort([1.0, math.exp(-1.5), math.exp(-1.5)])
        np.testing.assert_allclose(evals, expected, atol=1e-12)

    def test_bandlimited_full_band_is_identity(self):
        g = erdos_renyi(8, 0.4, 1)
        k = graph_kernel_matrix(g, GraphKernelSpec("bandlimited", band_size=8))
        np.testing.assert_allclose(k, np.eye(8), atol=1e-10)

    def test_bandlimited_damps_out_of_band(self):
        g = erdos_renyi(8, 0.4, 1)
        spec = GraphKernelSpec("bandlimited", band_size=3)
        evals = np.sort(np.linalg.eigvalsh(graph_kernel_matrix(g, spec)))[::-1]
        np.testing.assert_allclose(evals[:3], 1.0, atol=1e-8)
        np.testing.assert_allclose(evals[3:], 1e-6, atol=1e-12)

    def test_symmetric_psd_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 51))
            g = erdos_renyi(n, float(rng.uniform(0.1, 0.8)), int(rng.integers(1 << 30)))
            k = graph_kernel_matrix(g, GraphKernelSpec("diffusion", sigma2=3.0))
            assert np.abs(k - k.T).max() <= 1e-10
            assert np.linalg.eigvalsh(k).min() >= -1e-8

    def test_diffusion_monotone_in_sigma2(self):
        g = erdos_renyi(12, 0.4, 5)
        small = np.sort(np.linalg.eigvalsh(graph_kernel_matrix(g, GraphKernelSpec("diffusion", sigma2=1.0))))
        large = np.sort(np.linalg.eigvalsh(graph_kernel_matrix(g, GraphKernelSpec("diffusion", sigma2=4.0))))
        # the top (unit) eigenvalue stays, every other one shrinks
        assert large[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(large[:-1] <= small[:-1] + 1e-12)

    def test_directed_rejected(self):
        g = Graph(np.array([[0.0, 1.0], [0.0, 0.0]]), directed=True)
        with pytest.raises(ValueError):
            graph_kernel_matrix(g, GraphKernelSpec("diffusion", sigma2=1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GraphKernelSpec("diffusion")
        with pytest.raises(ValueError):
            GraphKernelSpec("bandlimited", band_size=0)

    @pytest.mark.parametrize("sigma2", [math.inf, math.nan, -1.0])
    def test_diffusion_sigma2_must_be_finite_and_non_negative(self, sigma2):
        with pytest.raises(ValueError, match=r"^diffusion kernel needs a finite sigma2 >= 0$"):
            GraphKernelSpec("diffusion", sigma2=sigma2)


@pytest.mark.parametrize("spec", [GraphKernelSpec("diffusion", sigma2=5.0), GraphKernelSpec("bandlimited", band_size=1),
                                  GraphKernelSpec("bandlimited", band_size=3), GraphKernelSpec("bandlimited", band_size=9)])
def test_graph_kernel_response_of_a_stack_is_each_row_s(spec):
    # the band indexes eigenvalues, the last axis, never the stack's nodes
    lam = np.sort(np.random.default_rng(0).uniform(0.0, 2.0, size=(4, 5)), axis=1)
    stacked = kernels.graph_kernel_response(spec, lam)
    rows = np.array([kernels.graph_kernel_response(spec, row) for row in lam])
    assert stacked.shape == lam.shape and stacked.tobytes() == rows.tobytes()


# ---------------------------------------------------------------------------
# The learner-block stream kernel and the blocked prefix oracle, each against
# a plain reference loop.  Reductions run in another order in the kernel, so
# agreement is to a tolerance rather than bit-exact.
# ---------------------------------------------------------------------------


def _scalar_cost(kind, pred, y):
    if kind == "least_squares":
        return (pred - y) ** 2
    if kind == "hinge":
        return max(1.0 - y * pred, 0.0)
    m = y * pred
    return math.log1p(math.exp(-m)) if m >= 0 else -m + math.log1p(math.exp(m))


def _scalar_grad(kind, pred, y):
    if kind == "least_squares":
        return 2.0 * (pred - y)
    if kind == "hinge":
        return -y if y * pred < 1.0 else 0.0
    m = y * pred
    if m >= 0:
        e = math.exp(-m)
        return -y * e / (1.0 + e)
    return -y / (1.0 + math.exp(m))


def _reference_learners(zs, ys, eta, loss, thetas):
    """Each learner on its own, one sample at a time, with scalar costs."""
    n_learners, n_steps = zs.shape[:2]
    preds = np.empty((n_steps, n_learners))
    losses = np.empty((n_steps, n_learners))
    max_grad = np.zeros(n_learners)
    thetas = thetas.copy()
    for p in range(n_learners):
        theta = thetas[p]
        for t in range(n_steps):
            z, y = zs[p, t], ys[t]
            pred = float(np.dot(theta, z))
            preds[t, p] = pred
            losses[t, p] = _scalar_cost(loss.kind, pred, y) + loss.mu * float(np.dot(theta, theta))
            grad = _scalar_grad(loss.kind, pred, y) * z + 2.0 * loss.mu * theta
            max_grad[p] = max(max_grad[p], float(np.linalg.norm(grad)))
            theta -= eta * grad
    return preds, losses, thetas, max_grad


def _reference_hedge(losses, preds, norms, ys, eta, loss, logw):
    """Sequential log-domain hedge update, rescaled to a zero maximum each step."""
    logw = logw.copy()
    n_steps = losses.shape[0]
    weights = np.empty_like(losses)
    combined = np.empty(n_steps)
    for t in range(n_steps):
        w = np.exp(logw - logw.max())
        w /= w.sum()
        weights[t] = w
        combined[t] = _scalar_cost(loss.kind, float(w @ preds[t]), ys[t]) + loss.mu * float(w @ norms[t])
        logw -= eta * np.clip(losses[t], 0.0, 1.0)
        logw -= logw.max()
    return weights, combined, logw


@st.composite
def streams(draw, steps=st.integers(0, 60), etas=st.floats(0.0, 0.5), learners=st.integers(1, 4)):
    """A small stream of unit-norm encodings with labels fit for the loss."""
    kind = draw(st.sampled_from(_kernels.LOSS_KINDS))
    n_learners = draw(learners)
    n_steps = draw(steps)
    width = 2 * draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zs = rng.normal(size=(n_learners, n_steps, width))
    zs /= np.linalg.norm(zs, axis=2, keepdims=True)
    if kind == "least_squares":
        ys = rng.normal(size=n_steps)
    else:
        ys = rng.choice([-1.0, 1.0], size=n_steps)
    thetas = rng.normal(scale=0.5, size=(n_learners, width))
    logw = rng.normal(size=n_learners)
    eta = draw(etas)
    mu = draw(st.sampled_from([0.0, 1e-6, 1e-2, 0.5]))
    return zs, ys, eta, _kernels.LossKind(kind, mu), thetas, logw


def _block(zs, ys, eta, loss, thetas):
    """learner_block over one group of learners, under one loss."""
    return _kernels.learner_block(zs, ys, eta, loss.kind, [loss.mu], thetas)


def _one_group(zs, ys, eta, loss, thetas, logw):
    """mkl_stream as a grid of one: its five arrays' group 0.  thetas (P, 2D)
    and logw (P,) are updated in place."""
    combined, per_kernel, weights, prediction, max_grad = _kernels.mkl_stream(
        zs, ys, eta, loss.kind, [loss.mu], thetas, logw[None]
    )
    return combined[:, 0], per_kernel[:, 0], weights[:, 0], prediction[:, 0], max_grad[0]


@settings(max_examples=60, deadline=None)
@given(streams())
def test_learner_block_matches_scalar_reference(stream):
    zs, ys, eta, loss, thetas, logw = stream
    ref_preds, ref_losses, ref_thetas, _ = _reference_learners(zs, ys, eta, loss, thetas)
    block_thetas = thetas.copy()
    preds, _, _ = _block(zs, ys, eta, loss, block_thetas)
    np.testing.assert_allclose(preds, ref_preds, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(block_thetas, ref_thetas, rtol=1e-12, atol=1e-12)
    stream_thetas = thetas.copy()
    _, losses, _, _, _ = _one_group(zs, ys, eta, loss, stream_thetas, logw.copy())
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=1e-12)
    assert np.array_equal(stream_thetas, block_thetas)


@settings(max_examples=60, deadline=None)
@given(streams())
def test_hedge_replay_matches_sequential_update(stream):
    zs, ys, eta, loss, thetas, logw = stream
    final_logw = logw.copy()
    combined, losses, weights, prediction, _ = _one_group(zs, ys, eta, loss, thetas.copy(), final_logw)
    preds, norms, _ = _block(zs, ys, eta, loss, thetas.copy())
    ref_weights, ref_combined, ref_logw = _reference_hedge(
        losses, preds, norms, ys, eta, loss, logw
    )
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(combined, ref_combined, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(prediction, (ref_weights * preds).sum(axis=1), rtol=1e-12, atol=1e-12)
    if ys.size:
        np.testing.assert_allclose(final_logw, ref_logw, rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(final_logw, logw)


@settings(max_examples=60, deadline=None)
@given(streams())
def test_combined_loss_is_at_most_the_weighted_kernel_losses(stream):
    # Jensen's inequality for the convex losses, on which the hedge regret
    # bound rests: at every step, to rounding
    zs, ys, eta, loss, thetas, logw = stream
    combined, losses, weights, _, _ = _one_group(zs, ys, eta, loss, thetas.copy(), logw.copy())
    mixed = (weights * losses).sum(axis=1)
    assert np.all(combined <= mixed + 1e-12 * (1 + np.abs(mixed)))


def _fold(op, a, *start):
    """op over the last axis of a, one entry at a time from the left (from
    start, if given): the order in which the stream sums and maximises over
    the kernel axis, at any P."""
    return functools.reduce(op, np.moveaxis(a, -1, 0), *start)[..., None]


def _concatenating_replay(record, ys, eta, loss, logw):
    """The vectorised hedge replay as it first stood: the same arithmetic as
    mkl_stream's, in separate arrays (the used rows concatenated, the final
    log-weights rescaled on their own), each fold over the kernel axis a
    :func:`_fold`.  Below 8 kernels numpy's reductions gave the same bits."""
    preds, norms, grad_sq = record
    y = ys[:, None]
    per_kernel = _kernels.cost_value(loss.kind, preds, y) + loss.mu * norms
    clipped = np.minimum(np.maximum(per_kernel, 0.0), 1.0)
    after = logw - eta * clipped.cumsum(axis=0)
    used = np.concatenate((logw[None, :], after))[:-1]
    weights = np.exp(used - _fold(np.maximum, used))
    weights /= _fold(np.add, weights, 0.0)
    f_hat, norm_bar = _fold(np.add, weights * record[:2], 0.0)
    combined = (_kernels.cost_value(loss.kind, f_hat, y) + loss.mu * norm_bar)[:, 0]
    final = after[-1] - _fold(np.maximum, after[-1]) if len(after) else logw
    return combined, per_kernel, weights, f_hat[:, 0], np.sqrt(grad_sq.max(axis=0, initial=0.0)), final


@settings(max_examples=60, deadline=None)
@given(streams())
def test_hedge_replay_is_the_concatenating_replay_bit_for_bit(stream):
    zs, ys, eta, loss, thetas, logw = stream
    final_logw = logw.copy()
    got = _one_group(zs, ys, eta, loss, thetas.copy(), final_logw)
    record = _block(zs, ys, eta, loss, thetas.copy())
    *expected, expected_logw = _concatenating_replay(record, ys, eta, loss, logw)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(final_logw, expected_logw)


def _general_stream(zs, ys, eta, loss, thetas, logw):
    """The stream's general path: learner_block, then the concatenating
    replay; returns its five arrays, the final thetas and log-weights."""
    thetas = thetas.copy()
    record = _block(zs, ys, eta, loss, thetas)
    return (*_concatenating_replay(record, ys, eta, loss, logw), thetas)


def _assert_one_step_is_the_general_path(zs, ys, eta, loss, thetas, logw):
    # the stream against the reference, and against its own general path
    got_thetas, got_logw = thetas.copy(), logw.copy()
    got = _one_group(zs, ys, eta, loss, got_thetas, got_logw)
    *expected, expected_logw, expected_thetas = _general_stream(zs, ys, eta, loss, thetas, logw)
    general_thetas, general_logw = thetas.copy(), logw.copy()
    with mock.patch.object(_kernels, "_one_step", _declined):
        general = _one_group(zs, ys, eta, loss, general_thetas, general_logw)
    assert len(got) == len(expected) == len(general) == 5
    for a, b, c in zip((*got, got_thetas, got_logw), (*expected, expected_thetas, expected_logw),
                       (*general, general_thetas, general_logw)):
        assert a.shape == b.shape == c.shape and a.tobytes() == b.tobytes() == c.tobytes()


# the one-step branch's costs and gradients are cost_value and
# cost_grad_scale of each float; 8 kernels and more fold as fewer do
@settings(max_examples=300, deadline=None)
@given(streams(steps=st.just(1), etas=st.floats(0.0, 1.0, exclude_min=True), learners=st.integers(1, 16)))
def test_one_step_is_the_general_path_bit_for_bit(stream):
    _assert_one_step_is_the_general_path(*stream)


# numpy's maximum keeps the last of equal entries, so with 0.0 and -0.0 both
# at the top the sign of a zero log-weight depends on which one is kept; a
# zero loss (least squares at the label, hinge at the margin) keeps the tie
# through the step
@pytest.mark.parametrize(
    "logw",
    [[0.0, -0.0], [-0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -1.0, -0.0, 0.0], [-0.0], [0.0] * 8 + [-0.0],
     [-0.0, 0.0] * 8],
    ids=["pos_neg", "neg_pos", "neg_pos_neg", "mixed", "one", "nine", "sixteen"],
)
@pytest.mark.parametrize("kind", _kernels.LOSS_KINDS)
def test_one_step_keeps_signed_zero_ties_as_the_general_path(kind, logw):
    logw = np.array(logw)
    n_learners = logw.size
    zs = np.full((n_learners, 1, 4), -0.5)
    label = 0.0 if kind == "least_squares" else 1.0
    thetas = np.zeros((n_learners, 4)) if kind == "least_squares" else np.full((n_learners, 4), -0.5)
    _assert_one_step_is_the_general_path(zs, np.array([label]), 0.5, _kernels.LossKind(kind, 0.0), thetas, logw)


@pytest.mark.parametrize(
    "n_learners, n_steps, finite, tried",
    [(2, 1, True, True), (7, 1, True, True), (8, 1, True, True), (16, 1, True, True), (2, 2, True, False),
     (2, 0, True, False), (2, 1, False, True)],
    ids=["one_step", "seven_kernels", "eight_kernels", "sixteen_kernels", "two_steps", "no_steps", "non_finite"],
)
def test_only_one_sample_of_one_mu_takes_the_branch(monkeypatch, n_learners, n_steps, finite, tried):
    calls = []
    one_step = _kernels._one_step

    def recording(*args):
        result = one_step(*args)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(_kernels, "_one_step", recording)
    rng = np.random.default_rng(3)
    zs = rng.normal(size=(n_learners, n_steps, 6))
    thetas = rng.normal(size=(n_learners, 6))
    logw = np.zeros(n_learners)
    if not finite:
        thetas[0, 0] = np.inf  # the branch declines, and the general path runs
    ys = rng.normal(size=n_steps)
    loss = _kernels.LossKind("least_squares", 1e-3)
    with np.errstate(invalid="ignore"):
        _assert_one_step_is_the_general_path(zs, ys, 0.5, loss, thetas, logw)
    assert calls == ([finite] if tried else [])


def _declined(*args):
    """A one-step branch that always declines, so the general path runs."""
    return None


def _no_learner_block(*args):
    raise AssertionError("learner_block ran")


@settings(max_examples=200, deadline=None)
@given(streams(steps=st.just(1), etas=st.floats(0.0, 1.0, exclude_min=True), learners=st.integers(1, 16)))
def test_a_one_sample_grid_of_one_takes_the_one_step_branch(stream):
    # a grid of one mu over one sample (what mkl_update makes) returns the
    # general path's grid-shaped arrays, weights and log-weights bit for bit,
    # and no learner_block runs
    zs, ys, eta, loss, thetas, logw = stream
    expected_thetas, expected_logw = thetas.copy(), logw[None].copy()
    with mock.patch.object(_kernels, "_one_step", _declined):
        expected = _kernels.mkl_stream(zs, ys, eta, loss.kind, [loss.mu], expected_thetas, expected_logw)
    got_thetas, got_logw = thetas.copy(), logw[None].copy()
    with mock.patch.object(_kernels, "learner_block", _no_learner_block):
        got = _kernels.mkl_stream(zs, ys, eta, loss.kind, [loss.mu], got_thetas, got_logw)
    assert len(got) == len(expected) == 5
    for a, b in zip((*got, got_thetas, got_logw), (*expected, expected_thetas, expected_logw)):
        assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(streams(steps=st.just(1), etas=st.floats(0.0, 1.0, exclude_min=True), learners=st.integers(1, 16)))
def test_a_pass_without_traces_returns_the_full_passs_loss_and_prediction(stream):
    # what a labelled join keeps of its pass: the combined loss and the
    # combined prediction as two floats, with θ and the log-weights left as
    # the full pass leaves them, on the one-step branch (which then runs no
    # learner_block) and on the general path
    zs, ys, eta, loss, thetas, logw = stream
    for branch, patch in (("one_step", ("learner_block", _no_learner_block)), ("general", ("_one_step", _declined))):
        with mock.patch.object(_kernels, *patch):
            full_thetas, full_logw = thetas.copy(), logw[None].copy()
            full = _kernels.mkl_stream(zs, ys, eta, loss.kind, [loss.mu], full_thetas, full_logw)
            lean_thetas, lean_logw = thetas.copy(), logw[None].copy()
            lean = _kernels.mkl_stream(zs, ys, eta, loss.kind, [loss.mu], lean_thetas, lean_logw, False)
        assert len(lean) == 2 and all(type(value) is float for value in lean), branch
        combined, prediction = lean
        assert np.float64(combined).tobytes() == full[0][0, 0].tobytes(), branch
        assert np.float64(prediction).tobytes() == full[3][0, 0].tobytes(), branch
        assert lean_thetas.tobytes() == full_thetas.tobytes(), branch
        assert lean_logw.tobytes() == full_logw.tobytes(), branch


def test_mkl_update_takes_the_one_step_branch():
    model = _grid_model()
    pattern = np.random.default_rng(5).random(6)
    with mock.patch.object(_kernels, "_one_step", _declined):
        expected, expected_traces = mkl.mkl_update(model, pattern, 0.7)
    with mock.patch.object(_kernels, "learner_block", _no_learner_block):
        got, got_traces = mkl.mkl_update(model, pattern, 0.7)
    assert got.thetas.tobytes() == expected.thetas.tobytes()
    assert got.log_weights.tobytes() == expected.log_weights.tobytes()
    for name in ("combined_loss", "per_kernel_loss", "weights", "prediction", "max_grad"):
        a, b = getattr(got_traces, name), getattr(expected_traces, name)
        assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("kind", _kernels.LOSS_KINDS)
def test_a_labelled_join_takes_the_one_step_branch(kind):
    # a labelled join is a grid of one mu over one sample, as mkl_update is;
    # one update first, so the join starts from nonzero weights
    rng = np.random.default_rng(6)
    model, _ = mkl.mkl_update(_grid_model(kind), rng.random(6), 1.0)
    pattern = rng.random(6)
    with mock.patch.object(_kernels, "_one_step", _declined):
        expected_score, expected = mkl.absorb_new_node_mkl(model, pattern, -1.0)
    with mock.patch.object(_kernels, "learner_block", _no_learner_block):
        score, got = mkl.absorb_new_node_mkl(model, pattern, -1.0)
    assert score != 0.0 and np.float64(score).tobytes() == np.float64(expected_score).tobytes()
    assert got.thetas.tobytes() == expected.thetas.tobytes()
    assert got.log_weights.tobytes() == expected.log_weights.tobytes()


def _frozen_learner_block(zs, ys, eta, loss, thetas):
    """learner_block as it stood before its record was reduced per block: one
    (2, P, 2D) product and sum per step give the predictions and squared
    norms, and each step's squared gradient norm is summed in the step.  Kept
    here so that the blocked loop and the μ-grid pass are held to it."""
    n_learners, n_steps, width = zs.shape
    record = np.empty((3, n_steps, n_learners))
    kind, shrink = loss.kind, 2.0 * loss.mu
    work = np.empty((2, n_learners, width))
    theta = work[1]
    theta[:] = thetas
    for t in range(n_steps):
        z = zs[:, t]
        work[0] = z
        dots = (work * theta).sum(axis=2)
        record[:2, t] = dots
        g = _kernels.cost_grad_scale(kind, dots[0], ys[t])
        grad = g.reshape((n_learners, 1)) * z
        grad += shrink * theta
        record[2, t] = (grad * grad).sum(axis=1)
        grad *= eta
        theta -= grad
    thetas[:] = theta
    return record


@st.composite
def mu_grids(draw):
    """A stream of P kernels and a μ grid over it: G models' weights, a loss
    per group and a step block of 1 to 9 steps, or the default budget."""
    zs, ys, eta, loss, thetas, logw = draw(streams(steps=st.sampled_from([0, 1]) | st.integers(2, 40)))
    n_groups = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mus = draw(st.lists(st.sampled_from([0.0, 1e-6, 1e-2, 0.5]), min_size=n_groups, max_size=n_groups))
    losses = [_kernels.LossKind(loss.kind, mu) for mu in mus]
    thetas = np.concatenate([thetas[None], rng.normal(scale=0.5, size=(n_groups - 1,) + thetas.shape)])
    logw = np.concatenate([logw[None], rng.normal(size=(n_groups - 1,) + logw.shape)])
    block = draw(st.sampled_from([1, 2, 3, 9, None]))
    return zs, ys, eta, losses, thetas, logw, block


@settings(max_examples=200, deadline=None)
@given(mu_grids())
def test_grid_pass_is_each_groups_frozen_pass_bit_for_bit(grid):
    zs, ys, eta, losses, thetas, logw, block = grid
    n_groups, n_kernels, width = thetas.shape
    stacked = np.concatenate([zs] * n_groups)
    budget = _kernels._STEP_BLOCK_BYTES if block is None else block * 16 * n_groups * n_kernels * width
    block_thetas = thetas.reshape(-1, width).copy()
    stream_thetas, stream_logw = block_thetas.copy(), logw.copy()
    with mock.patch.object(_kernels, "_STEP_BLOCK_BYTES", budget):
        kind, mus = losses[0].kind, [loss.mu for loss in losses]
        record = _kernels.learner_block(stacked, ys, eta, kind, mus, block_thetas)
        got = _kernels.mkl_stream(stacked, ys, eta, kind, mus, stream_thetas, stream_logw)
        if n_groups == 1:  # a grid of one, read as group 0
            one_thetas, one_logw = thetas[0].copy(), logw[0].copy()
            one = _one_group(zs, ys, eta, losses[0], one_thetas, one_logw)
    assert [a.shape for a in got] == [
        (len(ys), n_groups), (len(ys), n_groups, n_kernels), (len(ys), n_groups, n_kernels),
        (len(ys), n_groups), (n_groups, n_kernels),
    ]
    for g, loss in enumerate(losses):
        rows = slice(g * n_kernels, (g + 1) * n_kernels)
        frozen_thetas = thetas[g].copy()
        frozen = _frozen_learner_block(zs, ys, eta, loss, frozen_thetas)
        assert np.ascontiguousarray(record[:, :, rows]).tobytes() == frozen.tobytes()
        assert block_thetas[rows].tobytes() == stream_thetas[rows].tobytes() == frozen_thetas.tobytes()
        *expected, expected_logw = _concatenating_replay(frozen, ys, eta, loss, logw[g])
        group = (got[0][:, g], got[1][:, g], got[2][:, g], got[3][:, g], got[4][g])
        for a, b in zip(group, expected):
            assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()
        assert stream_logw[g].tobytes() == expected_logw.tobytes()
        if n_groups == 1:
            for a, b in zip(one, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert one_thetas.tobytes() == frozen_thetas.tobytes()
            assert one_logw.tobytes() == expected_logw.tobytes()


def _grid_model(kind="least_squares"):
    return mkl.mkl_init([KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 5.0)], 4, 6, 0.5, 0.0, kind, 3)


@pytest.mark.parametrize("kind", _kernels.LOSS_KINDS)
def test_grid_training_is_each_models_own_training(kind):
    mus = [1e-3, 0.0, 0.5]
    rng = np.random.default_rng(4)
    zs = mkl.mkl_encode(_grid_model(kind), rng.random((40, 6)))
    labels = rng.choice([-1.0, 1.0], size=40)
    # a trained model, so the grid starts from weights other than the zero model's
    base, _ = mkl.mkl_train_encoded(_grid_model(kind), zs[:, :10], labels[:10])
    zs, labels = zs[:, 10:], labels[10:]
    for mu, (trained, traces) in zip(mus, mkl.mkl_train_grid(base, mus, zs, labels)):
        model = dataclasses.replace(base, loss=_kernels.LossKind(kind, mu))
        # the model's own pass: the stream as a grid of its one μ, from copies of its weights
        thetas, logw = base.thetas.copy(), base.log_weights.copy()
        expected_traces = mkl.MklTraces(*_one_group(zs, labels, base.eta, model.loss, thetas, logw))
        assert trained.loss == model.loss and trained.maps == base.maps
        for a, b in ((trained.thetas, thetas), (trained.log_weights, logw)):
            assert a.tobytes() == b.tobytes() and not a.flags.writeable
        for name in ("combined_loss", "per_kernel_loss", "weights", "prediction", "max_grad"):
            a, b = getattr(traces, name), getattr(expected_traces, name)
            assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()


def test_grid_training_checks_labels_and_models():
    base = _grid_model("hinge")
    zs = mkl.mkl_encode(base, np.ones((3, 6)))
    with pytest.raises(ValueError, match=r"hinge loss requires labels in \{-1, \+1\}, got 0.5"):
        mkl.mkl_train_grid(base, [1e-3, 0.5], zs, [1.0, 0.5, -1.0])
    # the grid trains its one model only on that model's own encoding shape
    other = mkl.mkl_init([KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 5.0)], 8, 6, 0.5, 0.0, "hinge", 3)
    with pytest.raises(ValueError, match=r"encodings have shape \(2, 3, 16\), expected \(2, 3, 8\)"):
        mkl.mkl_train_grid(base, [1e-3, 0.5], mkl.mkl_encode(other, np.ones((3, 6))), [1.0] * 3)


def test_an_empty_grid_is_refused():
    base = _grid_model()
    with pytest.raises(ValueError, match="mus is empty"):
        mkl.mkl_train_grid(base, [], mkl.mkl_encode(base, np.ones((3, 6))), [1.0] * 3)


def _mkl_run(mu_grid):
    return config.ExperimentConfig(
        n_nodes=80, sample_fraction=0.5, trials=1, methods=("mkl",), d=8, mu_grid=mu_grid
    )


@pytest.mark.parametrize("mu_grid", [(1e-3,), (1e-3, 1e-1), (1e-7, 1e-5, 1e-3, 1e-1, 1.0)])
def test_mkl_cv_trains_the_whole_grid_in_one_stream_pass(monkeypatch, mu_grid):
    calls = []
    mkl_stream = _kernels.mkl_stream

    def counting(zs, *args):
        calls.append(zs.shape)
        return mkl_stream(zs, *args)

    monkeypatch.setattr(_kernels, "mkl_stream", counting)
    harness.run_synthetic(_mkl_run(mu_grid))
    # 40 sampled nodes, 30 of them in the CV prefix; 2 kernels of 2D = 16
    cv = [(2 * len(mu_grid), 30, 16)] if len(mu_grid) > 1 else []
    assert calls == cv + [(2, 40, 16)]


@pytest.mark.parametrize("position", ["first", "last"])
def test_a_diverging_mu_in_the_grid_raises(position):
    # a step of eta * 2 mu = 1e10 multiplies the weights by about -1e10 per
    # step, so they overflow within 30 steps.  ExperimentConfig refuses such a
    # grid, so the guard is reached through the grid pass itself
    mu_grid = (1e10, 1e-3, 1e-1) if position == "first" else (1e-3, 1e-1, 1e10)
    model = _grid_model()
    rng = np.random.default_rng(5)
    zs = mkl.mkl_encode(model, rng.random((30, 6)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="diverged"):
            mkl.mkl_train_grid(model, mu_grid, zs, rng.standard_normal(30))


@settings(max_examples=60, deadline=None)
@given(streams())
def test_max_grad_matches_descent_replay(stream):
    zs, ys, eta, loss, thetas, logw = stream
    _, _, _, ref_max_grad = _reference_learners(zs, ys, eta, loss, thetas)
    *_, max_grad = _one_group(zs, ys, eta, loss, thetas.copy(), logw)
    np.testing.assert_allclose(max_grad, ref_max_grad, rtol=1e-12, atol=0.0)


def _reference_oracle(zs, ys, mu):
    """One solve per prefix, charged the residual of its own solution."""
    n_steps, dim = zs.shape
    gram = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    out = np.empty(n_steps)
    for t in range(n_steps):
        gram += np.outer(zs[t], zs[t])
        rhs += zs[t] * ys[t]
        if mu > 0:
            theta = np.linalg.solve(gram + mu * (t + 1) * np.eye(dim), rhs)
        else:
            theta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        resid = zs[: t + 1] @ theta - ys[: t + 1]
        out[t] = resid @ resid + (t + 1) * mu * (theta @ theta)
    return out


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 40),
    block=st.integers(1, 9),
    n_steps=st.integers(1, 70),
    mu=st.sampled_from([0.0, 1e-6, 1e-3, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_oracle_matches_per_prefix_solves(dim, block, n_steps, mu, seed):
    rng = np.random.default_rng(seed)
    zs = rng.normal(size=(n_steps, dim))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    ys = rng.normal(size=n_steps)
    with mock.patch.object(harness, "_ORACLE_BLOCK_BYTES", block * 8 * (dim + 1) ** 2):
        oracle = harness._prefix_oracle_losses(zs[None], ys, mu)[0]
    # the Schur complement cancels against y'y, so a loss near zero carries
    # rounding error on the scale of y'y rather than of itself
    np.testing.assert_allclose(
        oracle, _reference_oracle(zs, ys, mu), rtol=1e-9, atol=1e-12 * (1.0 + ys @ ys)
    )


def _running_sum_oracle(zs, ys, mu):
    """One kernel's oracle, one prefix at a time: the bordered gram summed by a
    plain running-sum loop, then one np.linalg.cholesky per prefix (with mu =
    0, the residual of one least squares fit per prefix)."""
    n_steps, dim = zs.shape
    gram = np.zeros((dim + 1, dim + 1))
    out = np.empty(n_steps)
    for t in range(n_steps):
        row = np.append(zs[t], ys[t])
        gram = gram + np.outer(row, row)
        if mu == 0:
            theta = np.linalg.lstsq(gram[:dim, :dim], gram[:dim, dim], rcond=None)[0]
            resid = zs[: t + 1] @ theta - ys[: t + 1]
            out[t] = resid @ resid
            continue
        bordered = gram.copy()
        bordered[range(dim), range(dim)] += mu * (t + 1)
        # pivot * pivot, as the oracle's array ** 2 is: a scalar's ** 2 calls
        # pow, which can differ from the product by one ulp
        pivot = 0.0 if bordered[dim, dim] == 0.0 else np.linalg.cholesky(bordered)[-1, -1]
        out[t] = pivot * pivot
    return out


@settings(max_examples=60, deadline=None)
@given(
    n_kernels=st.integers(1, 3),
    dim=st.integers(1, 30),
    block=st.integers(1, 9),
    n_steps=st.integers(1, 60),
    zero_labels=st.integers(0, 5),
    mu=st.sampled_from([0.0, 1e-6, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_oracle_is_one_kernel_calls_bit_for_bit(n_kernels, dim, block, n_steps, zero_labels, mu, seed):
    # the budget holds `block` one-kernel grams, so a P-kernel call blocks its
    # prefixes differently from the one-kernel calls it is compared with
    rng = np.random.default_rng(seed)
    zs = rng.normal(size=(n_kernels, n_steps, dim))
    zs /= np.linalg.norm(zs, axis=2, keepdims=True)
    ys = rng.normal(size=n_steps)
    ys[:zero_labels] = 0.0
    with mock.patch.object(harness, "_ORACLE_BLOCK_BYTES", block * 8 * (dim + 1) ** 2):
        stacked = harness._prefix_oracle_losses(zs, ys, mu)
        single = [harness._prefix_oracle_losses(zs[p : p + 1], ys, mu) for p in range(n_kernels)]
    assert stacked.shape == (n_kernels, n_steps)
    assert np.array_equal(stacked, np.concatenate(single))
    assert np.all(stacked[:, :zero_labels] == 0.0)
    assert np.array_equal(single[0][0], _running_sum_oracle(zs[0], ys, mu))


def test_stacked_oracle_peaks_at_about_two_blocks_of_grams():
    # one block's prefix grams and their Cholesky factors, over all kernels
    # together; the budget is not per kernel, and the bordered rows are not
    # copied for the whole stream (3 kernels' would take 1 MB here)
    rng = np.random.default_rng(0)
    zs = rng.normal(size=(3, 2000, 20))
    zs /= np.linalg.norm(zs, axis=2, keepdims=True)
    ys = rng.normal(size=2000)
    tracemalloc.start()
    try:
        harness._prefix_oracle_losses(zs, ys, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * harness._ORACLE_BLOCK_BYTES


@settings(max_examples=30, deadline=None)
@given(steps=st.integers(1, 90), dim=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
def test_in_place_cumsum_is_the_running_sum_loop_bit_for_bit(steps, dim, seed):
    # an in-place np.cumsum adds the same pairs in the same order as the
    # running-sum loop, so either may sum the oracle's prefix grams; the
    # oracle runs the loop, one prefix row at a time
    a = np.random.default_rng(seed).normal(size=(steps, dim, dim))
    reference = a.copy()
    for k in range(1, steps):
        reference[k] += reference[k - 1]
    np.cumsum(a, axis=0, out=a)
    assert np.array_equal(a, reference)


def _exact_oracle(zs, ys, mu):
    """Each prefix's ridge loss in exact rational arithmetic: the last pivot
    of Gaussian elimination on its bordered gram [[G + t mu I, r], [r', y'y]],
    which is y'y - r' (G + t mu I)^-1 r."""
    n_steps, dim = zs.shape
    rows = [[Fraction(v) for v in z] + [Fraction(y)] for z, y in zip(zs.tolist(), ys.tolist())]
    out = []
    for t in range(1, n_steps + 1):
        a = [[sum(row[i] * row[j] for row in rows[:t]) for j in range(dim + 1)] for i in range(dim + 1)]
        for i in range(dim):
            a[i][i] += t * Fraction(mu)
        for k in range(dim):
            for i in range(k + 1, dim + 1):
                scale = a[i][k] / a[k][k]
                for j in range(k, dim + 1):
                    a[i][j] -= scale * a[k][j]
        out.append(a[dim][dim])
    return out


# derandomized: the rounding of y'y leaves a relative error of a few eps/mu,
# up to 8.2e-10 over 12,000 random draws, so a fixed set of examples keeps
# this bound from flaking
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 4),
    n_steps=st.integers(1, 12),
    mu=st.sampled_from([1e-6, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_is_the_exact_ridge_loss_at_every_prefix(dim, n_steps, mu, seed):
    # prefixes t <= dim are included: there G is singular, and the loss is
    # only the ridge term's share of y'y
    rng = np.random.default_rng(seed)
    zs = rng.normal(size=(n_steps, dim))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    ys = rng.normal(size=n_steps)
    exact = _exact_oracle(zs, ys, mu)
    assert all(loss > 0 for loss in exact)
    np.testing.assert_allclose(harness._prefix_oracle_losses(zs[None], ys, mu)[0], [float(v) for v in exact], rtol=1e-9)


def test_oracle_block_holds_one_prefix_at_large_dim():
    dim = 200
    assert harness._ORACLE_BLOCK_BYTES // (8 * (dim + 1) ** 2) == 0
    rng = np.random.default_rng(0)
    zs = rng.normal(size=(3, dim))
    ys = rng.normal(size=3)
    np.testing.assert_allclose(
        harness._prefix_oracle_losses(zs[None], ys, 1e-3)[0], _reference_oracle(zs, ys, 1e-3), rtol=1e-9
    )


def test_learner_runs_as_plain_numpy_even_with_numba_importable(tmp_path):
    # a numba on the path whose njit fails loudly: importing graphrf must
    # neither import it nor compile anything with it
    fake = tmp_path / "numba"
    fake.mkdir()
    (fake / "__init__.py").write_text(
        "def njit(*args, **kwargs):\n    raise AssertionError('numba.njit called')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "GRAPHRF_NUMBA"}
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(src)])
    probe = textwrap.dedent(
        """
        import sys, types
        import graphrf
        assert "numba" not in sys.modules
        assert type(graphrf._kernels.learner_block) is types.FunctionType
        """
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
