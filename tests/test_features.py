import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrf import (
    KernelSpec,
    RFMap,
    approx_kernel,
    build_map,
    erdos_renyi,
    eval_kernel,
    load_map,
    null_space_collision,
    save_map,
)
from graphrf.features import _HEADER, _MAGIC, LAYOUT_VERSION, _map_bytes, _map_from_bytes

# byte offset and struct format of the header fields a map file's reader checks
HEADER_FIELDS = {"d": (16, "<Q"), "n": (24, "<Q"), "family": (32, "<B"), "bandwidth": (33, "<d")}
BODY = len(_MAGIC) + struct.calcsize(_HEADER)


def manual_map(v_matrix, family="gaussian", bandwidth=1.0, seed=0):
    return RFMap(v_matrix=np.asarray(v_matrix, dtype=float), kernel=KernelSpec(family, bandwidth), seed=seed)


class TestEncode:
    def test_zero_pattern(self):
        m = build_map(KernelSpec("gaussian", 1.0), 3, 8, seed=1)
        z = m.encode(np.zeros(8))
        expected = np.concatenate([np.zeros(3), np.full(3, 3**-0.5)])
        np.testing.assert_allclose(z, expected, atol=1e-15)

    def test_quarter_period(self):
        # single spectral sample with v.a = pi/2 encodes to (1, 0)
        m = manual_map([[math.pi / 2]])
        z = m.encode(np.array([1.0]))
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)

    def test_unit_norm_many_inputs(self):
        rng = np.random.default_rng(2)
        for d in (1, 4, 32):
            m = build_map(KernelSpec("gaussian", 1.0), d, 10, seed=d)
            pats = rng.normal(size=(500, 10)) * 3
            z = m.encode_batch(pats)
            np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_output_length(self):
        m = build_map(KernelSpec("laplacian", 1.0), 7, 5, seed=0)
        assert m.encode(np.zeros(5)).size == 14

    def test_batch_matches_single(self):
        m = build_map(KernelSpec("gaussian", 2.0), 6, 9, seed=3)
        pats = np.random.default_rng(4).normal(size=(5, 9))
        batch = m.encode_batch(pats)
        for i in range(5):
            np.testing.assert_allclose(batch[i], m.encode(pats[i]), atol=1e-14)

    def test_dimension_mismatch(self):
        m = build_map(KernelSpec("gaussian", 1.0), 3, 8, seed=1)
        with pytest.raises(ValueError):
            m.encode(np.zeros(7))

    def test_two_d_pattern_rejected_with_its_shape(self):
        m = build_map(KernelSpec("gaussian", 1.0), 3, 8, seed=1)
        with pytest.raises(ValueError, match=r"1-d, got shape \(1, 8\)"):
            m.encode(np.zeros((1, 8)))

    def test_stack_of_pattern_arrays_rejected(self):
        m = build_map(KernelSpec("gaussian", 1.0), 3, 8, seed=1)
        with pytest.raises(ValueError, match=r"\(T, N\) array.*\(2, 8, 8\)"):
            m.encode_batch(np.zeros((2, 8, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pattern_rejected(self, bad):
        m = build_map(KernelSpec("gaussian", 1.0), 3, 8, seed=1)
        pats = np.zeros((2, 8))
        pats[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            m.encode_batch(pats)


class TestApproxKernel:
    def test_same_input_gives_one(self):
        m = build_map(KernelSpec("gaussian", 1.0), 16, 6, seed=5)
        a = np.random.default_rng(6).normal(size=6)
        assert approx_kernel(m, a, a) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        m = build_map(KernelSpec("gaussian", 1.0), 16, 6, seed=5)
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 6))
        assert approx_kernel(m, a, b) == approx_kernel(m, b, a)

    def test_unbiased_monte_carlo(self):
        # with D = 1 the estimator is crude but unbiased: the mean over many
        # independent maps must match the closed form within 3 standard errors
        spec = KernelSpec("gaussian", 1.0)
        rng = np.random.default_rng(8)
        a, b = (rng.integers(0, 2, size=12).astype(float) for _ in range(2))
        exact = eval_kernel(spec, a, b)
        estimates = np.array(
            [approx_kernel(build_map(spec, 1, 12, seed=s), a, b) for s in range(1000)]
        )
        stderr = estimates.std() / math.sqrt(estimates.size)
        assert abs(estimates.mean() - exact) <= 3 * stderr

    def test_shift_invariant_in_expectation(self):
        # a single map is not shift-invariant, but the average over maps is
        spec = KernelSpec("gaussian", 1.0)
        rng = np.random.default_rng(9)
        a, b, c = rng.normal(size=(3, 8))
        orig = np.mean([approx_kernel(build_map(spec, 4, 8, seed=s), a, b) for s in range(400)])
        shifted = np.mean(
            [approx_kernel(build_map(spec, 4, 8, seed=s), a + c, b + c) for s in range(400, 800)]
        )
        assert orig == pytest.approx(shifted, abs=0.05)


class TestNullSpaceCollision:
    def test_collision_encodes_identically(self):
        rng = np.random.default_rng(10)
        m = build_map(KernelSpec("gaussian", 1.0), 3, 10, seed=11)
        a = rng.normal(size=10)
        a2 = null_space_collision(m, a)
        assert np.linalg.norm(a2 - a) > 0
        assert np.linalg.norm(m.encode(a) - m.encode(a2)) <= 1e-10

    def test_zero_map_any_direction_collides(self):
        m = manual_map(np.zeros((2, 4)))
        a = np.arange(4.0)
        a2 = null_space_collision(m, a)
        assert np.linalg.norm(m.encode(a) - m.encode(a2)) <= 1e-12

    def test_null_direction_scales(self):
        m = build_map(KernelSpec("gaussian", 1.0), 2, 8, seed=12)
        a = np.zeros(8)
        direction = null_space_collision(m, a)  # a + basis vector
        for scale in (0.5, 3.0, -7.0):
            z = m.encode(a + scale * direction)
            np.testing.assert_allclose(z, m.encode(a), atol=1e-9)

    def test_full_rank_map_raises(self):
        m = build_map(KernelSpec("gaussian", 1.0), 8, 4, seed=13)
        with pytest.raises(ValueError, match="full column rank"):
            null_space_collision(m, np.zeros(4))


class TestInversionBoundary:
    """Whoever holds the map inverts an encoding whenever D >= N: arctan2 of
    the sin and cos halves gives V a, and one least-squares solve gives a."""

    @staticmethod
    def recovery_errors(d):
        rng = np.random.default_rng(20)
        pats = (rng.random((200, 50)) < 0.2).astype(float)
        pats[np.arange(200), rng.integers(0, 50, size=200)] = 1.0  # at least one 1 each
        pats /= np.linalg.norm(pats, axis=1, keepdims=True)
        m = build_map(KernelSpec("gaussian", 5.0), d, 50, seed=21)
        z = m.encode_batch(pats)
        angles = np.arctan2(z[:, :d], z[:, d:])
        recovered = np.linalg.lstsq(m.v_matrix, angles.T, rcond=None)[0].T
        return np.linalg.norm(recovered - pats, axis=1)

    def test_recovered_when_d_at_least_n(self):
        assert self.recovery_errors(100).max() <= 1e-12

    def test_not_recovered_when_d_below_n(self):
        assert np.median(self.recovery_errors(20)) > 0.5


@pytest.fixture(scope="module")
def map_file(tmp_path_factory):
    """The bytes of a saved D = 3, N = 4 map, and a path to write changed copies to."""
    path = tmp_path_factory.mktemp("map") / "map.rfm"
    save_map(build_map(KernelSpec("laplacian", 1.5), 3, 4, seed=5), path)
    return path.read_bytes(), path


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = build_map(KernelSpec("laplacian", 2.5), 9, 14, seed=99)
        path = tmp_path / "map.rfm"
        save_map(m, path)
        loaded = load_map(path)
        assert np.array_equal(loaded.v_matrix, m.v_matrix)
        assert loaded.kernel == m.kernel
        assert loaded.seed == m.seed
        assert loaded.ref == m.ref
        assert m.ref.endswith(f":L{LAYOUT_VERSION}")

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.rfm"
        path.write_bytes(b"not a map at all")
        with pytest.raises(ValueError):
            load_map(path)

    @pytest.mark.parametrize("keep", [12, 40, -8])
    def test_rejects_truncated_file(self, tmp_path, keep):
        # 12 and 40 bytes cut into the header, -8 drops the last matrix entry
        path = tmp_path / "map.rfm"
        save_map(build_map(KernelSpec("gaussian", 1.0), 3, 5, seed=2), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated"):
            load_map(path)

    def test_rejects_another_layout(self, tmp_path):
        path = tmp_path / "map.rfm"
        save_map(build_map(KernelSpec("gaussian", 1.0), 3, 5, seed=2), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 12, 7)  # the layout field follows the 8-byte magic and the format version
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported map layout 7"):
            load_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_rejected(self, bad):
        v = np.zeros((2, 3))
        v[1, 2] = bad
        with pytest.raises(ValueError, match="v_matrix must be finite"):
            manual_map(v)

    @pytest.mark.parametrize("d, n", [(0, 5), (3, 0)])
    def test_zero_size_map_refused(self, tmp_path, d, n):
        with pytest.raises(ValueError, match=rf"v_matrix needs D >= 1 and N >= 1, got shape \({d}, {n}\)"):
            manual_map(np.zeros((d, n)))
        raw = bytearray(_map_bytes(build_map(KernelSpec("gaussian", 1.0), 3, 5, seed=2))[:BODY])
        struct.pack_into("<QQ", raw, HEADER_FIELDS["d"][0], d, n)  # an empty body is all that D * N = 0 needs
        path = tmp_path / "map.rfm"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"D >= 1 and N >= 1"):
            load_map(path)

    def test_a_zero_size_header_is_refused_before_the_body_is_shaped(self):
        # D = 0 with N = 2^64 - 1 passes the size check with an empty body,
        # and reshaping that body would fail inside numpy, naming no field
        header = _MAGIC + struct.pack(_HEADER, 1, 1, 0, 2**64 - 1, 0, 1.0, 0)
        with pytest.raises(ValueError, match=r"^map header field D is 0; a map needs D >= 1 and N >= 1$"):
            _map_from_bytes(header)

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 4), n=st.integers(1, 4), data=st.data())
    def test_a_changed_header_field_reloads_or_is_refused(self, d, n, data):
        raw = bytearray(_map_bytes(build_map(KernelSpec("cauchy", 2.0), d, n, seed=3)))
        name = data.draw(st.sampled_from(sorted(HEADER_FIELDS)), label="field")
        if name == "bandwidth":
            value = data.draw(st.floats(), label="value")
        elif name == "family":
            value = data.draw(st.integers(0, 255), label="value")
        else:
            value = data.draw(st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)), label="value")
            size = value * (n if name == "d" else d)
            if size <= 64:  # the body the new header asks for
                raw = raw[:BODY] + np.linspace(-1.0, 1.0, size).astype("<f8").tobytes()
        offset, fmt = HEADER_FIELDS[name]
        struct.pack_into(fmt, raw, offset, value)
        try:
            loaded = _map_from_bytes(bytes(raw))
        except ValueError:
            return
        z = loaded.encode(np.linspace(0.0, 1.0, loaded.n))
        assert z.shape == (2 * loaded.d,)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)

    # a file cut at any byte, or with any one byte replaced, must load to a
    # finite, read-only map or be refused with a ValueError, and raise nothing else
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_truncated_or_changed_file_loads_or_is_refused(self, map_file, data):
        raw, path = map_file
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            changed = raw[:at]
        else:
            changed = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at + 1 :]
        path.write_bytes(changed)
        try:
            loaded = load_map(path)
        except ValueError:
            return
        assert np.isfinite(loaded.v_matrix).all() and not loaded.v_matrix.flags.writeable

    def test_ref_distinguishes_maps(self):
        a = build_map(KernelSpec("gaussian", 1.0), 4, 6, seed=0)
        b = build_map(KernelSpec("gaussian", 2.0), 4, 6, seed=0)
        c = build_map(KernelSpec("gaussian", 1.0), 4, 6, seed=1)
        assert len({a.ref, b.ref, c.ref}) == 3


def test_pointwise_error_shrinks_with_d():
    # empirical max pairwise error over a small graph's patterns decreases
    # in the median as the number of spectral samples grows
    spec = KernelSpec("gaussian", 1.0)
    g = erdos_renyi(20, 0.3, seed=21)
    pats = g.adjacency.T
    exact = np.array([[eval_kernel(spec, a, b) for b in pats] for a in pats])
    medians = []
    for d in (10, 100, 1000):
        errs = []
        for rep in range(10):
            m = build_map(spec, d, 20, seed=1000 * d + rep)
            z = m.encode_batch(pats)
            errs.append(np.abs(z @ z.T - exact).max())
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]
