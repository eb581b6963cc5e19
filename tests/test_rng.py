import re
import tracemalloc

import numpy as np
import pytest

from neonext.errors import ParameterError
from neonext.rng import _CHUNK, _U53, Rng


class TestStream:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(42).next_u64(100), Rng(42).next_u64(100))

    def test_chunking_does_not_change_stream(self):
        a = Rng(7)
        chunks = np.concatenate([a.next_u64(3), a.next_u64(5), a.next_u64(2)])
        assert np.array_equal(chunks, Rng(7).next_u64(10))

    def test_known_draws_pinned(self):
        # frozen so the documented algorithm can never drift silently
        assert int(Rng(0).next_u64(1)[0]) == 16294208416658607535
        assert int(Rng(1).next_u64(1)[0]) == 10451216379200822465

    def test_matches_pure_python_splitmix64(self):
        mask = (1 << 64) - 1

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        seed = 987654321
        want = [mix((seed + i * 0x9E3779B97F4A7C15) & mask) for i in range(1, 9)]
        assert Rng(seed).next_u64(8).tolist() == want

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).next_u64(8), Rng(2).next_u64(8))

    def test_uniform_range(self):
        u = Rng(9).uniform(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))

    def test_derive_independent_and_deterministic(self):
        a = Rng(5).derive(1).next_u64(4)
        b = Rng(5).derive(2).next_u64(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(5).derive(1).next_u64(4))

    def test_integers_bounds(self):
        v = Rng(11).integers(10000, 9)
        assert v.min() >= 0 and v.max() <= 8


class TestGaussianFill:
    """``Rng.normal``: the N(0, sigma^2) fill every weight init draws."""

    def test_sigma_zero_gives_zero_matrix(self):
        m = Rng(1).normal((3, 4), 0.0)
        assert m.shape == (3, 4)
        assert not m.any()

    def test_seed_42_twice_identical(self):
        a = Rng(42).normal((5, 6), 1.0)
        b = Rng(42).normal((5, 6), 1.0)
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            Rng(0).normal((2, 2), -1.0)

    def test_million_sample_statistics(self):
        m = Rng(1234).normal((1000, 1000), 1.0)
        assert abs(m.mean()) <= 4.0 / 1000.0      # 4*sigma/sqrt(n)
        assert 0.995 <= m.std() <= 1.005

    def test_scaling(self):
        base = Rng(8).normal((4, 4), 1.0)
        scaled = Rng(8).normal((4, 4), 2.5)
        assert np.allclose(scaled, 2.5 * base, rtol=0, atol=0)


BAD_SIZES = {
    "standard_normal": (lambda r: r.standard_normal(-1), "standard_normal: n must be >= 0, got -1"),
    "normal-shape": (lambda r: r.normal((2, -1)), "normal: shape must have no negative dims, got (2, -1)"),
    "normal-nan-sigma": (lambda r: r.normal((2, 2), float("nan")), "normal: sigma must be finite and >= 0, got nan"),
    "normal-inf-sigma": (lambda r: r.normal((2, 2), float("inf")), "normal: sigma must be finite and >= 0, got inf"),
    "next_u64": (lambda r: r.next_u64(-4), "next_u64: n must be >= 0, got -4"),
    "uniform": (lambda r: r.uniform(-3), "uniform: n must be >= 0, got -3"),
    "permutation": (lambda r: r.permutation(-1), "permutation: n must be >= 0, got -1"),
    "integers": (lambda r: r.integers(-2, 5), "integers: n must be >= 0, got -2"),
}


class TestBadSizes:
    @pytest.mark.parametrize("call, message", BAD_SIZES.values(), ids=BAD_SIZES)
    def test_names_the_method_and_the_value(self, call, message):
        rng = Rng(1)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call(rng)
        assert rng.next_u64(2).tolist() == Rng(1).next_u64(2).tolist()   # nothing drawn

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # masking it would make Rng(2**64) Rng(0) and Rng(-1) Rng(2**64 - 1)
        with pytest.raises(ParameterError, match=f"^Rng: seed must be in \\[0, 2\\*\\*64\\), got {seed}$"):
            Rng(seed)

    def test_seed_range_ends_are_valid(self):
        assert Rng(0).seed == 0 and Rng(2**64 - 1).seed == 2**64 - 1

    def test_empty_draws_are_valid(self):
        assert Rng(1).standard_normal(0).shape == (0,)
        assert Rng(1).normal((2, 0)).shape == (2, 0)

    def test_normal_is_scaled_standard_normal(self):
        a = Rng(4).normal((3, 5), 0.25)
        assert a.tobytes() == (Rng(4).standard_normal(15) * 0.25).reshape(3, 5).tobytes()


def one_shot_standard_normal(rng, n):
    """The module docstring's Box-Muller on one draw of all ceil(n/2)*2 raws."""
    pairs = (n + 1) // 2
    raw = rng.next_u64(2 * pairs)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _U53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


class TestChunkedNormals:
    @pytest.mark.parametrize("n", [0, 1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_chunks_give_the_one_shot_draw(self, n):
        # drawn after a first odd draw, so the stream starts mid-way
        got_rng, want_rng = Rng(9), Rng(9)
        got_rng.standard_normal(3), want_rng.standard_normal(3)
        got = got_rng.standard_normal(n)
        want = one_shot_standard_normal(want_rng, n)
        assert got.shape == (n,) and got.tobytes() == want.tobytes()
        assert got_rng.next_u64(2).tolist() == want_rng.next_u64(2).tolist()

    def test_large_normal_peaks_near_its_result(self):
        # a one-shot draw peaked at 4.5x its result
        rng = Rng(10)
        tracemalloc.start()
        try:
            a = rng.normal((8, 96, 56, 56), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * a.nbytes
