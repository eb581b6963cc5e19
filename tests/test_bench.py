import importlib
from fractions import Fraction

import numpy as np
import pytest

from neonext.bench import (
    BENCH_CSV_HEADER,
    BENCH_OPS,
    _bench_callable,
    append_bench_csv,
    bench,
    dwconv_reference,
    flops_dwconv,
    flops_neocell,
)
from neonext.errors import ConfigError, ShapeError
from neonext.neocell import MultCounter
from neonext.rng import Rng
from neonext.tensor import Tensor4

bench_module = importlib.import_module("neonext.bench")   # the package root exports a bench() function


def scalar_dwconv(x, kernels):
    """Second implementation with the loop nest flipped (pixels outer),
    taps accumulated in the same (di, dj) order."""
    n, c, H, W = x.dims
    k = kernels.shape[1]
    pad = k // 2
    out = np.zeros((n, c, H, W))
    xs = x.array
    for b in range(n):
        for ch in range(c):
            for i in range(H):
                for j in range(W):
                    acc = 0.0
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i + di - pad, j + dj - pad
                            v = xs[b, ch, ii, jj] if 0 <= ii < H and 0 <= jj < W else 0.0
                            acc += kernels[ch, di, dj] * v
                    out[b, ch, i, j] = acc
    return out


class TestFlopFormulas:
    def test_dwconv_direct_value(self):
        assert flops_dwconv(1, 8, 8, 4).multiplies == 1024

    def test_dwconv_pointwise_degenerate(self):
        assert flops_dwconv(5, 6, 7, 1).multiplies == 5 * 6 * 7

    def test_neocell_direct_value_and_ratio(self):
        cost = flops_neocell(1, 8, 8, 4)
        assert cost.multiplies == 512
        assert cost.multiplies / flops_dwconv(1, 8, 8, 4).multiplies == 0.5

    def test_neocell_divisibility(self):
        with pytest.raises(ShapeError):
            flops_neocell(1, 9, 8, 4)

    def test_ratio_exactly_two_over_k(self):
        shapes = [(1, k, k, k) for k in (2, 3, 4, 5, 7, 8, 14)]
        for c, h, w, k in shapes + [(3, 8, 8, 4), (96, 56, 56, 7), (16, 28, 42, 7), (1, 2, 2, 2)]:
            ratio = Fraction(flops_neocell(c, h, w, k).multiplies, flops_dwconv(c, h, w, k).multiplies)
            assert ratio == Fraction(2, k)

    def test_crossover_neocell_cheaper_iff_k_above_2(self):
        for k in (3, 4, 5, 7):
            h = w = 8 * k
            assert flops_neocell(1, h, w, k).multiplies < flops_dwconv(1, h, w, k).multiplies
        assert flops_neocell(1, 8, 8, 2).multiplies == flops_dwconv(1, 8, 8, 2).multiplies


class TestInstrumentedCounters:
    def test_neocell_counter_matches_formula(self):
        for c, h, w, k in [(1, 8, 8, 4), (3, 28, 28, 7), (2, 16, 8, 4)]:
            assert _bench_callable("neocell", c, h, w, k, 0)[1] == flops_neocell(c, h, w, k).multiplies

    def test_dwconv_counter_matches_formula(self):
        for c, h, w, k in [(1, 8, 8, 3), (3, 14, 14, 7), (2, 10, 6, 5)]:
            assert _bench_callable("dwconv", c, h, w, k, 0)[1] == flops_dwconv(c, h, w, k).multiplies

    def test_counters_take_the_top_seed(self):
        assert _bench_callable("neocell", 1, 8, 8, 4, 2**64 - 1)[1] == flops_neocell(1, 8, 8, 4).multiplies
        assert _bench_callable("dwconv", 1, 8, 8, 3, 2**64 - 1)[1] == flops_dwconv(1, 8, 8, 3).multiplies

    def test_counter_accumulates(self):
        counter = MultCounter()
        x = Tensor4(Rng(0).normal((1, 1, 4, 4), 1.0))
        kernels = Rng(1).normal((1, 3, 3), 1.0)
        dwconv_reference(x, kernels, counter)
        dwconv_reference(x, kernels, counter)
        assert counter.multiplies == 2 * 16 * 9


class TestDwconvReference:
    def test_delta_kernel_is_identity(self):
        x = Tensor4(Rng(2).normal((2, 3, 6, 6), 1.0))
        kernels = np.zeros((3, 3, 3))
        kernels[:, 1, 1] = 1.0
        y = dwconv_reference(x, kernels)
        assert np.array_equal(y.array, x.array)

    def test_ones_kernel_interior(self):
        x = Tensor4(np.ones((1, 1, 6, 6)))
        y = dwconv_reference(x, np.ones((1, 3, 3)))
        assert np.allclose(y.array[0, 0, 1:-1, 1:-1], 9.0, rtol=0, atol=0)
        assert y.array[0, 0, 0, 0] == 4.0   # corner sees a 2x2 window

    def test_matches_flipped_loop_nest_bit_exactly(self):
        x = Tensor4(Rng(3).normal((2, 2, 5, 7), 1.0))
        kernels = Rng(4).normal((2, 3, 3), 1.0)
        got = dwconv_reference(x, kernels).array
        want = scalar_dwconv(x, kernels)
        assert np.abs(got - want).max() == 0.0

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            dwconv_reference(Tensor4(np.zeros((1, 1, 4, 4))), np.zeros((1, 4, 4)))


class TestBenchHarness:
    def test_single_iteration_row(self):
        r = bench("neocell", 2, 8, 8, 4, iters=1, warmup=0)
        assert r.iters == 1
        assert r.t_min > 0
        assert r.multiplies == flops_neocell(2, 8, 8, 4).multiplies

    def test_same_seed_identical_outputs(self):
        a = bench("dwconv", 2, 8, 8, 3, iters=1, warmup=0, seed=5)
        b = bench("dwconv", 2, 8, 8, 3, iters=1, warmup=0, seed=5)
        assert a.checksum == b.checksum

    def test_blockdiag_op_runs(self):
        r = bench("blockdiag", 2, 8, 8, 4, iters=1, warmup=0)
        assert r.multiplies > 0

    def test_unknown_op(self):
        with pytest.raises(ConfigError):
            bench("winograd", 1, 8, 8, 3)

    def test_csv_appends_never_rewrites(self, tmp_path):
        path = tmp_path / "bench.csv"
        append_bench_csv(path, bench("neocell", 1, 8, 8, 4, iters=1, warmup=0))
        first = path.read_text()
        append_bench_csv(path, bench("dwconv", 1, 8, 8, 3, iters=1, warmup=0))
        second = path.read_text()
        assert second.startswith(first)
        assert second.splitlines()[0] == BENCH_CSV_HEADER
        assert len(second.splitlines()) == 3

    def test_csv_with_other_header_refused_before_writing(self, tmp_path):
        path = tmp_path / "old.csv"
        old = BENCH_CSV_HEADER.replace(",iters,", ",dtype,iters,")
        path.write_text(old + "\nneocell,1,8,8,4,float64,1,1,0,1024,0.5,1e-05,1e-05,1e-05,1e8\n")
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="old.csv"):
            append_bench_csv(path, bench("neocell", 1, 8, 8, 4, iters=1, warmup=0))
        assert path.read_bytes() == before

    def test_csv_header_written_to_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.touch()
        append_bench_csv(path, bench("neocell", 1, 8, 8, 4, iters=1, warmup=0))
        lines = path.read_text().splitlines()
        assert lines[0] == BENCH_CSV_HEADER and len(lines) == 2


class TestBenchKernels:
    @pytest.mark.parametrize("op", BENCH_OPS)
    def test_callable_returns_the_output_plane(self, op):
        fn, _ = _bench_callable(op, 2, 6, 6, 3, 0)
        y = fn()
        assert y.shape == (1, 2, 6, 6)
        assert y.dtype == np.float64

    def test_blockdiag_runs_the_block_diagonal_product(self, monkeypatch):
        dtypes = []
        real = bench_module.blockdiag_product

        def spy(A, X, B, counter=None):
            dtypes.append((A.dtype, X.dtype, B.dtype))
            return real(A, X, B, counter)

        monkeypatch.setattr(bench_module, "blockdiag_product", spy)
        bench("blockdiag", 2, 6, 6, 3, iters=2, warmup=1)
        assert len(dtypes) == 4   # multiply count, warmup, two timed calls
        assert set(dtypes) == {(np.dtype(np.float64),) * 3}

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigError, match="warmup must be >= 0, got -1"):
            bench("neocell", 2, 8, 8, 4, iters=1, warmup=-1)
