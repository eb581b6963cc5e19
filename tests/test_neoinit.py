import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neonext.errors import ParameterError
from neonext.neocell import GroupSpec, NeoCellSpec, init_part, merge_parts
from neonext.neoinit import format_grid, neoinit_pattern
from neonext.rng import Rng


def one_channel_part(rows, cols):
    """The part ``init-dump`` draws from: one channel, left matrix rows x cols."""
    (part,) = merge_parts(NeoCellSpec((GroupSpec(0, 1, cols, 1, rows, 1),)))
    return part


class TestPatterns:
    """Noise-free outputs frozen from a hand trace of the banding rules."""

    def test_square_is_identity(self):
        assert np.array_equal(neoinit_pattern(7, 7), np.eye(7))

    def test_2x4(self):
        want = [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]
        assert np.array_equal(neoinit_pattern(2, 4), want)

    def test_4x2_transposed_banding(self):
        want = [[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]]
        assert np.array_equal(neoinit_pattern(4, 2), want)

    def test_3x7_trailing_zero_column(self):
        # step = round(7/3) = 2: bands (0,1), (2,3), (4,5); column 6 untouched
        got = neoinit_pattern(3, 7)
        want = np.zeros((3, 7))
        want[0, 0:2] = 0.5
        want[1, 2:4] = 0.5
        want[2, 4:6] = 0.5
        assert np.array_equal(got, want)

    def test_1x2_average_pooling_row(self):
        assert np.array_equal(neoinit_pattern(1, 2), [[0.5, 0.5]])

    def test_2x5_half_up_rounding(self):
        # step = round(5/2) = 3 (half away from zero): [0,3) then [3,5)
        got = neoinit_pattern(2, 5)
        want = np.array([[1 / 3, 1 / 3, 1 / 3, 0, 0], [0, 0, 0, 0.5, 0.5]])
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_4x6_capped_band_leaves_empty_row(self):
        # step = round(6/4) = 2 would need column 6; row 3 ends up empty
        got = neoinit_pattern(4, 6)
        assert not got[3].any()
        assert got[:3].sum() == 3.0

    def test_tall_is_the_transposed_wide_pattern(self):
        for rows in range(1, 13):
            for cols in range(1, 13):
                got = neoinit_pattern(rows, cols)
                assert got.flags.c_contiguous
                assert got.tobytes() == neoinit_pattern(cols, rows).T.tobytes(order="C"), (rows, cols)


def per_channel_init(part, rng):
    """``init_part``'s neoinit as first written, the reference for its one
    block draw per side: one ``rng.normal`` per channel, lefts before rights."""

    def draw(rows, cols):
        pattern = neoinit_pattern(rows, cols)
        if rng is None:
            return pattern
        return pattern + rng.normal((rows, cols), 1.0 / np.sqrt(rows * cols))

    left = np.stack([draw(part.h_out, part.h) for _ in range(part.count)])
    right = np.stack([draw(part.w, part.w_out) for _ in range(part.count)])
    return left, right


# name: (channels, h, w, h_out, w_out); left is h_out x h, right w x w_out
PART_SHAPES = {
    "7x7": (3, 7, 7, 7, 7),
    "3x5": (4, 5, 3, 3, 5),
    "4x4": (3, 4, 4, 4, 4),
    "down-2to1": (5, 2, 2, 1, 1),
    "1x1": (2, 1, 1, 1, 1),
}


class TestNoise:
    @pytest.mark.parametrize("shape", PART_SHAPES.values(), ids=PART_SHAPES)
    def test_matches_per_channel_draws(self, shape):
        count, h, w, h_out, w_out = shape
        (part,) = merge_parts(NeoCellSpec((GroupSpec(0, count, h, w, h_out, w_out),)))
        rng, ref = Rng(31), Rng(31)
        for got, want in ((init_part(part, rng), per_channel_init(part, ref)),
                          (init_part(part, None), per_channel_init(part, None))):
            for g, wt in zip(got, want):
                assert g.shape == wt.shape and g.tobytes() == wt.tobytes()
        # and leaves the stream where the per-channel draws leave it
        assert rng.next_u64(3).tolist() == ref.next_u64(3).tolist()

    def test_noise_decomposes_bit_exactly(self):
        # two channels: one draw per matrix, every left before every right
        (part,) = merge_parts(NeoCellSpec((GroupSpec(0, 2, 5, 4, 3, 2),)))
        left, right = init_part(part, Rng(77))
        stream = Rng(77)
        for c in range(2):
            noise = stream.normal((3, 5), 1.0 / np.sqrt(15))
            assert np.array_equal(left[c], neoinit_pattern(3, 5) + noise)
        for c in range(2):
            noise = stream.normal((4, 2), 1.0 / np.sqrt(8))
            assert np.array_equal(right[c], neoinit_pattern(4, 2) + noise)

    def test_determinism(self):
        part = one_channel_part(4, 4)
        a, b = init_part(part, Rng(9)), init_part(part, Rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_expected_value_is_pattern(self):
        rows, cols = 3, 5
        part = one_channel_part(rows, cols)
        acc = np.zeros((rows, cols))
        n = 10_000
        for seed in range(n):
            acc += init_part(part, Rng(seed))[0][0]
        mean = acc / n
        sigma = 1.0 / np.sqrt(rows * cols)
        tol = 4.0 * sigma / np.sqrt(n)
        assert np.abs(mean - neoinit_pattern(rows, cols)).max() <= tol


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9))
    def test_square_noise_free_is_exact_identity_operator(self, n):
        m = init_part(one_channel_part(n, n), None)[0][0]
        x = Rng(n).normal((n, 4), 1.0)
        assert np.array_equal(m @ x, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10))
    def test_row_sums_zero_or_one(self, rows, cols):
        got = neoinit_pattern(rows, cols)
        sums = got.sum(axis=1) if rows <= cols else got.sum(axis=0)
        assert all(abs(s) < 1e-12 or abs(s - 1.0) < 1e-12 for s in sums)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_divisible_wide_case_covers_every_column_once(self, rows, mult):
        cols = rows * mult
        got = neoinit_pattern(rows, cols)
        assert np.allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all((got != 0).sum(axis=0) == 1)


def test_format_grid_alignment():
    text = format_grid(neoinit_pattern(2, 2))
    lines = text.splitlines()
    assert len(lines) == 2
    assert len(lines[0]) == len(lines[1])
    assert "1.00000" in lines[0]


def test_invalid_dims_rejected():
    with pytest.raises(ParameterError):
        neoinit_pattern(0, 3)
    with pytest.raises(ParameterError):
        one_channel_part(0, 3)
