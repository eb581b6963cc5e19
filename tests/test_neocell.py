import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neonext.autodiff import Grads, Param, fd_check
from neonext.equiv import random_case, random_params, run_trials
from neonext.errors import ConfigError, ParameterError, ShapeError
from neonext.neocell import (
    GroupSpec,
    NeoCellParams,
    NeoCellSpec,
    blockdiag_factors,
    cell_backward,
    cell_forward,
    empty_channel_major,
    forward_blockdiag,
    forward_patchwise,
    init_part,
    lx_shape,
    merge_parts,
    output_shape,
)
from neonext.rng import Rng
from neonext.tensor import Matrix, Tensor4


def scalar_loop_forward(x, spec, params):
    """Independent oracle: every patch's L @ X, then (L @ X) @ R, as scalar
    loops that accumulate from 0.0 in ascending k."""
    n, C, H, W = x.dims
    _, _, oh, ow = output_shape(spec, x.dims)
    out = np.zeros((n, C, oh, ow))
    xs = x.array
    for g in spec.groups:
        for c in g.channels:
            L = params.left[c].array
            R = params.right[c].array
            plane = np.roll(xs[:, c], (-g.shift, -g.shift), axis=(1, 2))
            res = np.zeros((n, oh, ow))
            for b in range(n):
                for i in range(H // g.h):
                    for j in range(W // g.w):
                        patch = plane[b, i * g.h : (i + 1) * g.h, j * g.w : (j + 1) * g.w]
                        lx = np.zeros((g.h_out, g.w))
                        for p in range(g.h_out):
                            for q in range(g.w):
                                acc = 0.0
                                for a in range(g.h):
                                    acc += L[p, a] * patch[a, q]
                                lx[p, q] = acc
                        y = np.zeros((g.h_out, g.w_out))
                        for p in range(g.h_out):
                            for q in range(g.w_out):
                                acc = 0.0
                                for a in range(g.w):
                                    acc += lx[p, a] * R[a, q]
                                y[p, q] = acc
                        res[b, i * g.h_out : (i + 1) * g.h_out, j * g.w_out : (j + 1) * g.w_out] = y
            out[:, c] = np.roll(res, (g.shift, g.shift), axis=(1, 2))
    return out


def noise_free_params(spec):
    """Per-channel ``NeoCellParams`` of ``init_part``'s noise-free patterns."""
    stacks = [init_part(part, None) for part in merge_parts(spec)]
    return NeoCellParams([Matrix(m) for L, _ in stacks for m in L], [Matrix(m) for _, R in stacks for m in R])


def run_cell(x, spec, params, gout=None):
    """The part loop on the array x as given, in its memory order: the
    output, or with ``gout`` (output, grad_x, one (grad_L, grad_R) per part)."""
    parts = merge_parts(spec)
    weights = [params.stacked(part) for part in parts]
    out = np.empty_like(x, shape=output_shape(spec, x.shape))
    lx = empty_channel_major(x, lx_shape(x.shape, out.shape))
    strips = cell_forward(x, parts, weights, out, lx)
    if gout is None:
        return out
    return (out, *cell_backward(x, parts, weights, gout, np.empty_like(x), lx, strips))


class TestSpecValidation:
    def test_groups_must_cover_channels(self):
        with pytest.raises(ParameterError, match="gap|overlap"):
            NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4), GroupSpec(3, 5, 4, 4, 4, 4)))

    def test_first_channel_must_be_zero(self):
        with pytest.raises(ParameterError):
            NeoCellSpec((GroupSpec(1, 3, 4, 4, 4, 4),))

    def test_shift_requires_square_non_resampling(self):
        with pytest.raises(ParameterError, match="shift"):
            GroupSpec(0, 2, 2, 2, 1, 1, shift=1)

    def test_shift_bounded_by_patch(self):
        with pytest.raises(ParameterError):
            GroupSpec(0, 2, 4, 4, 4, 4, shift=4)

    def test_divisibility_error_names_group_and_axis(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 4, 4, 4, 4), GroupSpec(1, 2, 7, 7, 7, 7)))
        with pytest.raises(ShapeError, match="group 1.*width 24.*w=7"):
            spec.validate_input((1, 2, 28, 24))

    def test_output_size_agreement(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 4, 4, 4, 4), GroupSpec(1, 2, 2, 2, 1, 1)))
        with pytest.raises(ShapeError, match="disagrees"):
            spec.validate_input((1, 2, 8, 8))

    def test_use_bias_only_accepts_false(self):
        groups = (GroupSpec(0, 1, 4, 4, 4, 4),)
        assert NeoCellSpec(groups, use_bias=False) == NeoCellSpec(groups)
        with pytest.raises(ParameterError, match="no bias"):
            NeoCellSpec(groups, use_bias=True)

    def test_param_shape_mismatch(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 4, 4, 4, 4),))
        bad = NeoCellParams([Matrix(np.eye(3))], [Matrix(np.eye(4))])
        with pytest.raises(ParameterError, match="left is 3x3"):
            bad.validate(spec)


class TestOutputShape:
    def test_square_7(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 7, 7, 7, 7),))
        assert output_shape(spec, (1, 1, 56, 56)) == (1, 1, 56, 56)

    def test_downsample_2to1(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 2, 2, 1, 1),))
        assert output_shape(spec, (1, 1, 56, 56)) == (1, 1, 28, 28)

    def test_upsample_height_only(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 2, 1, 3, 1),))
        assert output_shape(spec, (1, 1, 8, 8)) == (1, 1, 12, 8)

    def test_full_dims(self):
        spec = NeoCellSpec((GroupSpec(0, 3, 2, 2, 1, 1),))
        assert output_shape(spec, (5, 3, 8, 6)) == (5, 3, 4, 3)

    def test_divisibility_error(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 7, 7, 7, 7),))
        with pytest.raises(ShapeError):
            output_shape(spec, (1, 1, 30, 28))

    @pytest.mark.parametrize("dims", [(56, 56), (1, 56, 56), (1, 1, 1, 56, 56)])
    def test_dims_other_than_n_c_h_w_rejected(self, dims):
        spec = NeoCellSpec((GroupSpec(0, 1, 7, 7, 7, 7),))
        with pytest.raises(ShapeError, match=r"expected \(n, c, H, W\)"):
            output_shape(spec, dims)
        with pytest.raises(ShapeError, match=r"expected \(n, c, H, W\)"):
            spec.validate_input(dims)


class TestForwardPatchwise:
    def test_identity_bit_exact(self):
        spec = NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4), GroupSpec(2, 3, 2, 2, 2, 2)))
        x = Tensor4(Rng(1).normal((2, 3, 8, 8), 1.0))
        y = forward_patchwise(x, spec, noise_free_params(spec))
        assert np.array_equal(y.array, x.array)

    def test_row_permutation_patch(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 2, 2, 2, 2),))
        params = NeoCellParams(
            [Matrix([[0.0, 1.0], [1.0, 0.0]])], [Matrix(np.eye(2))]
        )
        x = Tensor4(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        y = forward_patchwise(x, spec, params)
        assert np.array_equal(y.array.reshape(2, 2), [[3.0, 4.0], [1.0, 2.0]])

    def test_average_pooling_exact(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 2, 2, 1, 1),))
        params = NeoCellParams([Matrix([[0.5, 0.5]])], [Matrix([[0.5], [0.5]])])
        x = Tensor4(Rng(2).normal((1, 1, 4, 4), 1.0))
        y = forward_patchwise(x, spec, params)
        pooled = x.array.reshape(1, 1, 2, 2, 2, 2).mean(axis=(3, 5))
        assert np.abs(y.array - pooled).max() < 1e-15

    def test_matches_scalar_loop_oracle(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 4, 4, 4, 4, shift=1), GroupSpec(1, 2, 4, 4, 4, 4)))
        params = random_params(spec, Rng(3))
        x = Tensor4(Rng(4).normal((2, 2, 8, 8), 1.0))
        got = forward_patchwise(x, spec, params).array
        want = scalar_loop_forward(x, spec, params)
        assert np.abs(got - want).max() <= 1e-12

    def test_non_divisible_input_is_hard_error(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 4, 4, 4, 4),))
        params = noise_free_params(spec)
        with pytest.raises(ShapeError, match="group 0.*height"):
            forward_patchwise(Tensor4(np.zeros((1, 1, 6, 8))), spec, params)


# h != w and h_out != w_out on an H != W input, so a kernel that mixes up the
# two axes cannot pass
RECT_SPEC = NeoCellSpec((GroupSpec(0, 2, 2, 4, 3, 1),))


class TestRectangularResampling:
    def _case(self):
        return Tensor4(Rng(21).normal((2, 2, 4, 8), 1.0)), random_params(RECT_SPEC, Rng(22))

    def test_matches_scalar_loop_oracle(self):
        x, params = self._case()
        got = forward_patchwise(x, RECT_SPEC, params).array
        assert got.shape == (2, 2, 6, 2)
        assert np.abs(got - scalar_loop_forward(x, RECT_SPEC, params)).max() <= 1e-12

    def test_matches_blockdiag(self):
        x, params = self._case()
        got = forward_patchwise(x, RECT_SPEC, params).array
        assert np.abs(got - forward_blockdiag(x, RECT_SPEC, params).array).max() <= 1e-10


def _groups(k, shifts):
    """Square k x k groups of the given (size, shift) in channel order."""
    groups, start = [], 0
    for size, shift in shifts:
        groups.append(GroupSpec(start, start + size, k, k, k, k, shift=shift))
        start += size
    return tuple(groups)


# (n, H, W, groups): whole-plane parts (H == h, W == w) run on rolled weights;
# the others read bands at offset s and handle the one wrapping band apart
SHIFTED_CASES = {
    "whole-4x4": (2, 4, 4, _groups(4, [(1, 0), (2, 1), (1, 2), (1, 3)])),
    "whole-2x2": (2, 2, 2, _groups(2, [(1, 0), (2, 1)])),
    "band-8x8": (2, 8, 8, _groups(4, [(1, 0), (1, 1), (2, 3), (1, 2)])),
    "band-56x56": (2, 56, 56, _groups(7, [(1, 0), (2, 6)])),
}
FD_CASES = ("whole-4x4", "whole-2x2", "band-8x8")


def _to_channel_major(a):
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _shifted_case(name, channel_major):
    n, H, W, groups = SHIFTED_CASES[name]
    spec = NeoCellSpec(groups)
    params = random_params(spec, Rng(41))
    x = Rng(42).normal((n, spec.channel_count, H, W), 1.0)
    if channel_major:
        x = _to_channel_major(x)
    assert x.flags.c_contiguous != channel_major
    return spec, params, x


def _shifted_params(cases):
    return pytest.mark.parametrize(
        "name, channel_major",
        [pytest.param(c, m, id=c + "-channel-major" * m) for c in cases for m in (False, True)],
    )


class TestShiftedKernel:
    """Shifted subgroups: band views at offset s, whole-plane conjugation.
    The kernel runs on x as given, so the channel-major ids reach its
    channel-major path."""

    @_shifted_params(SHIFTED_CASES)
    def test_matches_blockdiag(self, name, channel_major):
        spec, params, x = _shifted_case(name, channel_major)
        got = run_cell(x, spec, params)
        assert np.abs(got - forward_blockdiag(Tensor4(x), spec, params).array).max() <= 1e-10

    @_shifted_params(SHIFTED_CASES)
    def test_matches_scalar_loop_oracle(self, name, channel_major):
        spec, params, x = _shifted_case(name, channel_major)
        got = run_cell(x, spec, params)
        assert np.abs(got - scalar_loop_forward(Tensor4(x), spec, params)).max() <= 1e-12

    @_shifted_params(SHIFTED_CASES)
    def test_grad_x_is_blockdiag_adjoint(self, name, channel_major):
        # y = A x B per channel, so grad_x = A^T G B^T
        spec, params, x = _shifted_case(name, channel_major)
        gout = Rng(43).normal(x.shape, 1.0)
        if channel_major:
            gout = _to_channel_major(gout)
        _, gx, _ = run_cell(x, spec, params, gout)
        for g in spec.groups:
            A, B = blockdiag_factors(g, *params.stacked(g), *x.shape[2:])
            want = A.swapaxes(-1, -2)[None] @ gout[:, g.start : g.stop] @ B.swapaxes(-1, -2)[None]
            assert np.abs(gx[:, g.start : g.stop] - want).max() <= 1e-10

    @_shifted_params(FD_CASES)
    def test_gradients_match_central_differences(self, name, channel_major):
        spec, params, x = _shifted_case(name, channel_major)
        parts = merge_parts(spec)
        gout = Rng(44).normal(x.shape, 1.0)
        # a channel-major input is probed through its C-ordered (c, n, H, W) memory
        xp = Param("x", x.transpose(1, 0, 2, 3) if channel_major else x)
        weights = [
            tuple(Param(f"p{i}.{kind}", a) for kind, a in zip(("left", "right"), stacked))
            for i, stacked in enumerate(map(params.stacked, parts))
        ]

        def run(backward_of=None):
            xa = xp.array.transpose(1, 0, 2, 3) if channel_major else xp.array
            arrays = [(L.array, R.array) for L, R in weights]
            out = np.empty_like(xa, shape=output_shape(spec, xa.shape))
            lx = empty_channel_major(xa, lx_shape(xa.shape, out.shape))
            strips = cell_forward(xa, parts, arrays, out, lx)
            if backward_of is None:
                return float((out * gout).sum())
            return cell_backward(xa, parts, arrays, backward_of, np.empty_like(xa), lx, strips)

        gx, grads = run(gout)
        analytic = Grads({"x": gx.transpose(1, 0, 2, 3) if channel_major else gx})
        for pair, g in zip(weights, grads):
            for p, gp in zip(pair, g):
                analytic[p.name] = gp
        report = fd_check(run, [xp] + [p for pair in weights for p in pair], analytic, threshold=1e-4)
        assert report.passed, report.table()


class TestMaterialize:
    def test_two_block_diagonal_layout(self):
        # two channels with different weights: each gets its own blocks
        g = GroupSpec(0, 2, 2, 2, 2, 2)
        L = Rng(5).normal((2, 2, 2), 1.0)
        R = Rng(6).normal((2, 2, 2), 1.0)
        A, B = blockdiag_factors(g, L, R, 4, 4)
        for c in range(2):
            want_a = np.zeros((4, 4))
            want_a[0:2, 0:2] = L[c]
            want_a[2:4, 2:4] = L[c]
            assert np.array_equal(A[c], want_a)
            want_b = np.zeros((4, 4))
            want_b[0:2, 0:2] = R[c]
            want_b[2:4, 2:4] = R[c]
            assert np.array_equal(B[c], want_b)

    def test_identity_blocks_give_identity(self):
        g = GroupSpec(0, 1, 3, 3, 3, 3)
        A, _ = blockdiag_factors(g, np.eye(3)[None], np.eye(3)[None], 9, 9)
        assert np.array_equal(A, np.eye(9)[None])

    def test_shift_is_permutation_conjugation(self):
        # oracle: explicit P_s A P_s^T with P_s the cyclic shift matrix
        g0 = GroupSpec(0, 1, 3, 3, 3, 3, shift=0)
        g1 = GroupSpec(0, 1, 3, 3, 3, 3, shift=1)
        L = Rng(7).normal((1, 3, 3), 1.0)
        R = Rng(8).normal((1, 3, 3), 1.0)
        A0, B0 = blockdiag_factors(g0, L, R, 6, 6)
        A1, B1 = blockdiag_factors(g1, L, R, 6, 6)
        P = np.zeros((6, 6))
        for i in range(6):
            P[i, (i - 1) % 6] = 1.0
        assert np.array_equal(A1[0], P @ A0[0] @ P.T)
        assert np.array_equal(B1[0], P @ B0[0] @ P.T)

    def test_resampling_dims(self):
        g = GroupSpec(0, 1, 2, 2, 1, 1)
        A, B = blockdiag_factors(g, np.array([[[0.5, 0.5]]]), np.array([[[0.5], [0.5]]]), 8, 6)
        assert A.shape == (1, 4, 8)
        assert B.shape == (1, 6, 3)

    def test_factors_keep_the_weight_dtype(self):
        g = GroupSpec(0, 2, 2, 2, 2, 2, shift=1)
        L, R = (Rng(s).normal((2, 2, 2), 1.0).astype(np.float32) for s in (17, 18))
        A, B = blockdiag_factors(g, L, R, 4, 6)
        A64, B64 = blockdiag_factors(g, L.astype(np.float64), R.astype(np.float64), 4, 6)
        assert A.dtype == B.dtype == np.float32
        assert np.array_equal(A, A64) and np.array_equal(B, B64)


class TestForwardBlockdiag:
    def test_identity_params(self):
        spec = NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4),))
        x = Tensor4(Rng(9).normal((1, 2, 8, 8), 1.0))
        y = forward_blockdiag(x, spec, noise_free_params(spec))
        assert np.abs(y.array - x.array).max() <= 1e-12

    def test_worked_two_block_example_exact(self):
        # 2x2 block layout; the patch-by-patch oracle accumulates in ascending
        # k, which the block path reproduces bit-exactly
        spec = NeoCellSpec((GroupSpec(0, 1, 2, 2, 2, 2),))
        rng = Rng(10)
        params = random_params(spec, rng)
        x = Tensor4(rng.normal((1, 1, 4, 4), 1.0))
        got = forward_blockdiag(x, spec, params).array
        assert np.array_equal(got, scalar_loop_forward(x, spec, params))

    def test_hundred_random_configs_agree(self):
        results = run_trials(100, seed=2024)
        worst = max(r.max_abs_dev for r in results)
        assert worst <= 1e-10
        kinds = {r.kind for r in results}
        assert {"mixed-square", "down-2to1", "up-2to3"} <= kinds

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trial_count_below_one_rejected(self, trials):
        with pytest.raises(ConfigError, match=f"trials must be >= 1, got {trials}"):
            run_trials(trials)


class TestInvariants:
    def test_shift_conjugacy_bit_exact(self):
        spec_s = NeoCellSpec((GroupSpec(0, 3, 4, 4, 4, 4, shift=3),))
        spec_0 = NeoCellSpec((GroupSpec(0, 3, 4, 4, 4, 4, shift=0),))
        params = random_params(spec_s, Rng(11))
        x = Tensor4(Rng(12).normal((2, 3, 8, 8), 1.0))
        got = forward_patchwise(x, spec_s, params)
        unshifted = forward_patchwise(Tensor4(np.roll(x.array, (-3, -3), axis=(2, 3))), spec_0, params)
        want = np.roll(unshifted.array, (3, 3), axis=(2, 3))
        assert np.array_equal(got.array, want)

    def test_linearity(self):
        spec = NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4, shift=2),))
        params = random_params(spec, Rng(13))
        x = Tensor4(Rng(14).normal((1, 2, 8, 8), 1.0))
        y = Tensor4(Rng(15).normal((1, 2, 8, 8), 1.0))
        mix = Tensor4(0.7 * x.array - 1.3 * y.array)
        lhs = forward_patchwise(mix, spec, params).array
        rhs = 0.7 * forward_patchwise(x, spec, params).array - 1.3 * forward_patchwise(y, spec, params).array
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_downsample_then_upsample_is_scaled_block_mean(self):
        # noise-free init: down is exact 2x2 averaging; the 1->2 upsample
        # matrices carry value 1/2, so the composition is blockmean / 4
        c = 2
        down = NeoCellSpec((GroupSpec(0, c, 2, 2, 1, 1),))
        up = NeoCellSpec((GroupSpec(0, c, 1, 1, 2, 2),))
        down_p = noise_free_params(down)
        up_p = noise_free_params(up)
        x = Tensor4(Rng(16).normal((1, c, 8, 8), 1.0))
        y = forward_patchwise(forward_patchwise(x, down, down_p), up, up_p).array
        pooled = x.array.reshape(1, c, 4, 2, 4, 2).mean(axis=(3, 5))
        want = pooled.repeat(2, axis=2).repeat(2, axis=3) / 4.0
        assert np.abs(y - want).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equivalence_property(self, seed):
        rng = Rng(seed)
        x, spec, _ = random_case(rng)
        params = random_params(spec, rng)
        a = forward_patchwise(x, spec, params).array
        b = forward_blockdiag(x, spec, params).array
        assert np.abs(a - b).max() <= 1e-10
