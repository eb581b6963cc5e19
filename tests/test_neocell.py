import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neonext import neocell, parallel
from neonext.autodiff import Grads, Param, fd_check
from neonext.equiv import random_case, random_params, run_trials
from neonext.errors import ConfigError, ParameterError, ShapeError
from neonext.model import make_stage_groups
from neonext.neocell import (
    LARGE_INPUT_BYTES,
    GroupSpec,
    MultCounter,
    NeoCellParams,
    NeoCellSpec,
    blockdiag_factors,
    cell_backward,
    cell_forward,
    forward_blockdiag,
    forward_patchwise,
    init_part,
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


def run_cell(x, spec, params, gout=None, empty=None):
    """The part loop on the array x as given, with the kernel's arrays from
    ``empty`` (x's memory order by default): the output, or with ``gout``
    (output, grad_x, one (grad_L, grad_R) per part, the forward's saved
    arrays)."""
    parts = merge_parts(spec)
    weights = [params.stacked(part) for part in parts]
    out, saved = cell_forward(x, parts, weights, empty=empty)
    if gout is None:
        return out
    return (out, *cell_backward(x, parts, weights, gout, saved, empty), saved)


def assert_allocated_arrays_written_before_read(x, spec, params, gout, want):
    """An allocator that hands out NaN-filled arrays gives ``run_cell``'s
    result ``want`` bit for bit: output, grad_x and every weight gradient."""
    got = run_cell(x, spec, params, gout, lambda shape: np.full_like(x, np.nan, shape=shape))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    for pair, pair_want in zip(got[2], want[2], strict=True):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(pair, pair_want))


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


# id suffix -> the axis order whose C-contiguous memory the layout has: C
# order, channel-major (c, n, H, W) and row-interleaved (c, H, n, W), which
# the model passes and the kernel folds
LAYOUTS = {"": (0, 1, 2, 3), "-channel-major": (1, 0, 2, 3), "-row-interleaved": (1, 2, 0, 3)}


def _to_layout(a, layout):
    order = LAYOUTS[layout]
    return np.ascontiguousarray(a.transpose(order)).transpose(np.argsort(order))


def _in_layout(a, layout):
    return a.transpose(LAYOUTS[layout]).flags.c_contiguous


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

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["c", "cm", "ri"])
    @pytest.mark.parametrize(
        "spec", [RECT_SPEC, NeoCellSpec((GroupSpec(0, 2, 2, 2, 1, 1),))], ids=["rect", "down-2to1"]
    )
    def test_grad_x_gets_its_own_array(self, spec, layout):
        # an L x workspace not shaped like x cannot take grad_x, which comes
        # from the allocator in x's layout, as the output does, and G R^T
        # goes over L x; whatever the allocator's arrays held, the bits are
        # the same
        x = _to_layout(Rng(23).normal((2, 2, 4, 8), 1.0), layout)
        params = random_params(spec, Rng(22))
        gout = _to_layout(Rng(24).normal(output_shape(spec, x.shape), 1.0), layout)
        result = out, gx, _, saved = run_cell(x, spec, params, gout)
        assert not np.shares_memory(gx, saved[0])
        assert _in_layout(out, layout) and _in_layout(gx, layout)
        assert_allocated_arrays_written_before_read(x, spec, params, gout, result)


class TestMergeParts:
    def test_runs_merge_equal_shifts_and_parts_split_on_geometry(self):
        spec = NeoCellSpec((
            GroupSpec(0, 2, 4, 4, 4, 4),
            GroupSpec(2, 3, 4, 4, 4, 4),
            GroupSpec(3, 5, 4, 4, 4, 4, shift=1),
            GroupSpec(5, 6, 4, 4, 4, 4, shift=2),
            GroupSpec(6, 7, 4, 4, 4, 4, shift=2),
            GroupSpec(7, 8, 4, 4, 4, 4),
            GroupSpec(8, 10, 2, 2, 1, 1),
            GroupSpec(10, 13, 7, 7, 7, 7, shift=3),
        ))
        parts = merge_parts(spec)
        assert [(p.start, p.stop, p.h, p.w, p.h_out, p.w_out) for p in parts] == [
            (0, 8, 4, 4, 4, 4),
            (8, 10, 2, 2, 1, 1),
            (10, 13, 7, 7, 7, 7),
        ]
        # (start, stop, shift) relative to the part's first channel
        assert [p.runs for p in parts] == [
            ((0, 3, 0), (3, 5, 1), (5, 7, 2), (7, 8, 0)),
            ((0, 2, 0),),
            ((0, 3, 3),),
        ]


def _groups(k, shifts, start=0):
    """Square k x k groups of the given (size, shift) in channel order, from
    channel ``start``."""
    groups = []
    for size, shift in shifts:
        groups.append(GroupSpec(start, start + size, k, k, k, k, shift=shift))
        start += size
    return tuple(groups)


# (n, H, W, groups): every shifted run reads bands at offset s and handles the
# one wrapping band apart; on a whole plane (H == h, W == w) that band is
# the one patch and no other band is left.  The kernel indexes weights
# within a part and activations across the layer: in "two-parts" and
# "non-square" the second part starts past channel 0, so the two differ,
# and "non-square" wraps h x w patches with h != w along both axes.
SHIFTED_CASES = {
    "whole-4x4": (2, 4, 4, _groups(4, [(1, 0), (2, 1), (1, 2), (1, 3)])),
    "whole-2x2": (2, 2, 2, _groups(2, [(1, 0), (2, 1)])),
    "band-8x8": (2, 8, 8, _groups(4, [(1, 0), (1, 1), (2, 3), (1, 2)])),
    "band-56x56": (2, 56, 56, _groups(7, [(1, 0), (2, 6)])),
    "two-parts": (2, 8, 8, _groups(2, [(1, 1), (1, 0)]) + _groups(4, [(1, 0), (2, 3), (1, 1)], start=2)),
    "non-square": (2, 8, 8, (
        GroupSpec(0, 2, 4, 2, 4, 2, shift=1),
        GroupSpec(2, 3, 2, 4, 2, 4, shift=1),
        GroupSpec(3, 4, 2, 4, 2, 4),
    )),
}
FD_CASES = ("whole-4x4", "whole-2x2", "band-8x8", "two-parts", "non-square")


def _shifted_case(name, layout):
    n, H, W, groups = SHIFTED_CASES[name]
    spec = NeoCellSpec(groups)
    params = random_params(spec, Rng(41))
    x = _to_layout(Rng(42).normal((n, spec.channel_count, H, W), 1.0), layout)
    # n >= 2, so every layout differs from the others
    assert n >= 2 and x.flags.c_contiguous == (layout == "")
    return spec, params, x


def _shifted_params(cases):
    return pytest.mark.parametrize(
        "name, layout", [pytest.param(c, m, id=c + m) for c in cases for m in LAYOUTS]
    )


class TestShiftedKernel:
    """Shifted subgroups: band views at offset s and the wrapping band, on
    band maps and whole planes alike, in parts past channel 0 and on
    non-square patches.  The kernel runs on x as given, so the C-ordered
    and channel-major ids reach its per-plane path and the row-interleaved
    ids its folded one."""

    @_shifted_params(SHIFTED_CASES)
    def test_matches_blockdiag(self, name, layout):
        spec, params, x = _shifted_case(name, layout)
        got = run_cell(x, spec, params)
        assert np.abs(got - forward_blockdiag(Tensor4(x), spec, params).array).max() <= 1e-10

    @_shifted_params(SHIFTED_CASES)
    def test_matches_scalar_loop_oracle(self, name, layout):
        spec, params, x = _shifted_case(name, layout)
        got = run_cell(x, spec, params)
        assert np.abs(got - scalar_loop_forward(Tensor4(x), spec, params)).max() <= 1e-12

    @_shifted_params(SHIFTED_CASES)
    def test_grad_x_is_blockdiag_adjoint(self, name, layout):
        # y = A x B per channel, so grad_x = A^T G B^T
        spec, params, x = _shifted_case(name, layout)
        gout = _to_layout(Rng(43).normal(x.shape, 1.0), layout)
        _, gx, _, _ = run_cell(x, spec, params, gout)
        for g in spec.groups:
            A, B = blockdiag_factors(g, *params.stacked(g), *x.shape[2:])
            want = A.swapaxes(-1, -2)[None] @ gout[:, g.start : g.stop] @ B.swapaxes(-1, -2)[None]
            assert np.abs(gx[:, g.start : g.stop] - want).max() <= 1e-10

    @_shifted_params(SHIFTED_CASES)
    def test_grad_x_into_the_workspace_gives_the_same_bits(self, name, layout):
        # grad_x goes over the used-up L x, with G R^T in a scratch, and the
        # output and grad_x take x's layout; whatever the allocator's arrays
        # held, the bits are the same
        spec, params, x = _shifted_case(name, layout)
        gout = _to_layout(Rng(43).normal(x.shape, 1.0), layout)
        result = out, gx, _, saved = run_cell(x, spec, params, gout)
        assert np.shares_memory(gx, saved[0])
        assert out.strides == gx.strides == x.strides
        assert_allocated_arrays_written_before_read(x, spec, params, gout, result)

    @_shifted_params(FD_CASES)
    def test_gradients_match_central_differences(self, name, layout):
        spec, params, x = _shifted_case(name, layout)
        parts = merge_parts(spec)
        gout = _to_layout(Rng(44).normal(x.shape, 1.0), layout)
        # x is probed through its memory, the C-ordered array of LAYOUTS' axis order
        order = LAYOUTS[layout]
        xp = Param("x", x.transpose(order))
        weights = [
            tuple(Param(f"p{i}.{kind}", a) for kind, a in zip(("left", "right"), stacked))
            for i, stacked in enumerate(map(params.stacked, parts))
        ]

        def run(backward_of=None):
            xa = xp.array.transpose(np.argsort(order))
            arrays = [(L.array, R.array) for L, R in weights]
            out, saved = cell_forward(xa, parts, arrays)
            if backward_of is None:
                return float((out * gout).sum())
            return cell_backward(xa, parts, arrays, backward_of, saved)

        gx, grads = run(gout)
        analytic = Grads({"x": gx.transpose(order)})
        for pair, g in zip(weights, grads):
            for p, gp in zip(pair, g):
                analytic[p.name] = gp
        report = fd_check(run, [xp] + [p for pair in weights for p in pair], analytic, threshold=1e-4)
        assert report.passed, report.table()


# (groups, n, map size) of kernel calls above LARGE_INPUT_BYTES.  "mixed"
# has runs of 3, 2, 1, 1 and 5 channels in two parts, so the pieces' shares
# of the runs differ in width and some are empty; in "downsample" grad_x
# gets an array of its own and G R^T goes over L x; "one-wide" has six
# runs of 1 channel, so every piece but the last gets no channel at all.
SPLIT_CASES = {
    "mixed": (_groups(4, [(3, 0), (2, 1), (1, 3)]) + _groups(7, [(1, 0), (5, 6)], start=6), 2, 224),
    "downsample": ((GroupSpec(0, 3, 2, 2, 1, 1),), 2, 448),
    "one-wide": (_groups(4, [(1, 0), (1, 1), (1, 2), (1, 3)]) + _groups(7, [(1, 0), (1, 6)], start=4), 2, 308),
}


def _split_case(name, layout, size=None):
    groups, n, full = SPLIT_CASES[name]
    spec = NeoCellSpec(groups)
    size = size or full
    x = _to_layout(Rng(47).normal((n, spec.channel_count, size, size), 1.0), layout)
    gout = _to_layout(Rng(48).normal(output_shape(spec, x.shape), 1.0), layout)
    return spec, random_params(spec, Rng(49)), x, gout


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _split_bits(name, layout, monkeypatch, cpus):
    """The bytes of a split case's output, grad_x and every weight gradient
    on ``cpus`` CPUs."""
    spec, params, x, gout = _split_case(name, layout)
    assert x.nbytes >= LARGE_INPUT_BYTES
    _cpus(monkeypatch, cpus)
    out, gx, grads, _ = run_cell(x, spec, params, gout)
    return [a.tobytes() for a in (out, gx, *(g for pair in grads for g in pair))]


class TestSplitKernel:
    """On a large x the kernel cuts every run's channels into one piece per
    CPU, at most ``parallel.MAX_PIECES``, and runs each piece but the
    caller's on a thread it starts; the affinity mask (and, for three
    pieces, the cap) is patched, so the split runs on any machine."""

    @pytest.mark.parametrize("name", SPLIT_CASES)
    @pytest.mark.parametrize("layout", ["", "-row-interleaved"], ids=["c-ordered", "row-interleaved"])
    def test_one_cpu_and_two_give_the_same_bits(self, name, layout, monkeypatch):
        assert _split_bits(name, layout, monkeypatch, 1) == _split_bits(name, layout, monkeypatch, 2)

    @pytest.mark.parametrize("name", SPLIT_CASES)
    @pytest.mark.parametrize("layout", ["", "-row-interleaved"], ids=["c-ordered", "row-interleaved"])
    def test_three_cpus_give_the_one_cpu_bits(self, name, layout, monkeypatch):
        # three pieces take slices of 0 to 2 of mixed's channels per run
        monkeypatch.setattr(parallel, "MAX_PIECES", 3)
        assert _split_bits(name, layout, monkeypatch, 1) == _split_bits(name, layout, monkeypatch, 3)

    def test_each_piece_gets_a_scratch_of_its_own(self, monkeypatch):
        # one per piece, as wide as its widest slice: the caller's piece
        # of one-wide's runs has no channel, and its scratch none
        _cpus(monkeypatch, 2)
        spec, params, x, gout = _split_case("one-wide", "")
        parts = merge_parts(spec)
        weights = [params.stacked(part) for part in parts]
        _, saved = cell_forward(x, parts, weights)
        shapes = []

        def empty(shape):
            shapes.append(shape)
            return np.empty_like(x, shape=shape)

        cell_backward(x, parts, weights, gout, saved, empty)
        assert shapes == [(2, 0, 308, 308), (2, 1, 308, 308)]

    def test_each_piece_writes_only_its_own_scratch(self, monkeypatch):
        # the pieces run one at a time, each after every scratch is filled
        # with NaN, so a piece writing another's scratch shows without a race
        _cpus(monkeypatch, 2)
        spec, params, x, gout = _split_case("mixed", "")
        parts = merge_parts(spec)
        weights = [params.stacked(part) for part in parts]
        _, saved = cell_forward(x, parts, weights)
        scratches, ran = [], []

        def empty(shape):
            scratches.append(np.empty_like(x, shape=shape))
            return scratches[-1]

        def one_at_a_time(work, pieces):
            for i in range(pieces):
                for scratch in scratches:
                    scratch.fill(np.nan)
                work(i)
                ran.append(i)
                assert all(np.isnan(s).all() for j, s in enumerate(scratches) if j != i), f"piece {i}"

        monkeypatch.setattr(neocell, "run_pieces", one_at_a_time)
        cell_backward(x, parts, weights, gout, saved, empty)
        assert ran == [0, 1]
        assert len(scratches) == 2 and all(s.size for s in scratches)

    @pytest.mark.parametrize(
        "cpus, size, threads", [(2, 224, 1), (64, 224, 1), (1, 224, 0), (2, 112, 0)],
        ids=["two-cpus", "capped", "one-cpu", "below-the-floor"],
    )
    def test_one_thread_starts_per_call_above_the_floor(self, cpus, size, threads, monkeypatch):
        spec, params, x, gout = _split_case("mixed", "", size)
        assert (x.nbytes >= LARGE_INPUT_BYTES) == (size == 224)
        _cpus(monkeypatch, cpus)
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        parts = merge_parts(spec)
        weights = [params.stacked(part) for part in parts]
        _, saved = cell_forward(x, parts, weights)
        assert len(started) == threads
        cell_backward(x, parts, weights, gout, saved)
        assert len(started) == 2 * threads
        assert not any(t.is_alive() for t in started)

    def test_multiplies_are_tallied_once_in_the_calling_thread(self, monkeypatch):
        _cpus(monkeypatch, 2)
        spec, params, x, _ = _split_case("mixed", "")
        callers = []

        class Recording(MultCounter):
            def add(self, n):
                callers.append(threading.get_ident())
                super().add(n)

        counter = Recording()
        forward_patchwise(Tensor4(x), spec, params, counter)
        n, _, H, W = x.shape
        want = sum(
            n * g.count * (H // g.h) * (W // g.w) * (g.h_out * g.h * g.w + g.h_out * g.w * g.w_out)
            for g in spec.groups
        )
        assert counter.multiplies == want
        assert set(callers) == {threading.get_ident()}


def _stage_spec(policy, map_size):
    return NeoCellSpec(make_stage_groups(24, map_size, policy)[0]), map_size


# (spec, map size): the model's stage layouts, then multi-part resampling
COUNTED_SPECS = {
    **{f"{policy}-{m}": _stage_spec(policy, m) for policy in ("mixed-shift", "single-7") for m in (56, 8, 4, 2, 1)},
    "down-2to1": (NeoCellSpec((GroupSpec(0, 2, 2, 2, 1, 1), GroupSpec(2, 4, 4, 4, 2, 2))), 8),
    "up-2to3": (NeoCellSpec((GroupSpec(0, 2, 2, 2, 3, 3), GroupSpec(2, 3, 4, 4, 6, 6))), 8),
}


class TestMultCounter:
    @pytest.mark.parametrize("name", COUNTED_SPECS)
    def test_tally_is_per_patch_formula(self, name):
        spec, m = COUNTED_SPECS[name]
        n = 2
        x = Tensor4(Rng(45).normal((n, spec.channel_count, m, m), 1.0))
        counter = MultCounter()
        forward_patchwise(x, spec, random_params(spec, Rng(46)), counter)
        want = sum(
            n * g.count * (m // g.h) * (m // g.w) * (g.h_out * g.h * g.w + g.h_out * g.w * g.w_out)
            for g in spec.groups
        )
        assert counter.multiplies == want


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
