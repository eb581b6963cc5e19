import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neonext.autodiff import Param, Tape, backward
from neonext.equiv import random_case, random_params
from neonext.errors import ConfigError, ShapeError
from neonext.model import (
    Block,
    BlockSpec,
    ForwardCtx,
    ModelSpec,
    NeoCellLayer,
    analytic_param_count,
    build_model,
    load_checkpoint,
    make_stage_groups,
    named_spec,
    one_hot,
    save_checkpoint,
    smooth_targets,
    softmax_cross_entropy,
)
from neonext.autodiff import Val
from neonext.neocell import (
    LARGE_INPUT_BYTES,
    GroupSpec,
    NeoCellParams,
    NeoCellSpec,
    blockdiag_factors,
    forward_blockdiag,
    forward_patchwise,
)
from neonext.rng import Rng
from neonext.tensor import Tensor4, read_tensor, write_tensor


class TestStageGroups:
    def test_mixed_policy_at_56(self):
        groups, notes = make_stage_groups(96, 56, "mixed-shift")
        assert not notes
        sizes = {g.h for g in groups}
        assert sizes == {4, 7}
        assert sum(g.count for g in groups) == 96
        four_shifts = [g.shift for g in groups if g.h == 4]
        seven_shifts = [g.shift for g in groups if g.h == 7]
        assert four_shifts == [0, 1, 2, 3]
        assert seven_shifts == [0, 1, 2, 3, 4, 5, 6]

    def test_map14_substitutes_7_for_the_4_part(self):
        groups, notes = make_stage_groups(384, 14, "mixed-shift")
        assert all(g.h == 7 for g in groups)
        assert any("requested 4x4 at map 14 -> using 7x7" in n for n in notes)

    def test_map8_substitutes_4_for_the_7_part(self):
        groups, notes = make_stage_groups(24, 8, "mixed-shift")
        assert all(g.h == 4 for g in groups)
        assert any("requested 7x7" in n for n in notes)

    def test_single7_no_shift(self):
        groups, _ = make_stage_groups(192, 7, "single-7")
        assert len(groups) == 1
        assert groups[0].shift == 0 and groups[0].h == 7

    def test_map1_falls_back_to_1(self):
        groups, notes = make_stage_groups(192, 1, "single-7")
        assert groups[0].h == 1
        assert notes

    def test_remainder_to_earliest_subgroups(self):
        groups, _ = make_stage_groups(10, 8, "mixed-shift")
        four_part = [g for g in groups if g.start < 5]
        assert [g.count for g in four_part] == [2, 1, 1, 1]
        assert [g.shift for g in four_part] == [0, 1, 2, 3]

    @pytest.mark.parametrize("channels, map_size", [(48, 4), (96, 2), (96, 4)])
    def test_whole_plane_parts_are_unshifted(self, channels, map_size):
        # a patch covering the whole plane has no border for a shift to cross
        groups, _ = make_stage_groups(channels, map_size, "mixed-shift")
        half = channels // 2
        assert [(g.start, g.stop, g.h, g.shift) for g in groups] == [
            (0, half, map_size, 0),
            (half, channels, map_size, 0),
        ]

    @pytest.mark.parametrize(
        "channels, map_size, layout",
        [
            # (start, stop, k, shift); at map 8 the 7x7 part falls back to 4x4
            (24, 8, [(0, 3, 4, 0), (3, 6, 4, 1), (6, 9, 4, 2), (9, 12, 4, 3),
                     (12, 15, 4, 0), (15, 18, 4, 1), (18, 21, 4, 2), (21, 24, 4, 3)]),
            (96, 56, [(0, 12, 4, 0), (12, 24, 4, 1), (24, 36, 4, 2), (36, 48, 4, 3),
                      (48, 55, 7, 0), (55, 62, 7, 1), (62, 69, 7, 2), (69, 76, 7, 3),
                      (76, 83, 7, 4), (83, 90, 7, 5), (90, 96, 7, 6)]),
        ],
    )
    def test_band_maps_keep_every_shift(self, channels, map_size, layout):
        groups, _ = make_stage_groups(channels, map_size, "mixed-shift")
        assert [(g.start, g.stop, g.h, g.shift) for g in groups] == layout

    def test_odd_channels_rejected_for_mixed(self):
        with pytest.raises(ConfigError, match="even"):
            make_stage_groups(7, 8, "mixed-shift")


class TestBuild:
    def test_t_parameter_count_within_2_percent(self):
        spec = named_spec("neonext-t")
        model = build_model(spec, 224, Rng(0))
        count = model.param_count()
        assert abs(count - 27_700_000) / 27_700_000 <= 0.02
        assert count == analytic_param_count(spec, 224)

    def test_t_stem_shape_chain(self):
        spec = named_spec("neonext-t")
        model = build_model(spec, 224, Rng(0))
        chain = model.shape_chain()
        assert chain[0][1] == (1, 3, 224, 224)
        assert chain[1][1] == (1, 48, 56, 56)
        assert chain[2][1] == (1, 96, 56, 56)

    def test_micro_builds_and_runs_at_64(self):
        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 64, Rng(1))
        x = Tensor4(Rng(2).normal((2, 3, 64, 64), 1.0))
        logits = model.logits(x)
        assert logits.shape == (2, 10)
        assert np.isfinite(logits).all()

    def test_micro_at_64_uses_4x4_in_stages_0_to_2(self):
        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 64, Rng(1))
        manifest = model.manifest()
        for line in manifest.splitlines():
            if line.startswith(("stage0: map", "stage1: map", "stage2: map")):
                assert "7x7" not in line

    def test_cifar_scale_has_no_7x7_groups(self):
        from neonext.model import NeoCellLayer, Block as _Block

        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 32, Rng(1))
        for layer in model.layers:
            cells = []
            if isinstance(layer, NeoCellLayer):
                cells.append(layer.spec)
            elif isinstance(layer, _Block):
                cells.append(layer.neocell.spec)
            for cell in cells:
                assert all(g.h != 7 and g.w != 7 for g in cell.groups)

    def test_zero_input_zero_bias_gives_equal_logits(self):
        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 32, Rng(3))
        x = Tensor4(np.zeros((2, 3, 32, 32)))
        logits = model.logits(x)
        assert np.abs(logits - logits[:, :1]).max() <= 1e-12

    def test_indivisible_input_raises_at_build(self):
        spec = named_spec("neonext-micro", classes=10)
        with pytest.raises(ShapeError):
            build_model(spec, 30, Rng(0))

    def test_wrong_channel_count_is_shape_error(self):
        model = build_model(named_spec("neonext-micro", classes=10), 32, Rng(0))
        with pytest.raises(ShapeError, match="expects 3 input channels"):
            model.logits(Tensor4(np.zeros((2, 4, 32, 32))))

    def test_manifest_records_parameter_total(self):
        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 32, Rng(0))
        assert f"total parameters: {model.param_count()}" in model.manifest()

    def test_widths_must_be_non_decreasing(self):
        with pytest.raises(ConfigError):
            ModelSpec("bad", (1, 1, 1, 1), (64, 32, 96, 192))


def assert_matches_blockdiag(layer, spec, params, x, gout, out, grads, rng):
    """The layer's forward and gradients for output gradient ``gout``
    against the block-diagonal reference of ``params`` on x."""
    assert np.abs(out - forward_blockdiag(Tensor4(x), spec, params).array).max() <= 1e-10
    # y = A x B per channel, so grad_x = A^T G B^T
    for g in spec.groups:
        A, B = blockdiag_factors(g, *params.stacked(g), *x.shape[2:])
        want = A.swapaxes(-1, -2)[None] @ gout[:, g.start : g.stop] @ B.swapaxes(-1, -2)[None]
        assert np.abs(grads["x"][:, g.start : g.stop] - want).max() <= 1e-10
    # the output is linear in each side's weights, so <grad, D> equals
    # <G, forward with D on that side>
    for side in ("left", "right"):
        probe = random_params(spec, rng)
        mixed = NeoCellParams(**{"left": params.left, "right": params.right, side: getattr(probe, side)})
        want = float((gout * forward_blockdiag(Tensor4(x), spec, mixed).array).sum())
        got = sum(
            float((grads[p.name] * d).sum())
            for part, triple in zip(layer.parts, layer.part_params)
            for p, d in zip(triple, probe.stacked(part))
            if p.name.endswith(side)
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _guard_specs():
    """(name, spec, map size): the model's stage layouts at maps 1 to 16 for
    both policies, and the 2->1 downsample."""
    specs = []
    for m in (1, 2, 4, 8, 16):
        for policy in ("mixed-shift", "single-7"):
            specs.append((f"{policy}-{m}", NeoCellSpec(make_stage_groups(8, m, policy)[0]), m))
        if m > 1:
            specs.append((f"down-{m}", NeoCellSpec((GroupSpec(0, 8, 2, 2, 1, 1),)), m))
    return specs


class TestNeoCellLayerKernel:
    """The model layer against the per-channel reference paths."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_layer_matches_reference_paths(self, seed):
        rng = Rng(seed)
        x, spec, _ = random_case(rng)
        params = random_params(spec, rng)
        layer = NeoCellLayer("cell", spec, rng)
        for part, (pl, pr, _) in zip(layer.parts, layer.part_params):
            pl.array[...], pr.array[...] = params.stacked(part)
        gout = rng.normal(layer.out_shape(x.dims), 1.0)
        xp = Param("x", x.array)
        tape = Tape()
        out = layer.forward(xp, tape, ForwardCtx())
        tape.record(Val(0.0), (out,), lambda g: (gout,))
        grads = backward(tape)
        assert np.array_equal(out.array, forward_patchwise(x, spec, params).array)
        assert_matches_blockdiag(layer, spec, params, x.array, gout, out.array, grads, rng)

    # 1000 examples take about 8 s on a 2-vCPU Xeon
    @settings(max_examples=1000, deadline=None)
    @given(
        case=st.sampled_from(_guard_specs()),
        n=st.integers(1, 3),
        x_layout=st.sampled_from(("c", "cm", "ri")),
        g_layout=st.sampled_from(("c", "cm", "ri")),
        seed=st.integers(0, 10_000),
    )
    def test_every_layout_matches_blockdiag(self, case, n, x_layout, g_layout, seed):
        # x and G each in C order, channel-major or row-interleaved, on the
        # model's stage layouts
        _, spec, m = case
        rng = Rng(seed)
        params = random_params(spec, rng)
        layer = NeoCellLayer("cell", spec, None)
        for part, (pl, pr, _) in zip(layer.parts, layer.part_params):
            pl.array[...], pr.array[...] = params.stacked(part)
        x = to_layout(rng.normal((n, spec.channel_count, m, m), 1.0), x_layout)
        gout = to_layout(rng.normal(layer.out_shape(x.shape), 1.0), g_layout)
        tape = Tape()
        out = layer.forward(Param("x", x), tape, ForwardCtx())
        tape.record(Val(0.0), (out,), lambda g: (gout,))
        grads = backward(tape)
        assert_matches_blockdiag(layer, spec, params, x, gout, out.array, grads, rng)

    def test_indivisible_input_names_group_and_axis(self):
        # 10 rows divide group 0's 2x2 patches but not group 1's 4x4 ones;
        # the kernel's shape arithmetic relies on this check
        spec = NeoCellSpec((GroupSpec(0, 2, 2, 2, 2, 2), GroupSpec(2, 4, 4, 4, 4, 4)))
        layer = NeoCellLayer("cell", spec, Rng(44))
        x = Param("x", Rng(45).normal((2, 4, 10, 10), 1.0))
        with pytest.raises(ShapeError, match=r"^group 1: height 10 not divisible by patch h=4$"):
            layer.forward(x, Tape(), ForwardCtx())


def fresh_step(layer, x, gout):
    """One forward and backward of a new layer with ``layer``'s weights,
    which has no arrays to recycle: (output, grads by parameter name)."""
    fresh = NeoCellLayer(layer.name, layer.spec, None)
    for (fl, fr, _), (pl, pr, _) in zip(fresh.part_params, layer.part_params):
        fl.array[...], fr.array[...] = pl.array, pr.array
    tape = Tape()
    out = fresh.forward(Param("x", x), tape, ForwardCtx())
    tape.record(Val(0.0), (out,), lambda g: (gout,))
    return out.array, backward(tape)


class TestNeoCellLayerAliasing:
    """The layer reads its inputs in place and never writes an array that
    anything but the layer still references."""

    RECYCLE_SPEC = NeoCellSpec((GroupSpec(0, 4, 4, 4, 4, 4), GroupSpec(4, 8, 4, 4, 4, 4, shift=3)))
    BIG = (2, 8, 256, 256)    # 8 MiB of float64
    SMALL = (2, 8, 8, 8)

    def recycle_case(self, dims):
        assert (np.prod(dims) * 8 >= LARGE_INPUT_BYTES) == (dims == self.BIG)
        rng = Rng(40)
        layer = NeoCellLayer("cell", self.RECYCLE_SPEC, rng)
        return layer, [rng.normal(dims, 1.0) for _ in range(4)]

    @staticmethod
    def step(layer, x, gout):
        """One forward and backward: the (output, grad_x) arrays."""
        xp = Param("x", x)
        tape = Tape()
        out = layer.forward(xp, tape, ForwardCtx())
        tape.record(Val(0.0), (out,), lambda g: (gout,))
        return out.array, backward(tape)["x"]

    def test_held_results_survive_the_next_call(self):
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        out1, gx1 = self.step(layer, x1, g1)
        want = out1.copy(), gx1.copy()
        out2, gx2 = self.step(layer, x2, g2)
        assert np.array_equal(out1, want[0]) and np.array_equal(gx1, want[1])
        assert not np.shares_memory(out1, out2) and not np.shares_memory(gx1, gx2)

    def test_dropped_results_are_reused(self):
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        refs = [weakref.ref(a) for a in self.step(layer, x1, g1)]
        out2, gx2 = self.step(layer, x2, g2)
        assert refs[0]() is out2 and refs[1]() is gx2
        assert np.shares_memory(refs[0](), out2) and np.shares_memory(refs[1](), gx2)

    def test_held_view_blocks_reuse(self):
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        out1, gx1 = self.step(layer, x1, g1)
        views = out1[0], gx1[:, 1:]
        want = [v.copy() for v in views]
        del out1, gx1
        out2, gx2 = self.step(layer, x2, g2)
        assert all(np.array_equal(v, w) for v, w in zip(views, want))
        assert not np.shares_memory(views[0], out2) and not np.shares_memory(views[1], gx2)

    def test_small_arrays_are_never_kept(self):
        layer, (x1, g1, _, _) = self.recycle_case(self.SMALL)
        refs = [weakref.ref(a) for a in self.step(layer, x1, g1)]
        assert [r() for r in refs] == [None, None]

    @pytest.mark.parametrize(
        "first, second", [("c", "c"), ("cm", "cm"), ("c", "cm"), ("ri", "ri"), ("c", "ri")]
    )
    def test_recycled_results_match_reference_path(self, first, second):
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        # the first call leaves stale values in the arrays the second reuses
        refs = [weakref.ref(a) for a in self.step(layer, to_layout(x1, first), to_layout(g1, first))]
        out, gx = self.step(layer, to_layout(x2, second), to_layout(g2, second))
        reused = first == second    # a new memory order gets fresh arrays
        assert (refs[0]() is out, refs[1]() is gx) == (reused, reused)
        assert in_layout(out, second) and in_layout(gx, second)
        out_ref, grads_ref = fresh_step(layer, to_layout(x2, second), to_layout(g2, second))
        assert np.array_equal(out, out_ref) and np.array_equal(gx, grads_ref["x"])

    @staticmethod
    def record(layer, x):
        """A forward on a tape: (tape, output Val)."""
        tape = Tape()
        return tape, layer.forward(Param("x", x), tape, ForwardCtx())

    @staticmethod
    def finish(tape, out, gout):
        """The backward of a recorded forward for output gradient ``gout``."""
        tape.record(Val(0.0), (out,), lambda g: (gout,))
        return backward(tape)

    @staticmethod
    def assert_matches_reference(layer, x, gout, out, grads):
        out_ref, grads_ref = fresh_step(layer, x, gout)
        assert np.array_equal(out, out_ref)
        assert grads.keys() == grads_ref.keys()
        assert all(np.array_equal(grads[k], grads_ref[k]) for k in grads)

    # the slots of the kernel's requests: the forward asks for its output,
    # L x and one strip per shifted run, the backward for one G R^T scratch
    # per piece or, in a resampling layer, grad_x
    OUT, LX, STRIP, BACK = ("forward", 0), ("forward", 1), ("forward", 2), ("backward", 0)

    def test_held_tapes_keep_their_workspaces(self):
        # the L x workspace stays on the tape until its backward: a second
        # forward before it may not reuse the first's
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        tape1, out1 = self.record(layer, x1)
        lx1 = weakref.ref(layer._kept[self.LX][1])
        tape2, out2 = self.record(layer, x2)
        lx2 = weakref.ref(layer._kept[self.LX][1])
        assert lx1() is not lx2() and not np.shares_memory(lx1(), lx2())
        self.assert_matches_reference(layer, x1, g1, out1.array, self.finish(tape1, out1, g1))
        self.assert_matches_reference(layer, x2, g2, out2.array, self.finish(tape2, out2, g2))
        del tape1, tape2
        # dropped with its tape, the first workspace is freed; the kept one is reused
        assert lx1() is None
        self.record(layer, x1)
        assert layer._kept[self.LX][1] is lx2()

    DOWNSAMPLE_SPEC = NeoCellSpec((GroupSpec(0, 8, 2, 2, 1, 1),))

    def test_grad_x_goes_into_the_workspace_unless_resampling(self, monkeypatch):
        # a workspace shaped like x takes grad_x, and the backward's requests
        # are one G R^T scratch per piece, as wide as the piece's widest
        # slice of a run: the 4-channel runs' full width on one CPU, their
        # two halves on two; the 2->1 downsample's smaller workspace
        # cannot, and its backward's one request is grad_x
        for cpus, widths in ((1, [4]), (2, [2, 2])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            layer, (x, g, _, _) = self.recycle_case(self.BIG)
            _, gx = self.step(layer, x, g)
            scratches = [("backward", i) for i in range(cpus)]
            assert set(layer._kept) == {self.OUT, self.LX, self.STRIP, *scratches}
            assert gx is layer._kept[self.LX][1]
            assert [layer._kept[slot][1].shape for slot in scratches] == [(2, w, 256, 256) for w in widths]
        layer = NeoCellLayer("down", self.DOWNSAMPLE_SPEC, Rng(41))
        _, gx = self.step(layer, x, Rng(42).normal(layer.out_shape(x.shape), 1.0))
        assert set(layer._kept) == {self.OUT, self.LX, self.BACK}
        assert gx is layer._kept[self.BACK][1]

    def test_strips_and_scratch_are_reused(self):
        # from the second step on the layer allocates nothing of activation
        # size: every kept array is handed out again, stale values and all
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        self.step(layer, x1, g1)
        kept = {slot: weakref.ref(array) for slot, (_, array) in layer._kept.items()}
        tape, out = self.record(layer, x2)
        grads = self.finish(tape, out, g2)
        assert layer._kept.keys() == kept.keys()
        assert all(layer._kept[slot][1] is ref() for slot, ref in kept.items())
        self.assert_matches_reference(layer, x2, g2, out.array, grads)

    @pytest.mark.parametrize(
        "spec, bound",
        [
            # 3.53x split over two threads, 3.54x on one; a separate
            # x-sized grad_x read 4.04x
            (RECYCLE_SPEC, 3.75),
            # 2.755x, as with the old layer; a G R^T scratch would read 3.255x
            (DOWNSAMPLE_SPEC, 3.0),
        ],
        ids=["recycle-spec", "downsample"],
    )
    def test_first_step_traced_peak(self, spec, bound, monkeypatch):
        # a fresh layer's first forward and backward, with the Param's copy
        # of x, in multiples of x's bytes; on two CPUs each kernel call
        # splits its runs over two threads
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        rng = Rng(43)
        layer = NeoCellLayer("cell", spec, rng)
        x = rng.normal(self.BIG, 1.0)
        g = rng.normal(layer.out_shape(x.shape), 1.0)
        tracemalloc.start()
        try:
            self.step(layer, x, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(started) == 2
        assert peak / x.nbytes < bound

    SPECS = pytest.mark.parametrize(
        "groups",
        [
            (GroupSpec(0, 2, 4, 4, 4, 4), GroupSpec(2, 5, 4, 4, 4, 4, shift=3)),
            (GroupSpec(0, 3, 2, 2, 1, 1),),
            # 8x8 patches on the 8x8 input: the one patch is the wrapping band
            (GroupSpec(0, 1, 8, 8, 8, 8), GroupSpec(1, 3, 8, 8, 8, 8, shift=5)),
        ],
        ids=["shifted", "downsample", "whole-plane-shifted"],
    )

    @SPECS
    @pytest.mark.parametrize(
        "x_layout, g_layout", [("cm", "c"), ("c", "cm"), ("ri", "c"), ("c", "ri"), ("ri", "cm")]
    )
    def test_forward_and_backward_layouts_may_differ(self, groups, x_layout, g_layout):
        # the layer copies an output gradient whose layout differs from x's
        # into x's, as a replayed backward's C-ordered probe needs: a mixed
        # step gives bit for bit what the step with G in x's layout gives
        spec = NeoCellSpec(groups)
        rng = Rng(32)
        layer = NeoCellLayer("cell", spec, rng)
        x = to_layout(rng.normal((2, spec.channel_count, 8, 8), 1.0), x_layout)
        gout = rng.normal(layer.out_shape(x.shape), 1.0)
        assert in_layout(x, x_layout) and x_layout != g_layout

        def run(g):
            tape, out = self.record(layer, x)
            return out.array, self.finish(tape, out, g)

        mixed, matched = run(to_layout(gout, g_layout)), run(to_layout(gout, x_layout))
        assert np.array_equal(mixed[0], matched[0])
        assert mixed[1].keys() == matched[1].keys()
        assert all(np.array_equal(mixed[1][k], matched[1][k]) for k in mixed[1])
        assert in_layout(mixed[1]["x"], x_layout)
        self.assert_matches_reference(layer, x, to_layout(gout, x_layout), *mixed)

    @SPECS
    def test_inputs_untouched_and_outputs_unaliased(self, groups):
        spec = NeoCellSpec(groups)
        rng = Rng(31)
        layer = NeoCellLayer("cell", spec, rng)
        x = rng.normal((2, spec.channel_count, 8, 8), 1.0)
        gout = rng.normal(layer.out_shape(x.shape), 1.0)
        x_before, gout_before = x.copy(), gout.copy()
        xp = Param("x", x)
        tape = Tape()
        out = layer.forward(xp, tape, ForwardCtx())
        tape.record(Val(0.0), (out,), lambda g: (gout,))
        grads = backward(tape)

        assert np.array_equal(xp.array, x_before)
        assert np.array_equal(gout, gout_before)
        assert not np.shares_memory(out.array, xp.array)
        assert not np.shares_memory(grads["x"], gout)


# layout name -> the axis order whose C-contiguous memory an (n, c, h, w)
# array of that layout has: C order, channel-major and the row-interleaved
# layout a model runs in
LAYOUTS = {"c": (0, 1, 2, 3), "cm": (1, 0, 2, 3), "ri": (1, 2, 0, 3)}


def to_layout(a, layout):
    order = LAYOUTS[layout]
    return np.ascontiguousarray(a.transpose(order)).transpose(np.argsort(order))


def in_layout(a, layout):
    return a.transpose(LAYOUTS[layout]).flags.c_contiguous


class LayoutTape(Tape):
    """A tape whose backward asserts that every 4-d input gradient has the
    strides of its input's array, so no node hands back a gradient in
    another layout; ``checked`` counts the nodes that ran."""

    def __init__(self):
        super().__init__()
        self.checked = 0

    @staticmethod
    def layout(a):
        """The strides of ``a``'s axes longer than 1, which alone fix its layout."""
        return tuple(st for st, d in zip(a.strides, a.shape) if d > 1)

    def record(self, out, ins, backward_fn):
        # layouts only: holding the arrays would keep NeoCellLayer from recycling
        layouts = [self.layout(v.array) if v.array.ndim == 4 else None for v in ins]

        def checked(g):
            gins = backward_fn(g)
            for want, gi in zip(layouts, gins):
                assert want is None or self.layout(gi) == want
            self.checked += 1
            return gins

        super().record(out, ins, checked)


class TestActivationLayout:
    """Inside a model, activations stay row-interleaved from the stem on:
    the memory of a C-contiguous (c, h, n, w) array."""

    @pytest.mark.parametrize(
        "groups",
        [
            (GroupSpec(0, 2, 4, 4, 4, 4), GroupSpec(2, 5, 4, 4, 4, 4, shift=3)),
            (GroupSpec(0, 3, 2, 2, 1, 1),),
        ],
        ids=["shifted", "downsample"],
    )
    def test_neocell_layer_keeps_input_memory_order(self, groups):
        spec = NeoCellSpec(groups)
        rng = Rng(32)
        layer = NeoCellLayer("cell", spec, rng)
        x = rng.normal((2, spec.channel_count, 8, 8), 1.0)
        gout = rng.normal(layer.out_shape(x.shape), 1.0)
        results = []
        for layout in LAYOUTS:
            xp = Param("x", to_layout(x, layout))
            tape = Tape()
            out = layer.forward(xp, tape, ForwardCtx())
            tape.record(Val(0.0), (out,), lambda g: (to_layout(gout, layout),))
            gx = backward(tape)["x"]
            assert all(in_layout(a, layout) for a in (xp.array, out.array, gx)), layout
            results.append((out.array, gx))
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.abs(a - b).max() <= 1e-12

    def test_block_outputs_are_row_interleaved_in_train_mode(self):
        model = build_model(named_spec("neonext-micro", classes=10), 32, Rng(33))
        ctx = ForwardCtx("train", Rng(34), update_stats=False)
        v = Val(Rng(35).normal((4, 3, 32, 32), 1.0))
        blocks = 0
        for layer in model.layers:
            v = layer.forward(v, Tape(), ctx)
            if isinstance(layer, Block):
                blocks += 1
                assert in_layout(v.array, "ri"), layer.name
        assert blocks == sum(model.spec.depths)

    def test_train_step_gradients_keep_the_layout(self):
        # a train step as ``trainer.train_run`` takes it: no backward node
        # returns a gradient in another layout than its input's, so no
        # layout copy runs in the backward
        model = build_model(named_spec("neonext-micro", classes=10), 32, Rng(36))
        ctx = ForwardCtx("train", Rng(37), update_stats=True)
        tape = LayoutTape()
        logits = model.forward(Tensor4(Rng(38).normal((8, 3, 32, 32), 1.0)), ctx, tape)
        softmax_cross_entropy(tape, logits, one_hot(np.arange(8) % 10, 10))
        backward(tape)
        assert tape.checked == len(tape.nodes)


class TestBlockBehavior:
    def _block(self, drop_path=0.0):
        cell = NeoCellSpec((GroupSpec(0, 8, 4, 4, 4, 4),))
        spec = BlockSpec(8, cell, drop_path)
        return Block("blk", spec, Rng(4), "neoinit")

    def test_zero_weights_make_identity_through_skip(self):
        block = self._block()
        for p in block.params():
            if p.kind not in ("bn_gamma",):
                p.array[...] = 0.0
        x = Val(Rng(5).normal((2, 8, 8, 8), 1.0))
        y = block.forward(x, None, ForwardCtx("train", update_stats=False))
        assert np.array_equal(y.array, x.array)

    def test_drop_path_scales_kept_branches(self):
        block = self._block(drop_path=0.5)
        x = Val(Rng(6).normal((64, 8, 8, 8), 1.0))
        y_eval = block.forward(x, None, ForwardCtx("eval"))
        rng = Rng(123)
        y_train = block.forward(x, None, ForwardCtx("train", rng, update_stats=False))
        branch_eval = y_eval.array - x.array
        branch_train = y_train.array - x.array
        dropped = np.array([np.abs(branch_train[i]).max() == 0.0 for i in range(64)])
        assert dropped.any() and not dropped.all()
        # kept samples differ from eval branch by exactly the 1/(1-rate) scale
        kept = ~dropped
        # eval path uses running stats, train path batch stats; compare only scaling
        assert np.isfinite(branch_train[kept]).all()

    def test_drop_path_needs_rng_in_train(self):
        block = self._block(drop_path=0.5)
        x = Val(np.zeros((2, 8, 8, 8)))
        with pytest.raises(Exception, match="rng"):
            block.forward(x, None, ForwardCtx("train", None, update_stats=False))


class TestLoss:
    def test_uniform_logits_equal_log_classes(self):
        logits = Val(np.zeros((4, 10)))
        targets = one_hot(np.array([0, 3, 9, 5]), 10)
        loss = softmax_cross_entropy(None, logits, targets)
        assert abs(float(loss.array) - np.log(10.0)) <= 1e-15

    def test_smoothed_loss_at_least_target_entropy(self):
        rng = Rng(7)
        logits = Val(rng.normal((8, 10), 2.0))
        targets = smooth_targets(one_hot((rng.uniform(8) * 10).astype(int), 10), 0.1)
        loss = float(softmax_cross_entropy(None, logits, targets).array)
        q = targets[0]
        entropy_floor = float(-(q * np.log(q)).sum())
        assert loss >= entropy_floor - 1e-12

    def test_gradient_is_softmax_minus_target(self):
        rng = Rng(8)
        logits = Val(rng.normal((3, 5), 1.0))
        targets = smooth_targets(one_hot(np.array([0, 2, 4]), 5), 0.1)
        tape = Tape()
        tape.watch()
        from neonext.autodiff import Param

        p = Param("logits", logits.array)
        tape.record(p, (p,), lambda g: (g,))
        loss = softmax_cross_entropy(tape, p, targets)
        grads = backward(tape)
        z = logits.array - logits.array.max(axis=1, keepdims=True)
        soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.allclose(grads["logits"], (soft - targets) / 3, rtol=0, atol=1e-14)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 32, Rng(9))
        x = Tensor4(Rng(10).normal((2, 3, 32, 32), 1.0))
        model.forward(x, ForwardCtx("train", Rng(11), update_stats=True))
        save_checkpoint(model, tmp_path / "ckpt")
        other = build_model(spec, 32, Rng(12))
        load_checkpoint(other, tmp_path / "ckpt")
        for a, b in zip(model.params(), other.params()):
            assert a.name == b.name
            assert np.array_equal(a.array, b.array)
        for bn_a, bn_b in zip(model.bn_layers(), other.bn_layers()):
            assert np.array_equal(bn_a.running_mean, bn_b.running_mean)
            assert np.array_equal(bn_a.running_var, bn_b.running_var)
        assert np.array_equal(model.logits(x), other.logits(x))

    def _saved(self, tmp_path):
        """A micro model with non-trivial running stats, saved to
        ``tmp_path / "ckpt"``, and a snapshot of every value it holds."""
        model = build_model(named_spec("neonext-micro", classes=10), 32, Rng(13))
        model.forward(Tensor4(Rng(10).normal((2, 3, 32, 32), 1.0)), ForwardCtx("train", Rng(11), update_stats=True))
        save_checkpoint(model, tmp_path / "ckpt")
        return model, self._values(model)

    @staticmethod
    def _values(model):
        stats = [a for bn in model.bn_layers() for a in (bn.running_mean, bn.running_var)]
        return [a.copy() for a in [p.array for p in model.params()] + stats]

    def _refused(self, tmp_path, model, before, match):
        with pytest.raises(ConfigError, match=match):
            load_checkpoint(model, tmp_path / "ckpt")
        assert all(np.array_equal(a, b) for a, b in zip(self._values(model), before, strict=True))

    def _edit_index(self, tmp_path, edit):
        index = tmp_path / "ckpt" / "index.txt"
        lines = index.read_text().splitlines()
        edit(lines)
        index.write_text("\n".join(lines) + "\n")

    def test_three_files_in_index_order(self, tmp_path):
        model, before = self._saved(tmp_path)
        d = tmp_path / "ckpt"
        assert sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file()) == [
            "index.txt", "manifest.txt", "params/values.t4"]
        assert (d / "manifest.txt").read_text() == model.manifest()
        lines = (d / "index.txt").read_text().splitlines()
        names = [p.name for p in model.params()]
        names += [f"{bn.name}.running_{stat}" for bn in model.bn_layers() for stat in ("mean", "var")]
        assert lines == [f"{n}\t{','.join(map(str, a.shape))}" for n, a in zip(names, before, strict=True)]
        values = read_tensor(d / "params" / "values.t4")
        assert values.shape[:3] == (1, 1, 1)
        assert np.array_equal(values.ravel(), np.concatenate([a.ravel() for a in before]))

    def test_missing_param_detected(self, tmp_path):
        model, before = self._saved(tmp_path)
        self._edit_index(tmp_path, lambda lines: lines.pop(1))
        self._refused(tmp_path, model, before, r"index\.txt line 2 reads 'stem\.norm\.gamma\\t24', the model's reads 'stem\.pointwise\.bias\\t24'")

    def test_repeated_entry_rejected(self, tmp_path):
        model, before = self._saved(tmp_path)
        self._edit_index(tmp_path, lambda lines: lines.insert(2, lines[1]))
        self._refused(tmp_path, model, before, r"index\.txt line 3 reads 'stem\.pointwise\.bias\\t24', the model's reads 'stem\.norm\.gamma")

    def test_entry_not_in_model_rejected(self, tmp_path):
        model, before = self._saved(tmp_path)

        def rename(lines):
            lines[1] = lines[1].replace("stem.pointwise.bias", "bogus.param")

        self._edit_index(tmp_path, rename)
        self._refused(tmp_path, model, before, r"index\.txt line 2 reads 'bogus\.param\\t24'")

    def test_shape_column_checked(self, tmp_path):
        model, before = self._saved(tmp_path)

        def reshape(lines):
            lines[0] = lines[0].split("\t")[0] + "\t999,999"

        self._edit_index(tmp_path, reshape)
        self._refused(tmp_path, model, before, r"index\.txt line 1 reads 'stem\.pointwise\.weight\\t999,999'")

    def test_reordered_entries_rejected(self, tmp_path):
        model, before = self._saved(tmp_path)

        def swap(lines):
            lines[1], lines[2] = lines[2], lines[1]

        self._edit_index(tmp_path, swap)
        self._refused(tmp_path, model, before, r"index\.txt line 2 reads 'stem\.norm\.gamma\\t24'")

    def test_manifest_mismatch_rejected_before_loading(self, tmp_path):
        self._saved(tmp_path)
        manifest = tmp_path / "ckpt" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].replace("pointwise 24", "pointwise 32")
        manifest.write_text("\n".join(lines) + "\n")
        other = build_model(named_spec("neonext-micro", classes=10), 32, Rng(14))
        self._refused(tmp_path, other, self._values(other), r"manifest\.txt line 2 reads .*pointwise 32")

    @pytest.mark.parametrize("name", ["manifest.txt", "index.txt"])
    def test_missing_text_file_rejected(self, tmp_path, name):
        model, before = self._saved(tmp_path)
        (tmp_path / "ckpt" / name).unlink()
        self._refused(tmp_path, model, before, rf"checkpoint file .*{name} cannot be read: .*No such file")

    def test_missing_file_rejected(self, tmp_path):
        model, before = self._saved(tmp_path)
        (tmp_path / "ckpt" / "params" / "values.t4").unlink()
        self._refused(tmp_path, model, before, r"checkpoint file .*values\.t4 cannot be read: .*No such file")

    def test_short_file_rejected(self, tmp_path):
        model, before = self._saved(tmp_path)
        path = tmp_path / "ckpt" / "params" / "values.t4"
        path.write_bytes(path.read_bytes()[:-8])
        self._refused(tmp_path, model, before, r"checkpoint file .*values\.t4 cannot be read: .*expected .* bytes")

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_wrong_value_count_rejected(self, tmp_path, delta):
        model, before = self._saved(tmp_path)
        path = tmp_path / "ckpt" / "params" / "values.t4"
        values = read_tensor(path).ravel()
        total = values.size
        write_tensor(path, np.resize(values, total + delta))
        self._refused(tmp_path, model, before, rf"values\.t4 holds {total + delta} values, the model has {total}")


class TestDeterminism:
    def test_eval_forward_deterministic(self):
        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 32, Rng(14))
        x = Tensor4(Rng(15).normal((4, 3, 32, 32), 1.0))
        assert np.array_equal(model.logits(x), model.logits(x))

    def test_train_forward_deterministic_given_seed(self):
        spec = named_spec("neonext-micro", classes=10, drop_path_rate=0.3)
        model = build_model(spec, 32, Rng(16))
        x = Tensor4(Rng(17).normal((4, 3, 32, 32), 1.0))
        a = model.forward(x, ForwardCtx("train", Rng(99), update_stats=False)).array
        b = model.forward(x, ForwardCtx("train", Rng(99), update_stats=False)).array
        assert np.array_equal(a, b)
