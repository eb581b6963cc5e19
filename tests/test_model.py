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
    RECYCLE_MIN_BYTES,
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
    GroupSpec,
    NeoCellParams,
    NeoCellSpec,
    blockdiag_factors,
    forward_blockdiag,
    forward_patchwise,
)
from neonext.rng import Rng
from neonext.tensor import Tensor4


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
        assert np.abs(out.array - forward_blockdiag(x, spec, params).array).max() <= 1e-10
        # y = A x B per channel, so grad_x = A^T G B^T
        for g in spec.groups:
            A, B = blockdiag_factors(g, *params.stacked(g), *x.dims[2:])
            want = A.swapaxes(-1, -2)[None] @ gout[:, g.start : g.stop] @ B.swapaxes(-1, -2)[None]
            assert np.abs(grads["x"][:, g.start : g.stop] - want).max() <= 1e-10
        # the output is linear in each side's weights, so <grad, D> equals
        # <G, forward with D on that side>
        for side in ("left", "right"):
            probe = random_params(spec, rng)
            mixed = NeoCellParams(**{"left": params.left, "right": params.right, side: getattr(probe, side)})
            want = float((gout * forward_blockdiag(x, spec, mixed).array).sum())
            got = sum(
                float((grads[p.name] * d).sum())
                for part, triple in zip(layer.parts, layer.part_params)
                for p, d in zip(triple, probe.stacked(part))
                if p.name.endswith(side)
            )
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


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
        assert (np.prod(dims) * 8 >= RECYCLE_MIN_BYTES) == (dims == self.BIG)
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

    @pytest.mark.parametrize("first, second", [("c", "c"), ("cm", "cm"), ("c", "cm")])
    def test_recycled_results_match_reference_path(self, first, second):
        layout = {"c": np.asarray, "cm": to_channel_major}
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        # the first call leaves stale values in the arrays the second reuses
        refs = [weakref.ref(a) for a in self.step(layer, layout[first](x1), layout[first](g1))]
        out, gx = self.step(layer, layout[second](x2), layout[second](g2))
        reused = first == second    # a new memory order gets fresh arrays
        assert (refs[0]() is out, refs[1]() is gx) == (reused, reused)
        assert channel_major(out) == channel_major(gx) == (second == "cm")
        out_ref, grads_ref = fresh_step(layer, layout[second](x2), layout[second](g2))
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

    def test_held_tapes_keep_their_workspaces(self):
        # the L x workspace stays on the tape until its backward: a second
        # forward before it may not reuse the first's
        layer, (x1, g1, x2, g2) = self.recycle_case(self.BIG)
        tape1, out1 = self.record(layer, x1)
        lx1 = weakref.ref(layer._kept["lx"][1])
        tape2, out2 = self.record(layer, x2)
        lx2 = weakref.ref(layer._kept["lx"][1])
        assert lx1() is not lx2() and not np.shares_memory(lx1(), lx2())
        self.assert_matches_reference(layer, x1, g1, out1.array, self.finish(tape1, out1, g1))
        self.assert_matches_reference(layer, x2, g2, out2.array, self.finish(tape2, out2, g2))
        del tape1, tape2
        # dropped with its tape, the first workspace is freed; the kept one is reused
        assert lx1() is None
        self.record(layer, x1)
        assert layer._kept["lx"][1] is lx2()

    SPECS = pytest.mark.parametrize(
        "groups",
        [
            (GroupSpec(0, 2, 4, 4, 4, 4), GroupSpec(2, 5, 4, 4, 4, 4, shift=3)),
            (GroupSpec(0, 3, 2, 2, 1, 1),),
            # 8x8 patches on the 8x8 input: the shift goes into the weights
            (GroupSpec(0, 1, 8, 8, 8, 8), GroupSpec(1, 3, 8, 8, 8, 8, shift=5)),
        ],
        ids=["shifted", "downsample", "whole-plane-shifted"],
    )

    @SPECS
    @pytest.mark.parametrize("x_layout, g_layout", [("cm", "c"), ("c", "cm")])
    def test_forward_and_backward_layouts_may_differ(self, groups, x_layout, g_layout):
        # the backward folds the images of a channel by gy's layout, which a
        # replayed backward's C-ordered probe makes differ from x's: a mixed
        # step gives bit for bit what the step in gy's layout gives
        layout = {"c": np.ascontiguousarray, "cm": to_channel_major}
        spec = NeoCellSpec(groups)
        rng = Rng(32)
        layer = NeoCellLayer("cell", spec, rng)
        x = rng.normal((2, spec.channel_count, 8, 8), 1.0)
        gout = layout[g_layout](rng.normal(layer.out_shape(x.shape), 1.0))
        assert channel_major(gout) == (g_layout == "cm")
        mixed_x = layout[x_layout](x)
        assert channel_major(mixed_x) == (x_layout == "cm")

        def run(x):
            tape, out = self.record(layer, x)
            return out.array, self.finish(tape, out, gout)

        mixed, matched = run(mixed_x), run(layout[g_layout](x))
        assert np.array_equal(mixed[0], matched[0])
        assert mixed[1].keys() == matched[1].keys()
        assert all(np.array_equal(mixed[1][k], matched[1][k]) for k in mixed[1])
        self.assert_matches_reference(layer, x, gout, *mixed)

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


def channel_major(a):
    """True when (n, c, h, w) ``a`` has the memory of a C-contiguous (c, n, h, w) array."""
    return a.transpose(1, 0, 2, 3).flags.c_contiguous


def to_channel_major(a):
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def c_ordered(a):
    return a.flags.c_contiguous


class TestActivationLayout:
    """Inside a model, activations stay channel-major from the stem on."""

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
        for convert, in_order in ((np.ascontiguousarray, c_ordered), (to_channel_major, channel_major)):
            xp = Param("x", convert(x))
            tape = Tape()
            out = layer.forward(xp, tape, ForwardCtx())
            tape.record(Val(0.0), (out,), lambda g: (convert(gout),))
            gx = backward(tape)["x"]
            assert in_order(xp.array) and in_order(out.array) and in_order(gx)
            results.append((out.array, gx))
        for a, b in zip(*results):
            assert np.abs(a - b).max() <= 1e-12

    def test_block_outputs_are_channel_major_in_train_mode(self):
        model = build_model(named_spec("neonext-micro", classes=10), 32, Rng(33))
        ctx = ForwardCtx("train", Rng(34), update_stats=False)
        v = Val(Rng(35).normal((4, 3, 32, 32), 1.0))
        blocks = 0
        for layer in model.layers:
            v = layer.forward(v, Tape(), ctx)
            if isinstance(layer, Block):
                blocks += 1
                assert channel_major(v.array), layer.name
        assert blocks == sum(model.spec.depths)


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

    def test_missing_param_detected(self, tmp_path):
        spec = named_spec("neonext-micro", classes=10)
        model = build_model(spec, 32, Rng(13))
        save_checkpoint(model, tmp_path / "ckpt")
        idx = (tmp_path / "ckpt" / "index.txt").read_text().splitlines()
        (tmp_path / "ckpt" / "index.txt").write_text("\n".join(idx[1:]) + "\n")
        with pytest.raises(ConfigError, match="misses"):
            load_checkpoint(model, tmp_path / "ckpt")

    def _saved(self, tmp_path):
        model = build_model(named_spec("neonext-micro", classes=10), 32, Rng(13))
        save_checkpoint(model, tmp_path / "ckpt")
        return model, tmp_path / "ckpt" / "index.txt"

    def test_shape_column_checked(self, tmp_path):
        model, index = self._saved(tmp_path)
        lines = index.read_text().splitlines()
        name, fname, _ = lines[0].split("\t")
        lines[0] = f"{name}\t{fname}\t999,999"
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"{name} has shape 999,999"):
            load_checkpoint(model, tmp_path / "ckpt")

    def test_entry_not_in_model_rejected(self, tmp_path):
        model, index = self._saved(tmp_path)
        lines = index.read_text().splitlines()
        _, fname, shape = lines[0].split("\t")
        index.write_text("\n".join(lines + [f"bogus.param\t{fname}\t{shape}"]) + "\n")
        before = [p.array.copy() for p in model.params()]
        with pytest.raises(ConfigError, match="bogus.param"):
            load_checkpoint(model, tmp_path / "ckpt")
        assert all(np.array_equal(p.array, b) for p, b in zip(model.params(), before))

    def test_manifest_mismatch_rejected_before_loading(self, tmp_path):
        self._saved(tmp_path)
        manifest = tmp_path / "ckpt" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].replace("pointwise 24", "pointwise 32")
        manifest.write_text("\n".join(lines) + "\n")
        other = build_model(named_spec("neonext-micro", classes=10), 32, Rng(14))
        before = [p.array.copy() for p in other.params()]
        with pytest.raises(ConfigError, match="manifest line 2 reads .*pointwise 32"):
            load_checkpoint(other, tmp_path / "ckpt")
        assert all(np.array_equal(p.array, b) for p, b in zip(other.params(), before))


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
