"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure so the run log doubles as a report.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from neonext.autodiff import Param, Tape, Val, backward, fd_check
from neonext.bench import BENCH_CSV_HEADER, bench, flops_dwconv, flops_neocell
from neonext.cli import main as cli_main
from neonext.equiv import run_trials
from neonext.model import (
    ForwardCtx,
    NeoCellLayer,
    build_model,
    named_spec,
    one_hot,
    softmax_cross_entropy,
)
from neonext.neocell import GroupSpec, NeoCellSpec
from neonext.neoinit import neoinit_pattern
from neonext.rng import Rng
from neonext.tensor import Tensor4
from neonext.trainer import RunConfig, run_ablation

REAL_CIFAR_DIR = os.environ.get("CIFAR10_DIR", "")


def report(criterion: str, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {criterion}: PASS ({detail})")


class TestCriterion1Equivalence:
    def test_patchwise_blockdiag_agree_on_100_random_configs(self):
        t0 = time.perf_counter()
        results = run_trials(120, seed=20240801)
        elapsed = time.perf_counter() - t0
        worst = max(r.max_abs_dev for r in results)
        kinds = {r.kind for r in results}
        assert {"mixed-square", "down-2to1", "up-2to3"} <= kinds
        assert worst <= 1e-10, f"max deviation {worst:.3e} exceeds 1e-10"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s, budget 60s"
        report(
            "criterion 1, path equivalence",
            f"120 configs, max |patchwise - blockdiag| = {worst:.2e}, {elapsed:.1f}s",
        )


def _layer_fd(layer_spec: NeoCellSpec, dims, seed: int) -> float:
    """Max FD relative error over all params and the input of one layer."""
    rng = Rng(seed)
    x_param = Param("input", rng.normal(dims, 1.0), "input")
    layer = NeoCellLayer("cell", layer_spec, rng, init="neoinit")
    params = [x_param] + layer.params()
    out_shape = layer.out_shape(dims)
    probe = 0.5 + rng.uniform(int(np.prod(out_shape))).reshape(out_shape)

    def loss_fn(tape=None):
        if tape is not None:
            tape.watch(*params)
        v = Val(x_param.array)
        if tape is not None:
            tape.record(v, (x_param,), lambda g: (g,))
        out = layer.forward(v, tape, ForwardCtx("train", update_stats=False))
        sq = Val(0.5 * ((probe * out.array) ** 2).sum())
        if tape is not None:
            tape.record(sq, (out,), lambda g: (np.asarray(g) * probe * probe * out.array,))
        return sq

    tape = Tape()
    loss_fn(tape)
    grads = backward(tape)
    rep = fd_check(
        lambda: float(loss_fn().array), params, grads,
        eps=1e-5, threshold=1e-4, entries_per_param=24,
    )
    assert rep.passed, rep.table()
    return rep.max_rel_err


class TestCriterion2Gradients:
    def test_all_operators_match_central_differences(self):
        t0 = time.perf_counter()
        worst = 0.0
        # patch operator, every group variant
        variants = [
            ("mixed sizes + shifts", NeoCellSpec((
                GroupSpec(0, 1, 4, 4, 4, 4, shift=0),
                GroupSpec(1, 2, 4, 4, 4, 4, shift=3),
                GroupSpec(2, 3, 7, 7, 7, 7, shift=1),
            )), (2, 3, 28, 28)),
            ("downsample 2->1", NeoCellSpec((GroupSpec(0, 2, 2, 2, 1, 1),)), (2, 2, 8, 8)),
            ("upsample 2->3", NeoCellSpec((GroupSpec(0, 2, 2, 2, 3, 3),)), (2, 2, 8, 8)),
        ]
        for name, spec, dims in variants:
            worst = max(worst, _layer_fd(spec, dims, seed=11))

        # pointwise, batchnorm, gelu via the CLI harness (exit 0 means pass)
        for layer in ("pointwise", "batchnorm", "gelu"):
            code = cli_main(["gradcheck", "--layer", layer, "--c", "3", "--h", "8", "--w", "8"])
            assert code == 0, f"{layer} gradcheck failed"

        # the full micro loss on a 2-sample batch at its native 64^2 input
        rng = Rng(0)
        spec = named_spec("neonext-micro", classes=10, drop_path_rate=0.0)
        model = build_model(spec, 64, rng)
        x = Tensor4(rng.normal((2, 3, 64, 64), 1.0))
        targets = one_hot(np.array([1, 7]), 10)

        def loss_fn(tape=None):
            logits = model.forward(x, ForwardCtx("train", update_stats=False), tape)
            return softmax_cross_entropy(tape, logits, targets)

        tape = Tape()
        loss_fn(tape)
        grads = backward(tape)
        rep = fd_check(
            lambda: float(loss_fn().array), model.params(), grads,
            eps=1e-5, threshold=1e-4, entries_per_param=3,
        )
        assert rep.passed, rep.table()
        worst = max(worst, rep.max_rel_err)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0, f"took {elapsed:.1f}s, budget 120s"
        report(
            "criterion 2, gradient correctness",
            f"max rel err {worst:.2e} at eps=1e-5 over all operators + full micro loss, {elapsed:.1f}s",
        )


class TestCriterion3Complexity:
    def test_ratio_counters_and_crossover(self):
        for k in (2, 3, 4, 5, 7, 8, 14):
            for c, mult in ((1, 1), (3, 2), (96, 8)):
                h = w = k * mult
                ratio = Fraction(
                    flops_neocell(c, h, w, k).multiplies,
                    flops_dwconv(c, h, w, k).multiplies,
                )
                assert ratio == Fraction(2, k)
        for c, h, w, k in [(1, 8, 8, 4), (3, 28, 28, 7), (2, 16, 8, 4), (4, 12, 12, 3)]:
            assert bench("neocell", c, h, w, k, iters=1, warmup=0).multiplies == flops_neocell(c, h, w, k).multiplies
        for c, h, w, k in [(1, 8, 8, 3), (3, 14, 14, 7), (2, 10, 6, 5)]:
            assert bench("dwconv", c, h, w, k, iters=1, warmup=0).multiplies == flops_dwconv(c, h, w, k).multiplies
        for k in (3, 4, 5, 7):
            h = w = 8 * k
            assert flops_neocell(1, h, w, k).multiplies < flops_dwconv(1, h, w, k).multiplies
        report(
            "criterion 3, complexity",
            "ratio == 2/k exactly on the sweep; instrumented counters equal the formulas; crossover holds for k in {3,4,5,7}",
        )


class TestCriterion4InitFidelity:
    def test_patterns_identity_layer_and_downsample(self):
        assert np.array_equal(neoinit_pattern(7, 7), np.eye(7))
        assert np.array_equal(neoinit_pattern(2, 4), [[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]])
        assert np.array_equal(neoinit_pattern(4, 2), [[0.5, 0], [0.5, 0], [0, 0.5], [0, 0.5]])
        want_37 = np.zeros((3, 7))
        want_37[0, 0:2] = want_37[1, 2:4] = want_37[2, 4:6] = 0.5
        assert np.array_equal(neoinit_pattern(3, 7), want_37)
        assert np.array_equal(neoinit_pattern(1, 2), [[0.5, 0.5]])

        # noise-free square init (rng=None) makes the layer the exact identity
        spec = NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4), GroupSpec(2, 3, 7, 7, 7, 7)))
        layer = NeoCellLayer("cell", spec, None)
        x = Tensor4(Rng(1).normal((2, 3, 28, 28), 1.0))
        y = layer.forward(Val(x.array), None, ForwardCtx())
        assert np.array_equal(y.array, x.array)

        # noise-free 2->1 unit is 2x average pooling
        down = NeoCellSpec((GroupSpec(0, 3, 2, 2, 1, 1),))
        dlayer = NeoCellLayer("down", down, None)
        xd = Tensor4(Rng(3).normal((2, 3, 16, 16), 1.0))
        yd = dlayer.forward(Val(xd.array), None, ForwardCtx()).array
        pooled = xd.array.reshape(2, 3, 8, 2, 8, 2).mean(axis=(3, 5))
        assert np.abs(yd - pooled).max() <= 1e-12
        report(
            "criterion 4, init fidelity",
            "traced patterns bit-exact; square init layer is the identity; 2->1 unit equals average pooling within 1e-12",
        )


ABLATION_SEEDS = (1, 2, 3, 4, 5)


class TestCriterion5Ablation:
    def test_synthetic_ci_variant(self, tmp_path):
        t0 = time.perf_counter()
        cfg = RunConfig(
            out_dir=str(tmp_path / "ablation"),
            epochs=3,
            seeds=ABLATION_SEEDS,
            synth_train=1280,
            synth_val=320,
        )
        rep = run_ablation(cfg)
        elapsed = time.perf_counter() - t0
        neo = rep.arms["neoinit"]
        rand = rep.arms["random-normal"]
        assert neo.diverged == 0, "an identity-init run diverged"
        assert neo.mean_acc > rand.mean_acc, (
            f"direction violated: neoinit {neo.mean_acc:.4f} vs random {rand.mean_acc:.4f}"
        )
        assert elapsed <= 300.0, f"took {elapsed:.1f}s, budget 300s"
        report(
            "criterion 5, init ablation (synthetic CI variant)",
            f"neoinit {neo.mean_acc:.4f} > random {rand.mean_acc:.4f} "
            f"(gap {rep.accuracy_gap:+.4f}, random divergences {rand.diverged}/5, {elapsed:.0f}s)",
        )

    @pytest.mark.skipif(not REAL_CIFAR_DIR, reason="set CIFAR10_DIR to run the 10-epoch CIFAR-10 ablation (~2h CPU), or run `neonext ablate --config` on a cifar10 config")
    def test_cifar_variant(self, tmp_path):
        t0 = time.perf_counter()
        cfg = RunConfig(
            out_dir=str(tmp_path / "cifar_ablation"),
            data="cifar10",
            data_dir=REAL_CIFAR_DIR,
            epochs=10,
            seeds=ABLATION_SEEDS,
        )
        rep = run_ablation(cfg)
        elapsed = time.perf_counter() - t0
        neo = rep.arms["neoinit"]
        rand = rep.arms["random-normal"]
        assert neo.diverged == 0
        assert neo.mean_acc > rand.mean_acc
        report(
            "criterion 5, init ablation (CIFAR-10)",
            f"neoinit {neo.mean_acc:.4f} > random {rand.mean_acc:.4f}, "
            f"random divergences {rand.diverged}/5, {elapsed / 3600:.2f}h",
        )


class TestCriterion6Architecture:
    def test_parameter_count_and_stem_chain(self):
        spec = named_spec("neonext-t")
        model = build_model(spec, 224, Rng(0))
        count = model.param_count()
        rel = abs(count - 27_700_000) / 27_700_000
        assert rel <= 0.02, f"{count} deviates {100 * rel:.2f}% from 27.7M"
        chain = model.shape_chain()
        assert chain[0][1] == (1, 3, 224, 224)
        assert chain[1][1] == (1, 48, 56, 56)
        assert chain[2][1] == (1, 96, 56, 56)
        report(
            "criterion 6, architecture fidelity",
            f"neonext-t builds with {count} parameters ({100 * rel:.2f}% from 27.7M); "
            "stem chain 3x224^2 -> 48x56^2 -> 96x56^2",
        )


class TestCriterion7Determinism:
    def test_cli_outputs_byte_identical_modulo_timing(self, tmp_path):
        # init-dump: binary + text grid
        a, b = tmp_path / "a.t4", tmp_path / "b.t4"
        cli_main(["init-dump", "--rows", "5", "--cols", "8", "--seed", "21", "--out", str(a)])
        cli_main(["init-dump", "--rows", "5", "--cols", "8", "--seed", "21", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

        # equiv-check: full CSV
        ea, eb = tmp_path / "ea.csv", tmp_path / "eb.csv"
        cli_main(["equiv-check", "--trials", "15", "--seed", "4", "--out", str(ea)])
        cli_main(["equiv-check", "--trials", "15", "--seed", "4", "--out", str(eb)])
        assert ea.read_bytes() == eb.read_bytes()

        # bench: all columns except the trailing timing fields
        ba, bb = tmp_path / "ba.csv", tmp_path / "bb.csv"
        args = ["bench", "--op", "neocell", "--c", "2", "--h", "8", "--w", "8", "--k", "4",
                "--iters", "1", "--warmup", "0", "--seed", "2"]
        cli_main(args + ["--out", str(ba)])
        cli_main(args + ["--out", str(bb)])
        timing = BENCH_CSV_HEADER.split(",").index("t_min_s")
        cut = lambda p: [",".join(ln.split(",")[:timing]) for ln in Path(p).read_text().splitlines()]
        assert cut(ba) == cut(bb)

        # train: per-epoch CSV minus wall time, plus checkpoint bytes
        from neonext.trainer import write_config

        for tag in ("ra", "rb"):
            cfg = RunConfig(
                out_dir=str(tmp_path / tag), epochs=1, seeds=(3,),
                synth_train=192, synth_val=64,
            )
            write_config(cfg, tmp_path / f"{tag}.cfg")
            assert cli_main(["train", "--config", str(tmp_path / f"{tag}.cfg")]) == 0
        strip = lambda p: [",".join(ln.split(",")[:-1]) for ln in Path(p).read_text().splitlines()]
        assert strip(tmp_path / "ra" / "run.csv") == strip(tmp_path / "rb" / "run.csv")
        pa = sorted((tmp_path / "ra" / "checkpoint" / "params").iterdir())
        pb = sorted((tmp_path / "rb" / "checkpoint" / "params").iterdir())
        assert [p.name for p in pa] == [p.name for p in pb]
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(pa, pb))
        report(
            "criterion 7, determinism",
            "init-dump, equiv-check, bench (non-timing columns), train CSV and checkpoints byte-identical across reruns",
        )
