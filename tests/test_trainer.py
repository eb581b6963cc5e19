import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neonext import trainer
from neonext.autodiff import Grads, Param
from neonext.model import MODEL_SPECS
from neonext.errors import ConfigError, NumericError
from neonext.trainer import (
    CONFIG_HEADER,
    OptimSpec,
    RunConfig,
    ScheduleSpec,
    lr_at,
    parse_config,
    run_ablation,
    sgd_step,
    train_run,
    write_config,
)


def make_params(values):
    return [Param(f"p{i}", np.asarray(v, dtype=np.float64)) for i, v in enumerate(values)]


class TestSgd:
    def test_single_step_no_momentum(self):
        (p,) = make_params([[0.0]])
        sgd_step([p], Grads({"p0": np.array([1.0])}), {}, OptimSpec(lr=1.0, momentum=0.0))
        assert p.array.item() == -1.0

    def test_zero_grads_keep_params(self):
        (p,) = make_params([[3.25]])
        state = {}
        for _ in range(10):
            sgd_step([p], Grads({"p0": np.array([0.0])}), state, OptimSpec(lr=0.5, momentum=0.9))
        assert p.array.item() == 3.25

    def test_quadratic_bowl_matches_recurrence_and_converges(self):
        # loss 0.5*p^2, grad p; oracle is the same recurrence run separately
        lr, mu = 0.05, 0.5
        (p,) = make_params([[1.0]])
        state = {}
        losses = []
        p_ref, v_ref = 1.0, 0.0
        for _ in range(100):
            g = p.array.copy()
            sgd_step([p], Grads({"p0": g}), state, OptimSpec(lr=lr, momentum=mu))
            v_ref = mu * v_ref + p_ref
            p_ref = p_ref - lr * v_ref
            assert np.isclose(p.array.item(), p_ref, rtol=0, atol=1e-15)
            losses.append(0.5 * p.array.item() ** 2)
        assert losses[-1] < 1e-6
        assert all(b <= a + 1e-18 for a, b in zip(losses, losses[1:]))

    def test_non_finite_grad_names_parameter(self):
        (p,) = make_params([[1.0]])
        with pytest.raises(NumericError, match="p0"):
            sgd_step([p], Grads({"p0": np.array([np.inf])}), {}, OptimSpec())


class TestSchedule:
    def test_step_zero_is_zero_with_warmup(self):
        s = ScheduleSpec(1, 10, peak_lr=0.1)
        assert lr_at(s, 0, 100) == 0.0

    def test_warmup_end_hits_peak_exactly(self):
        s = ScheduleSpec(2, 10, peak_lr=0.1)
        assert lr_at(s, 200, 100) == 0.1

    def test_cosine_midpoint(self):
        s = ScheduleSpec(0, 10, peak_lr=0.1)
        assert abs(lr_at(s, 500, 100) - 0.05) <= 1e-12

    def test_final_step_is_floor(self):
        # the cosine anneals to a floor of 0
        s = ScheduleSpec(1, 10, peak_lr=0.1)
        assert lr_at(s, 1000, 100) == 0.0

    def test_zero_total_returns_floor(self):
        s = ScheduleSpec(0, 0, peak_lr=0.1)
        assert lr_at(s, 0, 100) == 0.0

    def test_continuous_at_warmup_junction(self):
        s = ScheduleSpec(1, 10, peak_lr=0.1)
        before = lr_at(s, 99, 100)
        at = lr_at(s, 100, 100)
        assert abs(at - before) <= 0.1 / 100 + 1e-12

    def test_monotone_decay_after_warmup(self):
        s = ScheduleSpec(1, 5, peak_lr=0.1)
        values = [lr_at(s, t, 50) for t in range(50, 251)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def tiny_cfg(tmp_path, **kw):
    base = dict(
        out_dir=str(tmp_path / "run"),
        epochs=1,
        seeds=(1,),
        synth_train=192,
        synth_val=64,
    )
    base.update(kw)
    return RunConfig(**base)


class TestTrainRun:
    def test_zero_epochs_initial_eval_only(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=0)
        report = train_run(cfg)
        assert report.status == "completed"
        assert len(report.rows) == 1
        assert report.rows[0].epoch == 0
        assert math.isnan(report.rows[0].train_loss)
        assert Path(report.csv_path).is_file()

    def test_smoke_run_learns(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path / "smoke"), epochs=3, seeds=(1,))
        report = train_run(cfg)
        assert report.status == "completed"
        assert report.final_val_acc >= 0.90

    def test_bit_reproducible_csv(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path / "a", epochs=2)
        cfg_b = tiny_cfg(tmp_path / "b", epochs=2)
        ra = train_run(cfg_a)
        rb = train_run(cfg_b)
        strip = lambda p: ["," .join(ln.split(",")[:-1]) for ln in Path(p).read_text().splitlines()]
        assert strip(ra.csv_path) == strip(rb.csv_path)
        # checkpoints byte-identical
        for f in sorted((Path(ra.checkpoint_path) / "params").iterdir()):
            other = Path(rb.checkpoint_path) / "params" / f.name
            assert f.read_bytes() == other.read_bytes()

    def test_batch_larger_than_train_split_rejected_before_any_work(self, tmp_path):
        # the batch is fixed at 64, so a smaller train split is refused with the config
        with pytest.raises(ConfigError, match="^synth_train must be >= 64, got 63$"):
            tiny_cfg(tmp_path, synth_train=63)
        assert not (tmp_path / "run").exists()

    def test_divergence_reported_not_raised(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=2, lr=1e9, init="random-normal")
        report = train_run(cfg)
        assert report.status == "diverged"
        assert report.divergence_step is not None
        status = Path(cfg.out_dir, "status.txt").read_text()
        assert "diverged" in status

    def test_blow_up_in_the_last_update_is_diverged(self, tmp_path):
        # no forward follows the epoch's last update: the epoch's evaluation sees it
        cfg = tiny_cfg(tmp_path, lr=1e9, init="random-normal")
        report = train_run(cfg)
        steps = 192 // RunConfig.batch_size
        assert math.isfinite(report.rows[-1].train_loss) and math.isnan(report.rows[-1].val_loss)
        assert (report.status, report.divergence_step) == ("diverged", steps)
        status = Path(cfg.out_dir, "status.txt").read_text()
        assert status == f"status diverged\nseed 1\ninit random-normal\ndivergence_step {steps}\n"

    def test_csv_schema(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=1)
        report = train_run(cfg)
        lines = Path(report.csv_path).read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc,lr,wall_time_s"
        assert len(lines) == 3  # header + initial eval + epoch 1


class TestAblation:
    def test_structure_with_two_seeds(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=1, seeds=(1, 2))
        report = run_ablation(cfg)
        assert set(report.arms) == {"neoinit", "random-normal"}
        assert all(len(arm.runs) == 2 for arm in report.arms.values())
        text = Path(report.report_path).read_text()
        assert "88.45" in text and "84.65" in text and "3.8" in text
        neo, rand = report.arms["neoinit"], report.arms["random-normal"]
        holds = neo.mean_acc > rand.mean_acc and neo.diverged == 0
        assert f"direction holds: {'yes' if holds else 'no'}\n" in text
        assert report.summary_text() in text
        assert (Path(cfg.out_dir) / "neoinit_seed1" / "run.csv").is_file()

    def test_loads_the_data_once_for_every_seed_and_arm(self, tmp_path, monkeypatch):
        calls, load = [], trainer.load_data
        monkeypatch.setattr(trainer, "load_data", lambda cfg: calls.append(cfg) or load(cfg))
        cfg = tiny_cfg(tmp_path / "ablate", epochs=1, seeds=(1, 2))
        report = run_ablation(cfg)
        assert len(calls) == 1
        # a run on the shared data writes what a run that loads its own writes
        alone = train_run(tiny_cfg(tmp_path / "alone", epochs=1, seeds=(2,), init="random-normal"))
        shared = report.arms["random-normal"].runs[1]
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in Path(p).read_text().splitlines()]
        assert strip(shared.csv_path) == strip(alone.csv_path)
        for f in sorted((Path(alone.checkpoint_path) / "params").iterdir()):
            assert f.read_bytes() == (Path(shared.checkpoint_path) / "params" / f.name).read_bytes()

    def test_needs_two_seeds(self, tmp_path):
        with pytest.raises(ConfigError, match="2 seeds"):
            run_ablation(tiny_cfg(tmp_path), seeds=[1])

    def test_repeated_seeds_rejected_before_any_run(self, tmp_path):
        # both runs would write one directory, and the report would count them as two
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(ConfigError, match="seeds must not repeat"):
            run_ablation(cfg, seeds=[1, 1])
        assert not Path(cfg.out_dir).exists()


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_path = st.text(
    st.characters(categories=("L", "N"), include_characters="/._-=# "), max_size=24
).map(str.strip)


# data_dir is set under cifar10 and only there
_sources = st.just(("synthetic", "")) | st.tuples(st.just("cifar10"), _path.filter(bool))
_configs = st.builds(
    lambda source, **kw: RunConfig(data=source[0], data_dir=source[1], **kw),
    _sources,
    synth_train=st.integers(64, 10**6),
    synth_val=st.integers(1, 10**6),
    lr=_positive,
    epochs=st.integers(0, 1000),
    seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6, unique=True).map(tuple),
    init=st.sampled_from(["neoinit", "random-normal"]),
    out_dir=_path,
)

# every numeric config key, with values outside its range
_BAD_NUMBERS = {
    "lr": st.floats(max_value=0.0, allow_infinity=False).map(repr) | st.sampled_from(["nan", "inf", "-inf"]),
    "synth_train": st.integers(max_value=63).map(str),
    "synth_val": st.integers(max_value=0).map(str),
    "epochs": st.integers(max_value=-1).map(str),
}
_bad_lines = st.sampled_from(sorted(_BAD_NUMBERS)).flatmap(
    lambda key: st.tuples(st.just(key), _BAD_NUMBERS[key])
)


class TestConfigFile:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=_configs)
    def test_write_then_parse_gives_the_same_config(self, tmp_path, cfg):
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        assert parse_config(path) == cfg

    def test_roundtrip(self, tmp_path):
        cfg = RunConfig(
            lr=0.004,
            seeds=(3, 4, 5),
            out_dir="runs/x",
        )
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        back = parse_config(path)
        assert back == cfg

    def test_default_config_file_text(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(RunConfig(), path)
        assert path.read_text().split("\n") == [
            CONFIG_HEADER,
            "data = synthetic",
            "data_dir = ",
            "synth_train = 1920",
            "synth_val = 512",
            "lr = 0.1",
            "epochs = 3",
            "seeds = 1",
            "init = neoinit",
            "out_dir = runs/out",
            "",
        ]

    def test_keys_are_the_run_config_fields(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(RunConfig(), path)
        keys = [ln.split(" = ")[0] for ln in path.read_text().splitlines()[1:]]
        assert keys == [f.name for f in fields(RunConfig)]
        assert keys == ["data", "data_dir", "synth_train", "synth_val", "lr", "epochs", "seeds", "init", "out_dir"]
        assert [f.name for f in fields(OptimSpec)] == ["lr", "momentum"]

    def test_pinned_protocol_is_constant(self):
        # the values perfbench reads off a config, now class constants
        cfg = RunConfig()
        assert (cfg.model, cfg.classes, cfg.batch_size) == ("neonext-micro", 10, 64)
        assert (cfg.augment, cfg.mixup_alpha, cfg.label_smoothing) == ("basic", 0.8, 0.1)
        assert cfg.drop_path == MODEL_SPECS["neonext-micro"].drop_path_rate
        assert cfg.optimizer == OptimSpec(0.1, 0.9)
        assert cfg.schedule() == ScheduleSpec(1, 3, 0.1)
        with pytest.raises(TypeError):
            RunConfig(batch_size=32)

    def test_optimizer_is_lr_and_momentum(self):
        cfg = RunConfig(optimizer=OptimSpec(lr=0.5))
        assert cfg == RunConfig(lr=0.5)
        assert cfg.optimizer == OptimSpec(0.5, 0.9)
        assert replace(cfg, lr=0.1).optimizer == OptimSpec(0.1)
        with pytest.raises(ConfigError, match="not both"):
            RunConfig(optimizer=OptimSpec(lr=0.5), lr=0.5)
        with pytest.raises(ConfigError, match="momentum is fixed at 0.9, got 0.25"):
            RunConfig(optimizer=OptimSpec(lr=0.5, momentum=0.25))
        with pytest.raises(AttributeError):
            cfg.optimizer = OptimSpec()

    def test_readme_example_parses(self):
        # the docs show every key the parser takes, in field order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Run configuration files", 1)[1]
        block = section.split("```", 2)[1]
        cfg = parse_config(block)
        assert cfg.seeds == (1, 2, 3, 4, 5) and cfg.out_dir == "runs/demo"
        lines = [ln for ln in block.splitlines()[2:] if ln and not ln.startswith("#")]
        assert [ln.partition("=")[0].strip() for ln in lines] == [f.name for f in fields(RunConfig)]

    def test_header_only_file_is_the_default_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_HEADER + "\n")
        assert parse_config(path) == RunConfig()

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model = neonext-micro\n")
        with pytest.raises(ConfigError, match="header"):
            parse_config(p)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(f"{CONFIG_HEADER}\nlearning_rate = 0.1\n")

    @pytest.mark.parametrize(
        "key",
        ["optimizer", "beta1", "beta2", "weight_decay", "grad_clip", "floor_lr",
         "model", "classes", "momentum", "warmup_epochs", "batch_size", "augment", "label_smoothing",
         "mixup_alpha", "drop_path"],
    )
    def test_removed_optimizer_key_rejected(self, key):
        # AdamW, gradient clipping and the LR floor are gone, and the pinned protocol's
        # settings are constants: a file that sets any of them is refused
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            parse_config(f"{CONFIG_HEADER}\n{key} = 0.5\n")

    def test_train_split_smaller_than_a_batch_rejected(self):
        with pytest.raises(ConfigError, match="^synth_train must be >= 64, got 63$"):
            parse_config(f"{CONFIG_HEADER}\nsynth_train = 63\n")
        assert parse_config(f"{CONFIG_HEADER}\nsynth_train = 64\n").synth_train == 64

    def test_synthetic_data_refuses_a_data_dir(self):
        with pytest.raises(ConfigError, match="^data_dir is read only under data = cifar10, got '/data' with synthetic data$"):
            parse_config(f"{CONFIG_HEADER}\ndata_dir = /data\n")
        with pytest.raises(ConfigError, match="data_dir"):
            RunConfig(data_dir="x")

    def test_cifar10_needs_data_dir_at_parse_time(self):
        with pytest.raises(ConfigError, match="^cifar10 runs need data_dir$"):
            parse_config(f"{CONFIG_HEADER}\ndata = cifar10\n")
        assert parse_config(f"{CONFIG_HEADER}\ndata = cifar10\ndata_dir = /data\n").data_dir == "/data"

    @pytest.mark.parametrize("line", ["synth_train = 10", "synth_val = 0", "synth_train = -5"])
    def test_synthetic_sizes_are_checked_only_under_synthetic(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(f"{CONFIG_HEADER}\n{line}\n")
        cfg = parse_config(f"{CONFIG_HEADER}\ndata = cifar10\ndata_dir = /data\n{line}\n")
        key, _, value = line.partition(" = ")
        assert getattr(cfg, key) == int(value)

    def test_bad_init_rejected(self):
        with pytest.raises(ConfigError, match="init"):
            parse_config(f"{CONFIG_HEADER}\ninit = magic\n")

    def test_unparsable_number_names_its_key(self):
        with pytest.raises(ConfigError, match="'epochs'.*'three'"):
            parse_config(f"{CONFIG_HEADER}\nepochs = three\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate config key 'epochs'"):
            parse_config(f"{CONFIG_HEADER}\nepochs = 2\nepochs = 5\n")

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds must not repeat"):
            parse_config(f"{CONFIG_HEADER}\nseeds = 1,2,1\n")
        with pytest.raises(ConfigError, match="seeds"):
            RunConfig(seeds=(4, 4))

    @pytest.mark.parametrize("seeds, bad", [("-1", -1), ("18446744073709551616", 2**64),
                                            ("0, 18446744073709551616", 2**64)])
    def test_seed_outside_64_bits_rejected(self, seeds, bad):
        # 2**64 would run Rng(0)'s stream, so "0, 2**64" would run one stream twice
        with pytest.raises(ConfigError, match=re.escape(f"seeds: seed must be in [0, 2**64), got {bad}")):
            parse_config(f"{CONFIG_HEADER}\nseeds = {seeds}\n")

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="nosuch.cfg"):
            parse_config(tmp_path / "nosuch.cfg")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(f"{CONFIG_HEADER}\n\n# a comment\nepochs = 7\n")
        assert cfg.epochs == 7

    @pytest.mark.parametrize(
        "line",
        # weight_decay, floor_lr and mixup_alpha are keys no longer, so their lines are refused as unknown
        ["lr = nan", "lr = inf", "weight_decay = nan", "floor_lr = nan", "mixup_alpha = -1", "mixup_alpha = 0",
         "epochs = -2"],
    )
    def test_reported_numeric_holes_rejected(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(f"{CONFIG_HEADER}\n{line}\n")

    @settings(max_examples=200, deadline=None)
    @given(bad=_bad_lines)
    def test_out_of_range_numeric_value_is_config_error(self, bad):
        key, value = bad
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{CONFIG_HEADER}\n{key} = {value}\n")


class TestTwoLayerBaseline:
    def test_simple_model_reaches_95_percent_on_synth(self, tmp_path):
        """A two-pointwise-layer head on coarse features separates the task."""
        from neonext.autodiff import Tape, backward
        from neonext.data import BatchPlan, batches, split_dataset, synth_task
        from neonext.model import (
            ForwardCtx,
            GlobalPoolLayer,
            GeluLayer,
            PointwiseLayer,
            SpaceToDepthLayer,
            one_hot,
            softmax_cross_entropy,
        )
        from neonext.autodiff import Val
        from neonext.rng import Rng

        full = synth_task(Rng(20240901), 1024 + 256, 10)
        train, val = split_dataset(full, 256)
        rng = Rng(0)
        layers = [
            SpaceToDepthLayer(8),
            PointwiseLayer("fc1", 192, 64, rng),
            GeluLayer(),
            PointwiseLayer("fc2", 64, 10, rng),
            GlobalPoolLayer(),
        ]
        params = [p for l in layers for p in l.params()]
        state = {}
        for epoch in range(3):
            for batch in batches(train, BatchPlan(seed=1, batch_size=64, epoch=epoch)):
                tape = Tape()
                tape.watch(*params)
                v = Val(batch.images.array)
                ctx = ForwardCtx("train")
                for l in layers:
                    v = l.forward(v, tape, ctx)
                loss = softmax_cross_entropy(tape, v, one_hot(batch.labels, 10))
                grads = backward(tape)
                sgd_step(params, grads, state, OptimSpec(lr=0.05, momentum=0.9))
        v = Val(val.images.array)
        for l in layers:
            v = l.forward(v, None, ForwardCtx("eval"))
        acc = (v.array.argmax(axis=1) == val.labels).mean()
        assert acc >= 0.95
