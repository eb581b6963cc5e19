from pathlib import Path

import numpy as np
import pytest

from neonext import cli
from neonext.bench import BENCH_CSV_HEADER
from neonext.cli import main
from neonext.neocell import GroupSpec, NeoCellSpec, init_part, merge_parts
from neonext.rng import Rng
from neonext.tensor import read_tensor
from neonext.trainer import CONFIG_HEADER


def write_tiny_config(path, out_dir, **overrides):
    kv = {
        "data": "synthetic",
        "synth_train": "192",
        "synth_val": "64",
        "epochs": "1",
        "seeds": "1",
        "init": "neoinit",
        "out_dir": str(out_dir),
    }
    kv.update(overrides)
    lines = [CONFIG_HEADER] + [f"{k} = {v}" for k, v in kv.items()]
    Path(path).write_text("\n".join(lines) + "\n")


class TestInitDump:
    def test_square_no_noise(self, tmp_path, capsys):
        out = tmp_path / "m.t4"
        code = main(["init-dump", "--rows", "7", "--cols", "7", "--no-noise", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("\n") == 7
        assert np.array_equal(read_tensor(out), np.eye(7)[None, None])

    def test_noisy_matches_library(self, tmp_path):
        out = tmp_path / "m.t4"
        main(["init-dump", "--rows", "3", "--cols", "5", "--seed", "11", "--out", str(out)])
        (part,) = merge_parts(NeoCellSpec((GroupSpec(0, 1, 5, 1, 3, 1),)))
        want = init_part(part, Rng(11))[0][0]
        assert np.array_equal(read_tensor(out)[0, 0], want)

    @pytest.mark.parametrize("rows, cols", [("0", "3"), ("3", "0"), ("-2", "3"), ("3", "-1")])
    def test_empty_dims_exit_1(self, rows, cols, tmp_path, capsys):
        out = tmp_path / "m.t4"
        code = main(["init-dump", "--rows", rows, "--cols", cols, "--out", str(out)])
        assert code == 1
        flag, value = ("rows", rows) if int(rows) < 1 else ("cols", cols)
        captured = capsys.readouterr()
        assert captured.err == f"error: --{flag} must be >= 1, got {value}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_repeat_invocation_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.t4", tmp_path / "b.t4"
        ta, tb = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["init-dump", "--rows", "4", "--cols", "6", "--seed", "3", "--out", str(a), "--text-out", str(ta)])
        out_a = capsys.readouterr().out
        main(["init-dump", "--rows", "4", "--cols", "6", "--seed", "3", "--out", str(b), "--text-out", str(tb)])
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()
        assert out_a == out_b


class TestEquivCheck:
    def test_passes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "equiv.csv"
        code = main(["equiv-check", "--trials", "20", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert "max |patchwise - blockdiag|" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,kind,n,c,h,w,groups,max_abs_dev"
        assert len(lines) == 21

    def test_repeat_invocation_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["equiv-check", "--trials", "10", "--seed", "9", "--out", str(a)])
        main(["equiv-check", "--trials", "10", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_exit_1(self, trials, tmp_path, capsys):
        out = tmp_path / "equiv.csv"
        code = main(["equiv-check", "--trials", trials, "--out", str(out)])
        assert code == 1
        assert f"error: trials must be >= 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
    def test_bad_tol_exits_1_before_any_trial(self, tol, tmp_path, capsys):
        out = tmp_path / "equiv.csv"
        assert main(["equiv-check", "--trials", "2", f"--tol={tol}", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --tol must be finite and >= 0, got {float(tol)}\n"
        assert captured.out == ""
        assert not out.exists()


class TestBenchCli:
    def test_runs_and_appends(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--op", "neocell", "--c", "2", "--h", "8", "--w", "8", "--k", "4",
            "--iters", "2", "--warmup", "1", "--out", str(out),
        ])
        assert code == 0
        assert "multiplies=512" not in capsys.readouterr().out  # c=2 doubles it
        assert out.read_text().count("\n") == 2

    def test_non_timing_columns_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--op", "dwconv", "--c", "2", "--h", "8", "--w", "8", "--k", "3",
                "--iters", "1", "--warmup", "0", "--seed", "4"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        timing = BENCH_CSV_HEADER.split(",").index("t_min_s")
        cut = lambda p: [",".join(ln.split(",")[:timing]) for ln in Path(p).read_text().splitlines()]
        assert cut(a) == cut(b)

    def test_negative_warmup_exits_1(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--op", "neocell", "--c", "2", "--h", "8", "--w", "8", "--k", "4",
            "--warmup", "-1", "--out", str(out),
        ])
        assert code == 1
        assert "error: warmup must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_csv_header_exits_1_before_timing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "old.csv"
        out.write_text(BENCH_CSV_HEADER.replace(",iters,", ",dtype,iters,") + "\n")
        before = out.read_bytes()

        def no_bench(*args, **kwargs):
            raise AssertionError("bench ran")

        monkeypatch.setattr("neonext.cli.run_bench", no_bench)
        code = main(["bench", "--op", "neocell", "--c", "2", "--h", "8", "--w", "8", "--k", "4", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "old.csv" in captured.err
        assert captured.out == ""
        assert out.read_bytes() == before

    def test_indivisible_size_exits_1(self, capsys):
        code = main(["bench", "--op", "neocell", "--c", "2", "--h", "30", "--k", "4", "--iters", "1"])
        assert code == 1
        assert "error: height 30 not divisible" in capsys.readouterr().err

    def test_blockdiag_indivisible_size_exits_1_before_timing(self, capsys):
        code = main(["bench", "--op", "blockdiag", "--c", "2", "--h", "30", "--k", "4", "--iters", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: height 30 not divisible by k=4\n"
        assert captured.out == ""

    @pytest.mark.parametrize("op, k", [("dwconv", "-1"), ("dwconv", "-3"), ("neocell", "-1"), ("blockdiag", "0")])
    def test_non_positive_k_exits_1_before_timing(self, op, k, capsys):
        code = main(["bench", "--op", op, "--c", "2", "--h", "8", "--w", "8", "--k", k, "--iters", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: dims must be positive, got c=2 h=8 w=8 k={k}\n"
        assert captured.out == ""

    def test_out_in_missing_directory_is_created(self, tmp_path):
        out = tmp_path / "new" / "dir" / "bench.csv"
        code = main(["bench", "--op", "neocell", "--c", "2", "--h", "8", "--w", "8", "--k", "4",
                     "--iters", "1", "--warmup", "0", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == BENCH_CSV_HEADER

    def test_out_under_a_regular_file_exits_1_before_timing(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "bench.csv"
        code = main(["bench", "--op", "neocell", "--c", "2", "--h", "8", "--w", "8", "--k", "4",
                     "--iters", "1", "--warmup", "0", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "afile" in captured.err
        assert captured.out == ""


class TestGradcheckCli:
    @pytest.mark.parametrize("layer", ["neocell", "pointwise", "batchnorm", "gelu"])
    def test_layers_pass(self, layer, capsys):
        code = main(["gradcheck", "--layer", layer, "--c", "2", "--h", "8", "--w", "8", "--k", "4"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "max relative error" in out

    def test_top_seed_passes(self, capsys):
        # the probe's stream is seed + 1 taken mod 2**64, as it was when Rng masked seeds
        code = main(["gradcheck", "--layer", "gelu", "--c", "1", "--h", "2", "--w", "2",
                     "--seed", str(2**64 - 1)])
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err

    def test_model_passes_with_sampling(self, capsys):
        code = main(["gradcheck", "--layer", "model", "--entries", "2"])
        assert code == 0, capsys.readouterr().out

    def test_failure_exit_nonzero(self, capsys):
        # an absurd threshold forces failure reporting
        code = main(["gradcheck", "--layer", "pointwise", "--c", "2", "--h", "4", "--w", "4",
                     "--threshold", "1e-18"])
        assert code == 1

    def test_indivisible_size_exits_1(self, capsys):
        code = main(["gradcheck", "--layer", "neocell", "--h", "6", "--k", "4"])
        assert code == 1
        assert "error: group 0: height 6 not divisible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arg, message",
        [
            ("--eps=0", "eps must be finite and > 0, got 0.0"),
            ("--eps=-1e-5", "eps must be finite and > 0, got -1e-05"),
            ("--eps=inf", "eps must be finite and > 0, got inf"),
            ("--entries=-1", "entries_per_param must be >= 1 or None, got -1"),
            ("--threshold=nan", "threshold must be finite and >= 0, got nan"),
            ("--threshold=inf", "threshold must be finite and >= 0, got inf"),
            ("--threshold=-1e-4", "threshold must be finite and >= 0, got -0.0001"),
        ],
    )
    def test_bad_probe_settings_exit_1(self, arg, message, capsys):
        code = main(["gradcheck", "--layer", "gelu", "--c", "1", "--h", "2", "--w", "2", arg])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: fd_check: {message}\n"
        assert captured.out == ""

    def test_non_finite_probe_loss_exits_1(self, capsys):
        # a finite but huge eps overflows the probed loss
        code = main(["gradcheck", "--layer", "gelu", "--c", "1", "--h", "2", "--w", "2", "--eps=1e300"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite loss while probing input[0]\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "layer, flag, value",
        [
            ("pointwise", "c", "0"),
            ("neocell", "h", "0"),
            ("batchnorm", "c", "0"),
            ("gelu", "h", "0"),
            ("gelu", "w", "-1"),
            ("neocell", "k", "0"),
            ("neocell", "k", "-3"),
        ],
    )
    def test_empty_sizes_exit_1_before_any_work(self, layer, flag, value, capsys):
        assert main(["gradcheck", "--layer", layer, f"--{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --{flag} must be >= 1, got {value}\n"
        assert captured.out == ""


class TestTrainCli:
    def test_train_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out")
        code = main(["train", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "out" / "run.csv").is_file()
        assert (tmp_path / "out" / "checkpoint" / "manifest.txt").is_file()

    def test_train_csv_deterministic_modulo_walltime(self, tmp_path):
        cfg_a, cfg_b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        write_tiny_config(cfg_a, tmp_path / "out_a")
        write_tiny_config(cfg_b, tmp_path / "out_b")
        main(["train", "--config", str(cfg_a)])
        main(["train", "--config", str(cfg_b)])
        strip = lambda p: [",".join(ln.split(",")[:-1]) for ln in Path(p).read_text().splitlines()]
        assert strip(tmp_path / "out_a" / "run.csv") == strip(tmp_path / "out_b" / "run.csv")

    def test_train_loads_the_data_once_for_all_seeds(self, tmp_path, monkeypatch):
        calls, load = [], cli.load_data
        monkeypatch.setattr(cli, "load_data", lambda cfg: calls.append(cfg) or load(cfg))
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", seeds="1,2,3", epochs="0")
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        assert all((tmp_path / "out" / f"seed{s}" / "run.csv").is_file() for s in (1, 2, 3))

    def test_diverged_run_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", lr="1e9", init="random-normal", epochs="2")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_blow_up_in_the_last_update_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", lr="1e9", init="random-normal")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out.startswith("seed 1: diverged, epochs 1, val_loss nan")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"data": "cifar10"}, "error: cifar10 runs need data_dir\n"),
            ({"data_dir": "/data"}, "error: data_dir is read only under data = cifar10, got '/data' with synthetic data\n"),
        ],
        ids=["cifar10-without-data-dir", "synthetic-with-data-dir"],
    )
    def test_data_source_keys_exit_1_before_any_run(self, overrides, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", **overrides)
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_config_error_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a config\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unparsable_value_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", epochs="three")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: config key 'epochs'")

    def test_removed_optimizer_key_exits_1_before_any_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", optimizer="adamw")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config key 'optimizer'\n"
        assert not (tmp_path / "out").exists()

    def test_fixed_protocol_key_exits_1_before_any_run(self, tmp_path, capsys):
        # the batch size is a constant of the protocol, not a config key
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", batch_size="32")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config key 'batch_size'\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_missing_config_is_named(self, command, tmp_path, capsys):
        assert main([command, "--config", str(tmp_path / "nosuch.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and "nosuch.cfg" in err


class TestAblateCli:
    def test_report_written(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out", seeds="1,2")
        code = main(["ablate", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy gap" in out
        assert (tmp_path / "out" / "ablation_report.txt").is_file()

    @pytest.mark.parametrize(
        "seeds, message", [("a", "error: --seeds must be a comma list of integers, got 'a'"), ("1,1", "error: seeds must not repeat")]
    )
    def test_bad_seeds_exit_1_before_any_run(self, seeds, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_tiny_config(cfg, tmp_path / "out")
        assert main(["ablate", "--config", str(cfg), "--seeds", seeds]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()


class TestUsageErrors:
    """argparse's own errors exit 1 like every other error: 2 means diverged."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "error: neonext: the following arguments are required: command"),
            (["frobnicate"], "error: neonext: argument command: invalid choice: 'frobnicate'"),
            (["bench", "--op", "foo"], "error: neonext bench: argument --op: invalid choice: 'foo'"),
            # argparse reads -1e-5 as an option; --eps=-1e-5 reaches fd_check's own eps check
            (["gradcheck", "--eps", "-1e-5"], "error: neonext gradcheck: argument --eps: expected one argument"),
            (["train"], "error: neonext train: the following arguments are required: --config"),
            (["ablate", "--config"], "error: neonext ablate: argument --config: expected one argument"),
            (["init-dump", "--rows", "3"], "error: neonext init-dump: the following arguments are required: --cols"),
            (["equiv-check", "--trials", "x"], "error: neonext equiv-check: argument --trials: invalid int value: 'x'"),
        ],
        ids=["no-command", "unknown-command", "bench", "gradcheck", "train", "ablate", "init-dump", "equiv-check"],
    )
    def test_usage_error_exits_1(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_negative_eps_with_equals_is_a_typed_error(self, capsys):
        assert main(["gradcheck", "--eps=-1e-5"]) == 1
        assert capsys.readouterr().err.startswith("error: fd_check: eps must be finite and > 0")


# (command line without the output flag, the flag): every output flag of
# every subcommand, with arguments that make each run quick
OUTPUT_FLAGS = {
    "bench-out": (["bench", "--op", "neocell", "--c", "2", "--h", "8", "--w", "8", "--k", "4",
                   "--iters", "1", "--warmup", "0"], "--out"),
    "init-dump-out": (["init-dump", "--rows", "2", "--cols", "2"], "--out"),
    "init-dump-text-out": (["init-dump", "--rows", "2", "--cols", "2"], "--text-out"),
    "equiv-check-out": (["equiv-check", "--trials", "2"], "--out"),
}


class TestOutputPaths:
    """One rule for every output flag, checked before any work: a missing
    parent directory is created; a path under a regular file, or one that
    is a directory, exits 1 naming the flag, with nothing printed or
    written."""

    @pytest.mark.parametrize("case", OUTPUT_FLAGS)
    def test_missing_parent_directory_is_created(self, case, tmp_path):
        argv, flag = OUTPUT_FLAGS[case]
        out = tmp_path / "missing" / "dir" / "file"
        assert main(argv + [flag, str(out)]) == 0
        assert out.is_file() and out.stat().st_size > 0

    @pytest.mark.parametrize("case", OUTPUT_FLAGS)
    @pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
    def test_unwritable_path_exits_1_before_any_work(self, case, where, tmp_path, capsys):
        argv, flag = OUTPUT_FLAGS[case]
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        out = tmp_path / "afile" / "x.csv" if where == "under-a-file" else tmp_path / "adir"
        # the other output of init-dump is valid: it must not be written either
        other = tmp_path / "other"
        extra = ["--text-out" if flag == "--out" else "--out", str(other)] if argv[0] == "init-dump" else []
        assert main(argv + extra + [flag, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} {out}")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert not any((tmp_path / "adir").iterdir())
