import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from neonext.bench import BENCH_CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_bench_sweep_tiny_case(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("bench_sweep.py", "--c", "2", "--size", "8", "--ks", "4",
                      "--iters", "1", "--warmup", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "k=4: multiply ratio 1/2" in proc.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert [ln.split(",")[0] for ln in lines[1:]] == ["neocell", "blockdiag"]


def test_bench_sweep_bad_iters_is_an_error_line(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("bench_sweep.py", "--c", "2", "--size", "8", "--ks", "4", "--iters", "0", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "error: iters must be >= 1, got 0\n"
    assert not out.exists()


def test_bench_sweep_refuses_other_csv_header_before_any_bench(tmp_path):
    out = tmp_path / "old.csv"
    out.write_text(BENCH_CSV_HEADER.replace(",iters,", ",dtype,iters,") + "\n")
    before = out.read_bytes()
    proc = run_script("bench_sweep.py", "--c", "2", "--size", "8", "--ks", "4",
                      "--iters", "1", "--warmup", "0", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "old.csv" in proc.stderr
    assert proc.stdout == ""   # no k= timing line: no bench ran
    assert out.read_bytes() == before


def test_bench_sweep_skips_indivisible_k(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("bench_sweep.py", "--c", "1", "--size", "8", "--ks", "3,4",
                      "--iters", "1", "--warmup", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "skip k=3: 8 not divisible" in proc.stderr
    assert [ln.split(",")[4] for ln in out.read_text().splitlines()[1:]] == ["4", "4"]


@pytest.mark.parametrize("ks", ["a", "0", "4,-7", "", "4,,7"])
def test_bench_sweep_bad_ks_is_an_error_line(tmp_path, ks):
    out = tmp_path / "sweep.csv"
    proc = run_script("bench_sweep.py", "--c", "1", "--size", "8", "--ks", ks,
                      "--iters", "1", "--warmup", "0", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: --ks must be a comma list of positive integers, got {ks!r}\n"
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--c", "abc"], "argument --c: invalid int value: 'abc'"),
    (["--bogus"], "unrecognized arguments: --bogus"),
])
def test_bench_sweep_usage_error_exits_1(tmp_path, args, message):
    # exit 2 is the CLI's diverged-run code, so a usage error must not use it
    out = tmp_path / "sweep.csv"
    proc = run_script("bench_sweep.py", *args, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: bench_sweep.py: {message}\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_bench_sweep_creates_missing_out_directory(tmp_path):
    out = tmp_path / "runs" / "sweep.csv"
    proc = run_script("bench_sweep.py", "--c", "1", "--size", "8", "--ks", "4",
                      "--iters", "1", "--warmup", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == BENCH_CSV_HEADER


def perf_record(*drop):
    """A perfbench --trace 0 record with every key bench_entry.py reads, but ``drop``."""
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "workload": "train-micro", "seed": 1, "seconds": 30, "trace": 0, "environment": {},
        "failed_frac": 0.0, "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in gated},
    }
    return {k: v for k, v in record.items() if k not in drop}


@pytest.mark.parametrize("case", ["usage", "missing-file", "invalid-json", "missing-key"])
def test_bench_entry_bad_input_exits_1_and_writes_nothing(tmp_path, case):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(perf_record()))
    if case == "invalid-json":
        bad.write_text("{\"workload\": ")
    elif case == "missing-key":
        bad.write_text(json.dumps(perf_record("seconds")))
    args = ["--label", "change", "--commit", "abc"]
    if case != "usage":
        args += ["--records", str(good), str(bad)]
    committed = {p.name: p.read_bytes() for p in sorted(ROOT.glob("BENCH_*.json"))}
    proc = run_script("bench_entry.py", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    expected = {
        "usage": "error: bench_entry.py: the following arguments are required: --records\n",
        "missing-file": f"error: {bad}: No such file or directory\n",
        "invalid-json": f"error: {bad}: invalid JSON: ",
        "missing-key": f"error: {bad}: missing key 'seconds'\n",
    }[case]
    assert proc.stderr.startswith(expected), proc.stderr
    assert {p.name: p.read_bytes() for p in sorted(ROOT.glob("BENCH_*.json"))} == committed


def test_digest_is_reproducible():
    first = run_script("digest.py", "--quick")
    second = run_script("digest.py", "--quick")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = [ln.split(" ") for ln in first.stdout.splitlines()]
    names = [name for name, _ in lines]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
    assert len(set(names)) == len(names)
    for name in ("train.neoinit.checkpoint", "train.neoinit.loaded", "train.random-normal.run_csv",
                 "equiv-check.csv", "init-dump.no-noise", "bench.dwconv", "synth.split", "op-neocell56.ri.grads"):
        assert name in names


def test_paper_step_micro_case():
    proc = run_script("paper_step.py", "--model", "neonext-micro", "--size", "32", "--batch", "2", "--steps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split(" ")[0] for ln in lines] == ["params", "build_model_s", "step_ms_median", "peak_rss_mb"]
    assert lines[0] == "params 693256"
    assert re.fullmatch(r"build_model_s \d+\.\d{3}", lines[1])
    assert re.fullmatch(r"step_ms_median \d+\.\d over 1 steps", lines[2])
    assert re.fullmatch(r"peak_rss_mb \d+\.\d", lines[3])


@pytest.mark.parametrize("args, message", [
    (("--batch", "3"), "--batch must be in [1, 2], got 3"),
    (("--steps", "0"), "--steps must be in [1, 10], got 0"),
    (("--size", "0"), "--size must be >= 1, got 0"),
    (("--size", "30"), "input 30 not divisible by stem patch 4"),
    (("--model", "nope"), "invalid choice: 'nope'"),
])
def test_paper_step_bad_input_exits_1(args, message):
    proc = run_script("paper_step.py", "--model", "neonext-micro", "--size", "32", *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: paper_step.py: ") and message in proc.stderr, proc.stderr
    assert proc.stdout == ""
