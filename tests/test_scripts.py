import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, python=(sys.executable,), **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [*python, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
                 "equiv-check.csv", "init-dump.no-noise", "bench.dwconv", "synth.split", "op-neocell56.ri.grads",
                 "op-neocell56.split"):
        assert name in names


def test_digest_is_the_same_on_one_cpu_and_on_all():
    # one CPU (set in the child only) with BLAS on 1 thread, against every
    # CPU with BLAS on 2: the splits of GELU and of a large NeoCell layer
    # (op-neocell56.split) and BLAS's threads change no bit
    one_cpu = (sys.executable, "-c", "import os, runpy, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')")
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    one = run_script("digest.py", "--quick", python=one_cpu, **dict.fromkeys(blas, "1"))
    every = run_script("digest.py", "--quick", **dict.fromkeys(blas, "2"))
    assert one.returncode == 0, one.stderr
    assert every.returncode == 0, every.stderr
    assert one.stdout == every.stdout


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
