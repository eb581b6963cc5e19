"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neonext.data import split_dataset, synth_task
from neonext.rng import Rng
from neonext.trainer import OptimSpec, RunConfig, train_run

import run
import tracing
from workloads import OpFailed, TrainMicro

ROOT = Path(__file__).resolve().parents[2]
SECOND_SEED = 2


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_and_passes_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SECOND_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("metric ")}
    assert printed >= set(want) | ({"step_ms_p50"} if trace == 0 else set())
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(line.startswith("check ") and line.endswith(")") for line in proc.stdout.splitlines()
               if line.startswith("check "))
    assert "FAILED" not in proc.stdout


def test_run_fails_without_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "op-neocell56", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def small_config(tmp_path, **kw):
    return RunConfig(synth_train=320, synth_val=64, epochs=1, out_dir=str(tmp_path), **kw)


def test_train_step_loop_matches_train_run(tmp_path):
    cfg = small_config(tmp_path)
    report = train_run(cfg, seed=1)
    csv_loss = float(Path(report.csv_path).read_text().splitlines()[2].split(",")[1])

    # train_run's own dataset: synthetic, from its pinned data seed
    train_ds, val_ds = split_dataset(synth_task(Rng(20240901), 384, 10), 64)
    w = TrainMicro(1, cfg, train_ds, val_ds)
    w.reset()
    losses = [w.op() for _ in range(w.steps_per_epoch)]
    assert float(np.mean(losses)) == csv_loss

    # traced steps take the same steps
    w.reset()
    tr = tracing.Tracer()
    traced = []
    for i in range(w.steps_per_epoch):
        tr.begin_step()
        traced.append(tracing.traced_train_step(w, tr) if i % 2 else w.op())
    assert traced == losses


def test_diverged_steps_are_counted_and_the_loop_goes_on(tmp_path):
    cfg = small_config(tmp_path, optimizer=OptimSpec(lr=1e6))
    w = TrainMicro.create(1, cfg)
    w.reset()
    loop = run.Loop(w)
    for _ in range(3 * w.steps_per_epoch):
        loop.run(w.op)
    assert loop.attempted == 3 * w.steps_per_epoch
    assert 0 < loop.failed < loop.attempted


def test_crashing_check_counts_as_failed():
    class Nothing:
        pass

    loop = run.Loop(Nothing())

    def broken():
        raise OpFailed("boom")

    done = run.run_checks([broken, lambda: [("fine", True, "")]], loop)
    assert [ok for _, ok, _ in done] == [False, True]
    assert (loop.attempted, loop.failed) == (2, 1)


@pytest.mark.parametrize("n, p", [(150, 90.0), (44, 75.0), (1000, 99.0), (12, 50.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
