"""neonext benchmark: one command per workload, metrics by name with units.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-micro --seed 1 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json`` and built in ``workloads.py``.
Every workload is a closed loop with one caller: the next operation starts
when the last one has returned.  BLAS is pinned to one thread in this
process's environment before numpy loads.

``--trace 0`` measures the end-to-end metrics with tracing off.  The JSON line
carries the metrics ``BENCHMARK.json`` declares; ``step_ms_p50`` is printed
and recorded but not declared there, because on a host whose speed switches
between modes for minutes at a time a run's median lands in one mode or the
other, while the tail, the throughput and set-up time move smoothly.  ``--trace 1``
is a separate run that alternates an untraced op with a traced one and reports
the per-layer metrics; the difference between the two is the trace overhead.
Output checks run after the timed loop and outside every timed metric.  The
last line of standard output is one JSON object: ``correct``, ``attempted``
(timed ops plus output checks), ``failed`` and ``metrics``.  A fuller record,
with the environment block, goes to ``perfbench/out/``.

A short smoke run is ``--seconds 1``: each workload still does the operations
its output checks need (``min_ops``), and a run that does not emit every
metric ``BENCHMARK.json`` declares, with its unit, fails.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from envinfo import environment, pin_blas_threads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("train-micro", "eval-micro", "op-neocell56")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_SAMPLES = 10

UNITS = {
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "images_per_s": "img/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("mults_per_s"):
        return "mults/s"
    if name.endswith(("mults", "tape_nodes")):
        return "count"
    return "ratio"


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least MIN_TAIL_SAMPLES samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(values, p: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def make_workload(name: str, seed: int):
    from neonext.trainer import RunConfig

    from workloads import EvalMicro, OpNeoCell56, TrainMicro

    if name == "train-micro":
        return TrainMicro.create(seed, RunConfig())
    if name == "eval-micro":
        return EvalMicro(seed, RunConfig())
    return OpNeoCell56(seed)


def timed_setup(name: str, seed: int):
    t0 = time.perf_counter()
    w = make_workload(name, seed)
    w.setup()
    return w, time.perf_counter() - t0


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Loop:
    """Closed-loop runner: counts every attempted op and every failure."""

    def __init__(self, w):
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []

    def run(self, op):
        """Run and verify one op; returns its seconds, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception:  # a failed op is counted and the loop goes on
            self.failed += 1
            self.w.abandon()
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - t0
        if not self.w.verify(result):
            self.failed += 1
            print(f"op {self.attempted}: output check failed", file=sys.stderr)
        return elapsed


def run_checks(checks, loop: Loop) -> list[tuple[str, bool, str]]:
    done = []
    for make in checks:
        try:
            done.extend(make())
        except Exception as e:  # a crashing check is a failed check, not a crash
            traceback.print_exc(file=sys.stderr)
            done.append((getattr(make, "__name__", "check"), False, f"raised {e!r}"))
    loop.attempted += len(done)
    loop.failed += sum(not ok for _, ok, _ in done)
    return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    pin_blas_threads()
    src = ROOT / "src"
    if not (src / "neonext" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import counts
    import tracing

    import_s = time.perf_counter() - T_START
    env = environment()

    w, t_setup = timed_setup(args.workload, args.seed)
    setup_times = [t_setup]

    loop = Loop(w)
    tracer = tracing.Tracer()
    traced_op = tracing.TRACED_OPS[args.workload]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or loop.attempted < w.min_ops:
        elapsed = loop.run(w.op)
        if elapsed is not None:
            loop.times.append(elapsed)
        if args.trace:
            tracer.begin_step()
            if loop.run(lambda: traced_op(w, tracer)) is None:
                tracer.discard_step()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        # Further set-ups only after the peak is read: freed set-ups stay resident.
        setup_times += [timed_setup(args.workload, args.seed)[1] for _ in range(SETUP_REPEATS - 1)]
    setup_s = import_s + statistics.median(setup_times)

    checks = [w.checks, lambda: counts.count_checks(w.layers())]
    if args.trace:
        checks.append(lambda: tracing.trace_checks(w))
    results = run_checks(checks, loop)

    times_ms = [t * 1e3 for t in loop.times]
    if not times_ms:
        print("error: no operation completed", file=sys.stderr)
        return 1
    info: dict[str, str] = {}
    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, times_ms, w)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        p = tail_percentile(len(times_ms))
        metrics = {
            "step_ms_p50": statistics.median(times_ms),
            "step_ms_tail": percentile(times_ms, p),
            "images_per_s": w.batch * len(loop.times) / sum(loop.times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
        info["step_ms_p50"] = f"median of {len(times_ms)} samples; reported, not declared in BENCHMARK.json"
        info["step_ms_tail"] = f"p{p:g} of {len(times_ms)} samples"
        info["setup_s"] = (
            f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups "
            + ", ".join(f"{t:.3f}" for t in setup_times) + " s"
        )
    failed_frac = loop.failed / loop.attempted

    declared = declared_metrics(args.trace)
    if any(units.get(k) != unit for k, unit in declared.items()):
        print(f"error: BENCHMARK.json declares metrics this run does not emit: {sorted(set(declared) - set(metrics))}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          f": closed loop, 1 caller, batch {w.batch}")
    for key, val in env.items():
        print(f"env {key} = {val}")
    model = getattr(w, "model", None)
    if model is not None:
        print(f"model {model.spec.name}, {model.param_count()} parameters")
    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for key, val in metrics.items():
        extra = f"  [{info[key]}]" if key in info else ""
        print(f"metric {key} = {val!r} {units[key]}{extra}")
    print(f"failed_frac = {failed_frac!r} ({loop.failed} of {loop.attempted} ops and checks)")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "failed_frac": failed_frac,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, "notes": info,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
