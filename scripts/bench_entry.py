"""Append one entry to a committed ``BENCH_<workload>.json`` from perfbench records.

Usage, from the repository root, after the runs to record have written their
records to ``perfbench/out/``:

    python3 scripts/bench_entry.py --label change --commit <sha> \\
        --note "10 pairs alternating with the parent" \\
        --records perfbench/out/op-neocell56-seed6101-trace0.json ... \\
        --trace-record perfbench/out/op-neocell56-seed6401-trace1.json

All records must come from one workload and one run length.  The entry holds
the commit, the environment block of the first record, the seeds, the
q1/median/q3 and per-run values of every metric ``BENCHMARK.json`` gates, the
failed fraction of each run, and the per-layer metrics of the traced run.
The file is created with the workload's command and known caveats when it
does not exist yet; entries are only ever appended.  A record that is
missing, not JSON, or lacks a key the entry reads is an ``error: <path>: …``
line and exit 1, before anything is written.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from neonext.cli import UsageParser
from neonext.errors import ConfigError, DataError, UsageError

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = ("workload", "seed", "seconds", "trace", "environment", "failed_frac", "metrics")

CAVEATS = [
    "Per-layer *.bwd_ms come from perfbench's isolated replay of each layer's backward. On "
    "train-micro and eval-micro the replay feeds a C-ordered probe gradient where a real step "
    "feeds channel-major ones, so it does layout work the real backward does not, and NeoCell's "
    "products along W run one GEMM per image instead of one per channel. autodiff.overhead_ms "
    "(real backward minus the replay sum) reads negative on all three workloads; take per-layer "
    "backward times as indicative only.",
    "The 2-vCPU hosts these were measured on switch between speed modes about 1.45x apart for "
    "minutes at a time; compare entries by their quartiles, not single runs.",
]


def _load(path: str, metrics=None) -> dict:
    """The record at ``path``, checked to hold every key ``make_entry`` reads:
    ``RECORD_KEYS`` and a value for each of ``metrics`` (all, if None)."""
    try:
        record = json.loads(Path(path).read_text())
        for key in RECORD_KEYS:
            record[key]
        for name in record["metrics"] if metrics is None else metrics:
            record["metrics"][name]["value"]
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except TypeError:
        raise DataError(f"{path}: not a perfbench record") from None
    return record


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def make_entry(label: str, commit: str, note: str, records: list[dict], trace: dict | None, gated: list[dict]) -> dict:
    workloads = {r["workload"] for r in records} | ({trace["workload"]} if trace else set())
    seconds = {r["seconds"] for r in records}
    if len(workloads) != 1 or len(seconds) != 1 or any(r["trace"] for r in records):
        raise ConfigError("records must be --trace 0 runs of one workload and one run length")
    entry = {
        "label": label,
        "commit": commit,
        "note": note,
        "environment": records[0]["environment"],
        "seconds": seconds.pop(),
        "seeds": [r["seed"] for r in records],
        "failed_frac": [r["failed_frac"] for r in records],
        "gated": {
            m["name"]: {"unit": m["unit"], **_quartiles([r["metrics"][m["name"]]["value"] for r in records])}
            for m in gated
        },
    }
    if trace is not None:
        entry["trace"] = {
            "seed": trace["seed"],
            "seconds": trace["seconds"],
            "failed_frac": trace["failed_frac"],
            "metrics": {k: v["value"] for k, v in trace["metrics"].items()},
        }
    return entry


def main(argv=None) -> int:
    ap = UsageParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="e.g. parent or change")
    ap.add_argument("--commit", required=True)
    ap.add_argument("--note", default="")
    ap.add_argument("--records", nargs="+", required=True, help="perfbench/out/*-trace0.json records")
    ap.add_argument("--trace-record", default="", help="one perfbench/out/*-trace1.json record")
    try:
        return append_entry(ap.parse_args(argv))
    except (ConfigError, DataError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def append_entry(args) -> int:
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    records = [_load(p, [m["name"] for m in gated]) for p in args.records]
    trace = _load(args.trace_record) if args.trace_record else None
    entry = make_entry(args.label, args.commit, args.note, records, trace, gated)
    workload = records[0]["workload"]
    path = ROOT / f"BENCH_{workload}.json"
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {
            "workload": workload,
            "command": f"python3 perfbench/run.py --workload {workload} --seed N --seconds S --trace 0|1",
            "caveats": CAVEATS,
            "entries": [],
        }
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{path.name}: {len(doc['entries'])} entries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
