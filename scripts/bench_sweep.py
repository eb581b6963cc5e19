#!/usr/bin/env python3
"""Multiply-count and wall-clock sweep over kernel sizes.

Appends one CSV row per (op, k) to the output file and prints the exact
multiply ratio alongside the measured timings.  Timings are informational;
only the ratios are machine-independent.
"""

import sys

from neonext.bench import append_bench_csv, bench, check_bench_csv, neocell_to_dwconv_ratio
from neonext.cli import UsageParser
from neonext.errors import ConfigError, DataError, ParameterError, ShapeError, UsageError


def main() -> int:
    ap = UsageParser(description=__doc__)
    ap.add_argument("--c", type=int, default=96)
    ap.add_argument("--size", type=int, default=56, help="square spatial size; must divide by every k")
    ap.add_argument("--ks", default="4,7")
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--warmup", type=int, default=2)
    ap.add_argument("--out", default="runs/bench_sweep.csv")
    try:
        return sweep(ap.parse_args())
    except (ConfigError, DataError, ParameterError, ShapeError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def sweep(args) -> int:
    try:
        ks = [int(k) for k in args.ks.split(",")]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise ConfigError(f"--ks must be a comma list of positive integers, got {args.ks!r}")
    check_bench_csv(args.out)   # a refused file fails before the first bench
    for k in ks:
        if args.size % k:
            print(f"skip k={k}: {args.size} not divisible", file=sys.stderr)
            continue
        neo = bench("neocell", args.c, args.size, args.size, k, iters=args.iters, warmup=args.warmup)
        blk = bench("blockdiag", args.c, args.size, args.size, k, iters=args.iters, warmup=args.warmup)
        rows = [neo, blk]
        if k % 2:
            rows.append(bench("dwconv", args.c, args.size, args.size, k, iters=args.iters, warmup=args.warmup))
        for r in rows:
            append_bench_csv(args.out, r)
        line = f"k={k}: multiply ratio {neocell_to_dwconv_ratio(k)} ; patchwise median {neo.t_median * 1e3:.2f} ms ; blockdiag median {blk.t_median * 1e3:.2f} ms"
        if k % 2:
            line += f" ; dwconv median {rows[-1].t_median * 1e3:.2f} ms"
        print(line)
    print(f"rows appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
