"""Command-line entry point.

Subcommands:

- ``bench``        wall-clock micro-benchmark of one operator, CSV output
- ``gradcheck``    finite-difference verification of analytic gradients
- ``train``        run training for every seed in a config file
- ``ablate``       both init arms over the config's seeds, with a report
- ``init-dump``    write the left matrix ``init_part`` draws (binary + text grid)
- ``equiv-check``  randomized patchwise vs block-diagonal agreement trials

Every output file flag (``--out``, ``--text-out``) follows one rule,
checked before any work: a missing parent directory is created, and a path
that is a directory, or whose parent cannot be made, is an error that names
the flag.  So a bad path leaves no partial output.  Every ``--seed`` is
checked against ``Rng``'s range before any work too, and its error names
the flag.

Exit codes: 0 success, 1 error, usage error or failed check, 2 training
diverged.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import BENCH_OPS, append_bench_csv, bench as run_bench, check_bench_csv
from .equiv import run_trials
from .autodiff import Param, Tape, Val, backward, fd_check
from .errors import ConfigError, DataError, NumericError, ParameterError, ShapeError, UsageError
from .model import (
    BatchNormLayer,
    ForwardCtx,
    GeluLayer,
    NeoCellLayer,
    PointwiseLayer,
    build_model,
    named_spec,
    one_hot,
    softmax_cross_entropy,
)
from .neocell import GroupSpec, NeoCellSpec, init_part, merge_parts
from .neoinit import format_grid
from .rng import SEED_LIMIT, Rng, check_seed
from .tensor import Tensor4, write_tensor
from .trainer import parse_config, run_ablation, train_seeds


class UsageParser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting 2, the code for a diverged run."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_bench(sub):
    p = sub.add_parser("bench", help="micro-benchmark one operator")
    p.add_argument("--op", choices=BENCH_OPS, required=True)
    p.add_argument("--c", type=int, default=96)
    p.add_argument("--h", type=int, default=56)
    p.add_argument("--w", type=int, default=56)
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="", help="CSV file to append to")


def _add_gradcheck(sub):
    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--layer", choices=("neocell", "pointwise", "batchnorm", "gelu", "model"), default="neocell")
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--h", type=int, default=8)
    p.add_argument("--w", type=int, default=8)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--entries", type=int, default=0, help="entries probed per parameter (0 = all)")


def _add_train(sub):
    p = sub.add_parser("train", help="run training for every seed in the config")
    p.add_argument("--config", required=True)


def _add_ablate(sub):
    p = sub.add_parser("ablate", help="run the init-method ablation")
    p.add_argument("--config", required=True)


def _add_init_dump(sub):
    p = sub.add_parser("init-dump", help="write an initialization matrix")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--out", type=str, default="", help="binary tensor file to write")
    p.add_argument("--text-out", type=str, default="", help="aligned text grid file to write")


def _add_equiv(sub):
    p = sub.add_parser("equiv-check", help="patchwise vs block-diagonal agreement")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", type=str, default="", help="CSV file to write")


def _cmd_bench(args) -> int:
    _check_outputs(args, "out")
    if args.out:
        check_bench_csv(args.out)   # a refused file fails before the timed runs
    result = run_bench(
        args.op, args.c, args.h, args.w, args.k,
        iters=args.iters, warmup=args.warmup, seed=args.seed,
    )
    print(
        f"{result.op} c={args.c} h={args.h} w={args.w} k={args.k} "
        f"multiplies={result.multiplies} median={result.t_median:.6f}s "
        f"min={result.t_min:.6f}s mean={result.t_mean:.6f}s "
        f"({result.mults_per_s:.3e} mults/s)"
    )
    if args.out:
        append_bench_csv(args.out, result)
    return 0


def _gradcheck_case(args):
    rng = Rng(args.seed)
    if args.layer == "model":
        # micro at its native 64x64: batch-2 statistics at the final stage
        # stay well conditioned there, keeping eps=1e-5 differences resolvable
        spec = named_spec("neonext-micro", classes=10, drop_path_rate=0.0)
        model = build_model(spec, 64, rng)
        x = Tensor4(rng.normal((2, 3, 64, 64), 1.0))
        targets = one_hot(np.array([1, 7]), 10)
        params = model.params()

        def loss_fn(tape=None):
            logits = model.forward(x, ForwardCtx("train", update_stats=False), tape)
            return softmax_cross_entropy(tape, logits, targets)

        return loss_fn, params

    x_param = Param("input", rng.normal((2, args.c, args.h, args.w), 1.0), "input")
    if args.layer == "neocell":
        spec = NeoCellSpec((GroupSpec(0, args.c, args.k, args.k, args.k, args.k, shift=1 if args.k > 1 else 0),))
        layer = NeoCellLayer("neocell", spec, rng, init="neoinit")
    elif args.layer == "pointwise":
        layer = PointwiseLayer("pointwise", args.c, 2 * args.c, rng)
    elif args.layer == "batchnorm":
        layer = BatchNormLayer("batchnorm", args.c)
        layer.gamma.array[...] = 1.0 + rng.normal(args.c, 0.1)
        layer.beta.array[...] = rng.normal(args.c, 0.1)
    else:
        layer = GeluLayer()
    params = [x_param] + layer.params()
    probe_shape = layer.out_shape(x_param.array.shape)
    # elementwise weights keep the loss sensitive to every output entry,
    # including under train-mode normalization
    probe = 0.5 + Rng((args.seed + 1) % SEED_LIMIT).uniform(int(np.prod(probe_shape))).reshape(probe_shape)

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

    return loss_fn, params


def _check_sizes(args, *flags) -> None:
    for flag in flags:
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}")


def _check_outputs(args, *flags) -> None:
    """Apply the output rule (see the module docstring) to each flag's path."""
    for flag in flags:
        path = getattr(args, flag.replace("-", "_"))
        if not path:
            continue
        p = Path(path)
        try:
            p.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--{flag} {path}: cannot create directory {p.parent}: {exc.strerror}") from None
        if p.is_dir():
            raise ConfigError(f"--{flag} {path} is a directory")


def _cmd_gradcheck(args) -> int:
    _check_sizes(args, "c", "h", "w", "k")
    if args.entries < 0:
        raise ConfigError(f"--entries must be >= 0, got {args.entries}")
    loss_fn, params = _gradcheck_case(args)
    tape = Tape()
    loss_fn(tape)
    grads = backward(tape)
    entries = None if args.entries == 0 else args.entries
    if args.layer == "model" and entries is None:
        entries = 3   # a full sweep over every model weight is never practical
    # a probe that overflows is reported by fd_check as a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        report = fd_check(
            lambda: float(loss_fn().array),
            params,
            grads,
            eps=args.eps,
            threshold=args.threshold,
            entries_per_param=entries,
        )
    print(report.table())
    print(f"max relative error {report.max_rel_err:.3e} (threshold {args.threshold:g})")
    return 0 if report.passed else 1


def _cmd_train(args) -> int:
    any_diverged = False
    for report in train_seeds(parse_config(Path(args.config))):
        last = report.rows[-1]
        print(
            f"seed {report.seed}: {report.status}, epochs {last.epoch}, "
            f"val_loss {last.val_loss:.4f}, val_acc {last.val_acc:.4f} -> {report.csv_path}"
        )
        any_diverged |= report.status == "diverged"
    return 2 if any_diverged else 0


def _cmd_ablate(args) -> int:
    report = run_ablation(parse_config(Path(args.config)))
    print(report.summary_text(), end="")
    print(f"report: {report.report_path}")
    return 0


def _cmd_init_dump(args) -> int:
    _check_sizes(args, "rows", "cols")
    _check_outputs(args, "out", "text-out")
    (part,) = merge_parts(NeoCellSpec((GroupSpec(0, 1, args.cols, 1, args.rows, 1),)))
    left, _ = init_part(part, None if args.no_noise else Rng(args.seed))
    grid = format_grid(left[0])
    print(grid, end="")
    if args.out:
        write_tensor(args.out, left[0])
    if args.text_out:
        Path(args.text_out).write_text(grid)
    return 0


def _cmd_equiv(args) -> int:
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol}")
    _check_outputs(args, "out")
    results = run_trials(args.trials, args.seed)
    worst = max(r.max_abs_dev for r in results)
    if args.out:
        lines = ["trial,kind,n,c,h,w,groups,max_abs_dev"]
        for r in results:
            n, c, h, w = r.dims
            lines.append(f"{r.index},{r.kind},{n},{c},{h},{w},{r.groups},{r.max_abs_dev!r}")
        Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"{len(results)} trials, max |patchwise - blockdiag| = {worst:.3e} (tol {args.tol:g})")
    return 0 if worst <= args.tol else 1


def main(argv=None) -> int:
    parser = UsageParser(prog="neonext", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    _add_bench(sub)
    _add_gradcheck(sub)
    _add_train(sub)
    _add_ablate(sub)
    _add_init_dump(sub)
    _add_equiv(sub)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "bench": _cmd_bench,
        "gradcheck": _cmd_gradcheck,
        "train": _cmd_train,
        "ablate": _cmd_ablate,
        "init-dump": _cmd_init_dump,
        "equiv-check": _cmd_equiv,
    }
    try:
        if "seed" in vars(args):
            check_seed(args.seed, "--seed")
        return handlers[args.command](args)
    except (ConfigError, DataError, NumericError, ParameterError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
