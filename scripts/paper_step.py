#!/usr/bin/env python3
"""Time training steps of a named model at one input size, and report peak memory.

Builds the model (NeoInit, seed 0) and takes ``--steps`` SGD steps on one
fixed batch of uniform [0, 1) images: a train-mode forward with the tape,
the label-smoothed loss, ``backward`` and the momentum update, as
``neonext train`` takes them.  It prints four lines:

    params <parameter count>
    build_model_s <seconds to build the model>
    step_ms_median <median ms per step> over <steps> steps
    peak_rss_mb <peak resident set size of the process, MB>

The peak RSS is the whole process's, imports included, read from
``getrusage`` as the benchmark reads it.  BLAS is pinned to one thread, as in
the benchmark; exact GELU still splits over up to two of the CPUs the process
may run on.  The paper's shape is

    PYTHONPATH=src python3 scripts/paper_step.py --model neonext-t --size 224 --batch 2 --steps 3

Batch is capped at 2 and steps at 10, so that a run stays under a minute.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads BLAS

import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from neonext.autodiff import Tape, backward  # noqa: E402
from neonext.cli import UsageParser  # noqa: E402
from neonext.errors import ConfigError, ShapeError, UsageError  # noqa: E402
from neonext.model import (  # noqa: E402
    MODEL_SPECS, ForwardCtx, build_model, named_spec, one_hot, smooth_targets, softmax_cross_entropy,
)
from neonext.rng import Rng  # noqa: E402
from neonext.tensor import Tensor4  # noqa: E402
from neonext.trainer import OptimSpec, RunConfig, sgd_step  # noqa: E402

MAX_BATCH = 2
MAX_STEPS = 10


def main() -> int:
    ap = UsageParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", choices=sorted(MODEL_SPECS), default="neonext-t")
    ap.add_argument("--size", type=int, default=224, help="square input size")
    ap.add_argument("--batch", type=int, default=2, help=f"1 to {MAX_BATCH}")
    ap.add_argument("--steps", type=int, default=3, help=f"1 to {MAX_STEPS}")
    try:
        return run(ap.parse_args())
    except (ConfigError, ShapeError, UsageError) as exc:
        print(f"error: paper_step.py: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    if not 1 <= args.batch <= MAX_BATCH:
        raise ConfigError(f"--batch must be in [1, {MAX_BATCH}], got {args.batch}")
    if not 1 <= args.steps <= MAX_STEPS:
        raise ConfigError(f"--steps must be in [1, {MAX_STEPS}], got {args.steps}")
    if args.size < 1:
        raise ConfigError(f"--size must be >= 1, got {args.size}")
    root = Rng(0)
    spec = named_spec(args.model)
    t0 = time.perf_counter()
    model = build_model(spec, args.size, root.derive(1))
    build_s = time.perf_counter() - t0
    params = model.params()
    x = Tensor4(root.derive(2).uniform(args.batch * 3 * args.size * args.size).reshape(args.batch, 3, args.size, args.size))
    labels = np.arange(args.batch) % spec.classes
    targets = smooth_targets(one_hot(labels, spec.classes), RunConfig.label_smoothing)
    dp_rng = root.derive(3)
    opt_state: dict = {}
    step_ms = []
    for _ in range(args.steps):
        t0 = time.perf_counter()
        tape = Tape()
        logits = model.forward(x, ForwardCtx("train", dp_rng, update_stats=True), tape)
        softmax_cross_entropy(tape, logits, targets)
        sgd_step(params, backward(tape), opt_state, OptimSpec())
        step_ms.append((time.perf_counter() - t0) * 1e3)
    print(f"params {model.param_count()}")
    print(f"build_model_s {build_s:.3f}")
    print(f"step_ms_median {statistics.median(step_ms):.1f} over {args.steps} steps")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
