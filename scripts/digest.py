#!/usr/bin/env python3
"""Digest of every output the byte-identity contract covers.

Runs a fixed set of small cases and prints one ``<name> <sha256>`` line per
artefact, with timing fields stripped:

- ``neonext train`` for both init arms, two seeds each: ``run.csv`` without
  ``wall_time_s``, ``status.txt`` and the exit code, ``checkpoint/``, and
  the parameters and running stats its checkpoints load into a freshly
  built micro model (``loaded``: the values, whatever the file format);
- ``neonext equiv-check --trials 100 --seed 0``'s CSV;
- ``neonext init-dump`` with and without noise, binary and text;
- the seed-deterministic ``bench`` CSV columns (up to ``checksum``);
- the synthetic task's train/val split and the micro model's initial
  parameters under both inits;
- op-neocell56's layer (8x96x56x56, mixed-shift groups): output and
  gradients with x and G C-ordered, channel-major and row-interleaved;
  and ``op-neocell56.split``, both of them at batch 4 with x and G
  C-ordered and row-interleaved, a size at which the kernel splits its
  runs over the CPUs in either mode;
- ``neonext-t``'s parameter count, manifest and initial parameters.

It imports ``neonext`` from ``PYTHONPATH``, so the same script digests any
checkout; comparing two trees is a ``diff`` of two outputs:

    PYTHONPATH=src python3 scripts/digest.py > a.txt
    PYTHONPATH=/path/to/other/src python3 scripts/digest.py > b.txt
    diff a.txt b.txt

BLAS runs on one thread, as in the benchmark, unless a thread count is
already set in the environment; GELU and a large NeoCell layer split over
up to two of the CPUs the process may run on.  A test checks that
``--quick`` prints the same digests on one CPU with BLAS at 1 thread as on
two with BLAS at 2.  ``--quick`` runs reduced cases (smaller runs and
shapes, no ``neonext-t``) under the same names; its digests are comparable
only with other ``--quick`` output.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # before numpy loads BLAS

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from neonext.autodiff import Param, Tape, backward  # noqa: E402
from neonext.cli import UsageParser, main as neonext  # noqa: E402
from neonext.data import split_dataset, synth_task  # noqa: E402
from neonext.errors import UsageError  # noqa: E402
from neonext.model import (  # noqa: E402
    ForwardCtx, NeoCellLayer, build_model, load_checkpoint, make_stage_groups, named_spec,
)
from neonext.neocell import NeoCellSpec  # noqa: E402
from neonext.rng import Rng  # noqa: E402

# the memory order of each layout: x.transpose(order) is C-contiguous
LAYOUTS = {"c": (0, 1, 2, 3), "cm": (1, 0, 2, 3), "ri": (1, 2, 0, 3)}


def sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, np.ndarray):
            h.update(f"{chunk.dtype.str} {chunk.shape}\n".encode())
            chunk = np.ascontiguousarray(chunk).tobytes()
        elif isinstance(chunk, str):
            chunk = chunk.encode()
        h.update(chunk)
    return h.hexdigest()


def run(*argv: str) -> int:
    """``neonext argv`` in this process, its stdout discarded (it names
    temporary paths and timings)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return neonext(list(argv))


def tree_files(root: Path):
    """(relative path, bytes) of every file under ``root``, in path order."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        yield str(path.relative_to(root)), path.read_bytes()


def train_digests(tmp: Path, quick: bool):
    sizes = "synth_train = 128\nsynth_val = 64\nepochs = 1" if quick else "synth_train = 256\nsynth_val = 128\nepochs = 2"
    for init in ("neoinit", "random-normal"):
        out = tmp / f"train-{init}"
        cfg = tmp / f"{init}.cfg"
        cfg.write_text(f"neonext-run-config v1\n{sizes}\nseeds = 1,2\ninit = {init}\nout_dir = {out}\n")
        code = run("train", "--config", str(cfg))
        csv, status, ckpt, loaded = [], [f"exit {code}\n"], [], []
        for seed_dir in sorted(out.iterdir()):
            rows = (seed_dir / "run.csv").read_text().splitlines()
            csv.append(seed_dir.name + "\n" + "\n".join(r.rsplit(",", 1)[0] for r in rows) + "\n")
            status.append(seed_dir.name + "\n" + (seed_dir / "status.txt").read_text())
            for rel, data in tree_files(seed_dir / "checkpoint"):
                ckpt += [f"{seed_dir.name}/{rel}\n", data]
            model = build_model(named_spec("neonext-micro", classes=10), 32, Rng(7))
            load_checkpoint(model, seed_dir / "checkpoint")
            loaded += [seed_dir.name, *(c for p in model.params() for c in (p.name, p.array))]
            loaded += [a for bn in model.bn_layers() for a in (bn.running_mean, bn.running_var)]
        yield f"train.{init}.run_csv", sha(*csv)
        yield f"train.{init}.status", sha(*status)
        yield f"train.{init}.checkpoint", sha(*ckpt)
        yield f"train.{init}.loaded", sha(*loaded)


def cli_digests(tmp: Path, quick: bool):
    eq = tmp / "equiv.csv"
    code = run("equiv-check", "--trials", "10" if quick else "100", "--seed", "0", "--out", str(eq))
    yield "equiv-check.csv", sha(f"exit {code}\n", eq.read_bytes())
    for name, args in (("noise", ("--rows", "3", "--cols", "7", "--seed", "1")), ("no-noise", ("--rows", "7", "--cols", "7", "--no-noise"))):
        t4, txt = tmp / f"{name}.t4", tmp / f"{name}.txt"
        code = run("init-dump", *args, "--out", str(t4), "--text-out", str(txt))
        yield f"init-dump.{name}", sha(f"exit {code}\n", t4.read_bytes(), txt.read_bytes())
    size = "8" if quick else "28"
    for op in ("neocell", "blockdiag", "dwconv"):
        csv = tmp / f"bench-{op}.csv"
        code = run("bench", "--op", op, "--c", "4", "--h", size, "--w", size, "--k", "7" if op == "dwconv" else "4",
                   "--iters", "1", "--warmup", "0", "--out", str(csv))
        header, *rows = csv.read_text().splitlines()
        keep = header.split(",").index("checksum") + 1
        yield f"bench.{op}", sha(f"exit {code}\n", *(",".join(r.split(",")[:keep]) + "\n" for r in [header, *rows]))


def model_digests(quick: bool):
    n_train, n_val = (256, 64) if quick else (1920, 512)
    train, val = split_dataset(synth_task(Rng(20240901), n_train + n_val, 10), n_val)
    yield "synth.split", sha(train.images.array, train.labels, val.images.array, val.labels)
    spec = named_spec("neonext-micro", classes=10)
    for init in ("neoinit", "random-normal"):
        model = build_model(spec, 32, Rng(11).derive(1), init=init)
        yield f"neonext-micro.{init}.params", sha(*(c for p in model.params() for c in (p.name, p.array)))
    if quick:
        return
    model = build_model(named_spec("neonext-t"), 224, Rng(0))
    yield "neonext-t.param_count", sha(str(model.param_count()))
    yield "neonext-t.manifest", sha(model.manifest())
    yield "neonext-t.params", sha(*(c for p in model.params() for c in (p.name, p.array)))


def op_step(batch: int, channels: int, size: int):
    """op-neocell56's layer and inputs at this shape, as its workload builds
    them from seed 1: a function of a layout that runs one forward and
    backward of a fresh layer with x and G in that layout and returns the
    output and the grads."""
    groups, _ = make_stage_groups(channels, size, "mixed-shift")
    root = Rng(1)
    shape = (batch, channels, size, size)
    x = root.derive(2).normal(shape, 1.0)
    g = root.derive(3).normal(shape, 1.0)

    def step(layout):
        order = LAYOUTS[layout]
        back = tuple(np.argsort(order))
        layer = NeoCellLayer("stage0.block0.neocell", NeoCellSpec(groups), root.derive(1))
        xp = Param("x", np.ascontiguousarray(x.transpose(order)).transpose(back))
        tape = Tape()
        tape.watch(xp)
        out = layer.forward(xp, tape, ForwardCtx("train"))
        return out.array, backward(tape, np.ascontiguousarray(g.transpose(order)).transpose(back))

    return step


def op_digests(quick: bool):
    step = op_step(*((2, 24, 28) if quick else (8, 96, 56)))
    for layout in LAYOUTS:
        out, grads = step(layout)
        yield f"op-neocell56.{layout}.out", sha(out)
        yield f"op-neocell56.{layout}.grads", sha(*(c for name in sorted(grads) for c in (name, grads[name])))
    # at batch 4, x (9.2 MiB) has neocell.LARGE_INPUT_BYTES: the kernel
    # splits its runs over the CPUs, even in --quick
    step = op_step(4, 96, 56)
    chunks = []
    for layout in ("c", "ri"):
        out, grads = step(layout)
        chunks += [layout, out, *(c for name in sorted(grads) for c in (name, grads[name]))]
    yield "op-neocell56.split", sha(*chunks)


def main() -> int:
    ap = UsageParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="reduced cases, for a fast self-check")
    try:
        args = ap.parse_args()
    except UsageError as exc:
        print(f"error: digest.py: {exc}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in (*train_digests(Path(tmp), args.quick), *cli_digests(Path(tmp), args.quick),
                             *model_digests(args.quick), *op_digests(args.quick)):
            print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
