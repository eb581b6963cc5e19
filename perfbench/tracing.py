"""The traced run: spans around every call into a layer, and per-layer metrics.

A traced op does the same work as its workload's ``op`` but drives
``Model.layers`` and each ``Block``'s sub-layers itself, recording a span
(name, kind, stage, phase, start, end, parent, step) around every call.
Spans stay in memory and are written out when the run ends.

A layer's backward is timed by isolated replay after the step: the layer runs
again on its cached inputs with a fresh ``Tape``, ``update_stats=False`` and a
drop-path RNG of its own, and ``autodiff.backward`` is timed seeded with the
gradient G of the scalar probe <out, G>.
"""

from __future__ import annotations

import copy
import json
import math
import statistics
import time
from contextlib import contextmanager
from functools import partial

import numpy as np

from neonext.autodiff import Tape, Val, backward
from neonext.bench import dwconv_reference
from neonext.model import (
    BatchNormLayer,
    Block,
    ForwardCtx,
    GeluLayer,
    NeoCellLayer,
    PointwiseLayer,
    one_hot,
    softmax_cross_entropy,
)
from neonext.rng import Rng
from neonext.tensor import Tensor4

from counts import mults_by_kind
from workloads import EvalMicro, OpFailed, OpNeoCell56, TrainMicro

KINDS = ("neocell", "pointwise", "batchnorm", "gelu", "other")
STAGES = ("stem", "stage0", "down0", "stage1", "down1", "stage2", "down2", "stage3", "head")
REPLAY_SEED = 0x5EED


class Tracer:
    """In-memory span store; one step id per traced op."""

    def __init__(self):
        self.spans: list[list] = []   # [name, kind, stage, phase, start, end, parent, step]
        self.step_counts: list[dict] = []
        self._open: list[int] = []
        self._probes: dict[tuple, np.ndarray] = {}

    def begin_step(self) -> None:
        self.step_counts.append({})

    def discard_step(self) -> None:
        """Drop the spans of a traced op that failed part way."""
        step = len(self.step_counts) - 1
        self.spans = [s for s in self.spans if s[7] != step]

    def count(self, name: str, value: int) -> None:
        self.step_counts[-1][name] = value

    @contextmanager
    def span(self, name: str, kind: str, stage: str = "", phase: str = ""):
        parent = self._open[-1] if self._open else -1
        rec = [name, kind, stage, phase, 0.0, 0.0, parent, len(self.step_counts) - 1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[4] = time.perf_counter()
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._open.pop()

    def probe(self, shape) -> np.ndarray:
        if shape not in self._probes:
            self._probes[shape] = Rng(REPLAY_SEED).normal(shape, 1.0)
        return self._probes[shape]

    def write(self, path) -> None:
        fields = ("name", "kind", "stage", "phase", "start", "end", "parent", "step")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(fields, s))) + "\n")


# ------------------------------------------------------------ driving layers

def kind_of(layer) -> str:
    if isinstance(layer, NeoCellLayer):
        return "neocell"
    if isinstance(layer, PointwiseLayer):
        return "pointwise"
    if isinstance(layer, BatchNormLayer):
        return "batchnorm"
    if isinstance(layer, GeluLayer):
        return "gelu"
    return "other"


def stage_runs(layers):
    """Consecutive layers grouped by stage; unnamed GELUs join the current one."""
    runs: list[tuple[str, list]] = []
    stage = "stem"
    for layer in layers:
        name = layer.name
        if name.startswith(("stage", "down")):
            stage = name.split(".")[0]
        elif name in ("global_avg_pool", "head"):
            stage = "head"
        if not runs or runs[-1][0] != stage:
            runs.append((stage, []))
        runs[-1][1].append(layer)
    return runs


def block_tail(rate: float, v: Val, h: Val, tape, ctx: ForwardCtx) -> Val:
    """``Block.forward`` after ``project``: drop-path, then the residual add."""
    if ctx.mode == "train" and rate > 0.0:
        n = h.array.shape[0]
        keep = (ctx.rng.uniform(n) >= rate).astype(np.float64) / (1.0 - rate)
        hv = Val(h.array * keep[:, None, None, None])
        if tape is not None:
            tape.record(hv, (h,), lambda g: (g * keep[:, None, None, None],))
        h = hv
    out = Val(v.array + h.array)
    if tape is not None:
        tape.record(out, (v, h), lambda g: (g, g))
    return out


def call_layer(tr: Tracer, calls: list, name, kind, stage, fn, ins, tape, ctx) -> Val:
    with tr.span(name, kind, stage, "fwd"):
        out = fn(*ins, tape, ctx)
    calls.append((name, kind, stage, fn, tuple(v.array for v in ins)))
    return out


def traced_forward(model, images: Tensor4, ctx: ForwardCtx, tape, tr: Tracer, calls: list) -> Val:
    """``Model.forward`` with a span around every layer and block sub-layer."""
    v = Val(images.array)
    if tape is not None:
        tape.watch(*model.params())
    for stage, layers in stage_runs(model.layers):
        with tr.span(f"stage.{stage}", "stage", stage):
            for i, layer in enumerate(layers):
                if isinstance(layer, Block):
                    h = v
                    for sub in (layer.neocell, layer.norm, layer.expand, layer.gelu, layer.project):
                        name = f"{layer.name}.gelu" if isinstance(sub, GeluLayer) else sub.name
                        h = call_layer(tr, calls, name, kind_of(sub), stage, sub.forward, (h,), tape, ctx)
                    tail = partial(block_tail, layer.spec.drop_path)
                    v = call_layer(tr, calls, f"{layer.name}.tail", "other", stage, tail, (v, h), tape, ctx)
                else:
                    name = f"{stage}.gelu{i}" if isinstance(layer, GeluLayer) else layer.name
                    v = call_layer(tr, calls, name, kind_of(layer), stage, layer.forward, (v,), tape, ctx)
    return v


def replay_backward(tr: Tracer, calls: list, mode: str) -> None:
    """Time each recorded layer call's backward in isolation."""
    ctx = ForwardCtx(mode, Rng(REPLAY_SEED), update_stats=False)
    with tr.span("replay", "replay"):
        for name, kind, stage, fn, arrays in calls:
            tape = Tape()
            out = fn(*(Val(a) for a in arrays), tape, ctx)
            grad = tr.probe(out.array.shape)
            with tr.span(name, kind, stage, "bwd"):
                backward(tape, grad)


# ---------------------------------------------------------------- traced ops

def traced_train_step(w: TrainMicro, tr: Tracer) -> float:
    calls: list = []
    w.begin_op()
    with tr.span("step", "step"):
        with tr.span("data.augment", "data"):
            batch, targets = w.next_batch()
        tape = Tape()
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            with tr.span("model.forward", "model"):
                logits = traced_forward(w.model, batch.images, w.forward_ctx(), tape, tr, calls)
            with tr.span("model.loss", "model"):
                loss = softmax_cross_entropy(tape, logits, targets)
            loss_val = float(loss.array)
            if not math.isfinite(loss_val):
                raise OpFailed(f"non-finite loss {loss_val} at step {w.step}")
            with tr.span("autodiff.backward", "autodiff"):
                grads = backward(tape)
        with tr.span("trainer.sgd_step", "trainer"):
            result = w.finish_step(loss_val, grads)
    tr.count("autodiff.tape_nodes", len(tape.nodes))
    replay_backward(tr, calls, "train")
    return result


def traced_eval(w: EvalMicro, tr: Tracer) -> tuple[float, float]:
    """``trainer.evaluate`` driven layer by layer."""
    calls: list = []
    ds = w.val_ds
    total_loss = 0.0
    correct = 0
    with tr.span("step", "step"), np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for base in range(0, ds.size, w.eval_batch):
            imgs = Tensor4(ds.images.array[base : base + w.eval_batch])
            labels = ds.labels[base : base + w.eval_batch]
            with tr.span("model.forward", "model"):
                logits = traced_forward(w.model, imgs, ForwardCtx(mode="eval"), None, tr, calls).array
            with tr.span("model.loss", "model"):
                loss = softmax_cross_entropy(None, Val(logits), one_hot(labels, ds.num_classes))
                total_loss += float(loss.array) * labels.size
                correct += int((logits.argmax(axis=1) == labels).sum())
    tr.count("autodiff.tape_nodes", 0)
    replay_backward(tr, calls, "eval")
    return total_loss / ds.size, correct / ds.size


def traced_neocell_op(w: OpNeoCell56, tr: Tracer):
    calls: list = []
    layer = w.layer
    with tr.span("step", "step"):
        tape = Tape()
        with tr.span("model.forward", "model"):
            out = call_layer(tr, calls, layer.name, "neocell", "", layer.forward, (Val(w.x),), tape, w.ctx)
        with tr.span("autodiff.backward", "autodiff"):
            grads = backward(tape, w.grad_probe)
    tr.count("autodiff.tape_nodes", len(tape.nodes))
    replay_backward(tr, calls, "train")
    with tr.span("bench.dwconv", "bench"):
        dwconv_reference(Tensor4(w.x), w.dw_kernels)
    return out.array, grads


TRACED_OPS = {
    "train-micro": traced_train_step,
    "eval-micro": traced_eval,
    "op-neocell56": traced_neocell_op,
}


def trace_checks(w):
    """The traced forward must reproduce ``Model.forward`` bit for bit."""
    if isinstance(w, OpNeoCell56):
        return    # its traced op calls the layer itself
    ds = w.val_ds
    images = Tensor4(ds.images.array[: min(ds.size, 64)])
    mode = "train" if isinstance(w, TrainMicro) else "eval"
    rng = Rng(REPLAY_SEED)
    ref = w.model.forward(images, ForwardCtx(mode, copy.deepcopy(rng))).array
    got = traced_forward(w.model, images, ForwardCtx(mode, rng), None, Tracer(), []).array
    same = np.array_equal(ref, got)
    yield ("trace.matches_model_forward", same, f"{mode}-mode logits of {images.dims[0]} images bit-identical: {same}")


# ---------------------------------------------------------------- metrics

def _step_values(spans, counts: dict) -> dict[str, float]:
    """Per-layer values for one traced step, times in ms.

    ``spans`` are (global index, span) pairs; parents refer to global indices.
    """
    local = {g: i for i, (g, _) in enumerate(spans)}
    spans = [s for _, s in spans]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(local.get(s[6], -1), []).append(i)
    dur = [(s[5] - s[4]) * 1e3 for s in spans]
    v: dict[str, float] = {}
    step = None

    def add(key, ms):
        v[key] = v.get(key, 0.0) + ms

    bwd_total = 0.0
    for i, (name, kind, stage, phase, *_rest) in enumerate(spans):
        if phase in ("fwd", "bwd"):
            add(f"{kind}.{phase}_ms", dur[i])
            if stage:
                add(f"stage.{stage}.{phase}_ms", dur[i])
            if phase == "bwd":
                bwd_total += dur[i]
        elif kind in ("model", "autodiff", "data", "trainer", "bench") and name != "model.loss":
            add(f"{name}_ms", dur[i])
        elif kind == "step":
            step = i
    if step is None:
        return None
    backward_ms = v.get("autodiff.backward_ms", 0.0)
    v["autodiff.overhead_ms"] = backward_ms - bwd_total if backward_ms else 0.0

    leaf_ms = 0.0
    stack = [step]
    while stack:
        i = stack.pop()
        kids = children.get(i, [])
        if kids:
            stack.extend(kids)
        elif i != step:
            leaf_ms += dur[i]
    v["step_ms"] = dur[step]
    v["trace.coverage"] = leaf_ms / dur[step]
    v.update(counts)
    return v


def per_layer_metrics(tr: Tracer, untraced_ms: list[float], w) -> dict[str, float]:
    """Medians over the traced ops of every per-layer metric."""
    by_step: dict[int, list] = {}
    for i, s in enumerate(tr.spans):
        by_step.setdefault(s[7], []).append((i, s))
    steps = [_step_values(by_step[k], tr.step_counts[k]) for k in sorted(by_step)]
    steps = [s for s in steps if s is not None]
    mults = mults_by_kind(w.layers())
    keys = sorted({k for s in steps for k in s})
    med = {k: statistics.median(s.get(k, 0.0) for s in steps) for k in keys}

    def get(key):
        return med.get(key, 0.0)

    out: dict[str, float] = {}
    for kind in KINDS:
        out[f"{kind}.fwd_ms"] = get(f"{kind}.fwd_ms")
        out[f"{kind}.bwd_ms"] = get(f"{kind}.bwd_ms")
    for stage in STAGES:
        out[f"stage.{stage}.fwd_ms"] = get(f"stage.{stage}.fwd_ms")
        out[f"stage.{stage}.bwd_ms"] = get(f"stage.{stage}.bwd_ms")
    for kind in ("neocell", "pointwise"):
        out[f"{kind}.mults"] = mults[kind]
        ms = out[f"{kind}.fwd_ms"]
        out[f"{kind}.mults_per_s"] = mults[kind] / (ms / 1e3) if ms else 0.0
    for key in ("model.forward_ms", "autodiff.backward_ms", "autodiff.overhead_ms",
                "data.augment_ms", "trainer.sgd_step_ms", "bench.dwconv_ms"):
        out[key] = get(key)
    out["autodiff.tape_nodes"] = get("autodiff.tape_nodes")
    dw = out["bench.dwconv_ms"]
    out["neocell_vs_dwconv_time_ratio"] = out["neocell.fwd_ms"] / dw if dw else 0.0
    out["neocell_vs_dwconv_mults_ratio"] = w.mults_vs_dwconv() if isinstance(w, OpNeoCell56) else 0.0
    out["trace.coverage"] = get("trace.coverage")
    out["trace.overhead_ms"] = get("step_ms") - statistics.median(untraced_ms)
    return out
