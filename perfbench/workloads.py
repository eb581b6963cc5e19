"""The benchmark's three workloads, driven through neonext's public functions.

Each workload builds its inputs from the benchmark seed in ``setup``, runs one
closed-loop operation per ``op`` call and judges that operation's output in
``verify``.  ``checks`` runs the run-level output checks after the timed loop.
Nothing here edits or patches the package: every layer is reached by calling
it.

- ``train-micro``: one full training step of the micro model, in the order and
  with the RNG derivations of ``trainer.train_run``.  A repetition is one
  epoch from a freshly built model, so every repetition must reproduce the
  first repetition's loss sequence bit for bit.
- ``eval-micro``: one ``trainer.evaluate`` call over the validation split.
- ``op-neocell56``: forward plus backward of one NeoCell layer at the paper's
  ImageNet stage-0 shape.
"""

from __future__ import annotations

import math

import numpy as np

from neonext.autodiff import Tape, Val, backward, fd_check
from neonext.data import BatchPlan, augment, batches, split_dataset, synth_task
from neonext.errors import NumericError
from neonext.model import (
    ForwardCtx,
    NeoCellLayer,
    build_model,
    make_stage_groups,
    named_spec,
    one_hot,
    smooth_targets,
    softmax_cross_entropy,
)
from neonext.bench import flops_dwconv
from neonext.neocell import NeoCellSpec, forward_blockdiag
from neonext.rng import Rng
from neonext.tensor import Tensor4
from neonext.trainer import RunConfig, evaluate, lr_at, sgd_step

from counts import layer_params, model_layers, neocell_mults

EQUIV_TOL = 1e-10
FD_TOL = 1e-4


class OpFailed(Exception):
    """An operation that ran but whose result is unusable (diverged, non-finite)."""


def synth_split(seed: int, cfg: RunConfig):
    """Train/val datasets generated from the benchmark seed."""
    full = synth_task(Rng(seed).derive(7), cfg.synth_train + cfg.synth_val, cfg.classes)
    return split_dataset(full, cfg.synth_val)


class TrainMicro:
    """SGD training steps of the micro model, exactly as ``train_run`` takes them."""

    warmup_ops = 2

    def __init__(self, seed: int, cfg: RunConfig, train_ds, val_ds):
        self.seed = seed
        self.cfg = cfg
        self.train_ds = train_ds
        self.val_ds = val_ds
        self.batch = cfg.batch_size
        self.steps_per_epoch = train_ds.size // cfg.batch_size
        self.min_ops = self.steps_per_epoch + 2    # a full epoch, then a repeat to compare
        self.reference: list[float] = []       # first repetition's losses
        self.reps: list[list[float]] = []

    @classmethod
    def create(cls, seed: int, cfg: RunConfig):
        train_ds, val_ds = synth_split(seed, cfg)
        return cls(seed, cfg, train_ds, val_ds)

    def setup(self) -> None:
        self.reset()
        for _ in range(self.warmup_ops):
            self.op()
        self.reps = []
        self.reset()

    def reset(self) -> None:
        """Fresh model, optimizer and RNG streams: the start of a repetition."""
        cfg = self.cfg
        root = Rng(self.seed)
        init_rng = root.derive(1)
        self.aug_rng = root.derive(2)
        self.dp_rng = root.derive(3)
        spec = named_spec(cfg.model, classes=self.train_ds.num_classes, drop_path_rate=cfg.drop_path)
        self.model = build_model(spec, self.train_ds.images.dims[2], init_rng, init=cfg.init)
        self.params = self.model.params()
        self.schedule = cfg.schedule()
        self.opt_state: dict = {}
        self.step = 0
        plan = BatchPlan(seed=root.derive(100).seed, batch_size=cfg.batch_size, epoch=1)
        self.batch_iter = batches(self.train_ds, plan)
        self.reps.append([])

    def next_batch(self):
        """The next augmented batch and its smoothed targets (data layer)."""
        cfg = self.cfg
        batch = next(self.batch_iter)
        batch = augment(batch, self.aug_rng, cfg.augment, classes=self.train_ds.num_classes,
                        mixup_alpha=cfg.mixup_alpha)
        targets = batch.targets if batch.targets is not None else one_hot(batch.labels, self.train_ds.num_classes)
        return batch, smooth_targets(targets, cfg.label_smoothing)

    def layers(self):
        """(layer, input dims) of the NeoCell and pointwise calls in one op."""
        return model_layers(self.model, self.batch)

    def forward_ctx(self) -> ForwardCtx:
        return ForwardCtx("train", self.dp_rng, update_stats=True)

    def finish_step(self, loss_val: float, grads) -> float:
        """Optimizer update after forward and backward; returns the loss."""
        if not math.isfinite(loss_val):
            raise OpFailed(f"non-finite loss {loss_val} at step {self.step}")
        lr = lr_at(self.schedule, self.step, self.steps_per_epoch)
        try:
            sgd_step(self.params, grads, self.opt_state, self.cfg.optimizer, lr)
        except NumericError as e:
            raise OpFailed(str(e)) from e
        self.step += 1
        return loss_val

    def begin_op(self) -> None:
        """Start a new repetition once the previous one has used its epoch."""
        if self.step == self.steps_per_epoch:
            self.reset()

    def op(self) -> float:
        self.begin_op()
        batch, targets = self.next_batch()
        tape = Tape()
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            logits = self.model.forward(batch.images, self.forward_ctx(), tape)
            loss = softmax_cross_entropy(tape, logits, targets)
            loss_val = float(loss.array)
            if not math.isfinite(loss_val):
                raise OpFailed(f"non-finite loss {loss_val} at step {self.step}")
            grads = backward(tape)
        return self.finish_step(loss_val, grads)

    def abandon(self) -> None:
        """After a failed step the model state is unusable: restart the epoch."""
        self.step = self.steps_per_epoch

    def verify(self, loss: float) -> bool:
        """Finite, and equal to the first repetition's loss at the same step."""
        rep = self.reps[-1]
        i = len(rep)
        rep.append(loss)
        if len(self.reps) == 1:
            self.reference.append(loss)
            return math.isfinite(loss)
        return i < len(self.reference) and loss == self.reference[i]

    def checks(self):
        ref = self.reference
        complete = len(ref) == self.steps_per_epoch
        q = max(1, len(ref) // 4)
        falls = complete and float(np.mean(ref[-q:])) < float(np.mean(ref[:q]))
        yield (
            "train.loss_falls",
            falls,
            f"first-epoch mean loss of first {q} steps {np.mean(ref[:q]):.4f} -> last {q} steps {np.mean(ref[-q:]):.4f}"
            if ref else "no complete epoch",
        )
        repeated = len(self.reps) >= 2 and all(r == ref[: len(r)] for r in self.reps[1:] if r)
        yield (
            "train.deterministic_repeats",
            repeated,
            f"{len(self.reps)} repetitions of up to {self.steps_per_epoch} steps compared bit for bit",
        )


class EvalMicro:
    """``trainer.evaluate`` over the validation split of a briefly trained micro model."""

    warmup_ops = 1
    train_steps = 4     # gives the model trained weights and BN running stats
    eval_batch = 256

    def __init__(self, seed: int, cfg: RunConfig):
        self.seed = seed
        self.cfg = cfg
        self.min_ops = 2
        self.results: list[tuple[float, float]] = []

    def setup(self) -> None:
        trainer = TrainMicro.create(self.seed, self.cfg)
        trainer.reset()
        for _ in range(self.train_steps):
            trainer.op()
        self.model = trainer.model
        self.val_ds = trainer.val_ds
        self.batch = self.val_ds.size
        for _ in range(self.warmup_ops):
            self.op()

    def layers(self):
        return model_layers(self.model, self.batch)

    def op(self) -> tuple[float, float]:
        return evaluate(self.model, self.val_ds, self.eval_batch)

    def abandon(self) -> None:
        pass

    def verify(self, result) -> bool:
        self.results.append(result)
        loss, acc = result
        return math.isfinite(loss) and math.isfinite(acc) and result == self.results[0]

    def checks(self):
        loss, acc = self.results[0] if self.results else (float("nan"), float("nan"))
        yield (
            "eval.identical_calls",
            len(self.results) >= 2 and len(set(self.results)) == 1,
            f"{len(self.results)} calls, val_loss {loss!r}, val_acc {acc!r}",
        )


class OpNeoCell56:
    """Forward plus backward of one NeoCell layer: 96 channels, 56x56, mixed-shift groups."""

    warmup_ops = 2
    channels = 96
    size = 56
    batch = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.min_ops = 2
        self.first = None

    def setup(self) -> None:
        groups, _ = make_stage_groups(self.channels, self.size, "mixed-shift")
        self.spec = NeoCellSpec(groups, use_bias=False)
        root = Rng(self.seed)
        self.layer = NeoCellLayer("stage0.block0.neocell", self.spec, root.derive(1))
        shape = (self.batch, self.channels, self.size, self.size)
        self.x = root.derive(2).normal(shape, 1.0)
        self.grad_probe = root.derive(3).normal(shape, 1.0)    # G of the scalar probe <out, G>
        self.dw_kernels = root.derive(4).normal((self.channels, 7, 7), 1.0)   # traced runs only
        self.ctx = ForwardCtx("train")
        for _ in range(self.warmup_ops):
            self.op()

    def layers(self):
        return [(self.layer, self.x.shape)]

    def mults_vs_dwconv(self) -> float:
        """Exact multiply ratio of this layer to a k=7 depthwise convolution."""
        n, c, h, w = self.x.shape
        return neocell_mults(self.spec, self.x.shape) / (n * flops_dwconv(c, h, w, 7).multiplies)

    def op(self):
        tape = Tape()
        out = self.layer.forward(Val(self.x), tape, self.ctx)
        grads = backward(tape, self.grad_probe)
        return out.array, grads

    def abandon(self) -> None:
        pass

    def verify(self, result) -> bool:
        out, grads = result
        sums = (float(out.sum()),) + tuple(float(g.sum()) for g in grads.values())
        if self.first is None:
            self.first = (out, grads)
            self.first_sums = sums
            return all(math.isfinite(s) for s in sums)
        return sums == self.first_sums

    def probe_loss(self) -> float:
        out = self.layer.forward(Val(self.x), None, self.ctx)
        return float(np.sum(out.array * self.grad_probe))

    def checks(self):
        out, grads = self.first
        ref = forward_blockdiag(Tensor4(self.x), self.spec, layer_params(self.layer)).array
        dev = float(np.max(np.abs(out - ref)))
        yield ("neocell.matches_blockdiag", dev <= EQUIV_TOL, f"max |patchwise - blockdiag| = {dev:.3e} (limit {EQUIV_TOL:g})")
        report = fd_check(self.probe_loss, self.layer.params(), grads, threshold=FD_TOL, entries_per_param=3)
        yield ("neocell.fd_gradients", report.passed, f"max rel err {report.max_rel_err:.3e} over {sum(r.checked for r in report.rows)} entries (limit {FD_TOL:g})")
