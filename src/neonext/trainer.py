"""SGD-momentum, the LR schedule, the training loop, and the init-method ablation.

The desk-scale ablation protocol is pinned here, and it is the only one:
micro model, SGD with classical momentum 0.9 (no weight decay or clipping),
one warmup epoch ramping linearly to the peak rate followed by cosine
annealing to 0, batch size 64, basic augmentation, label smoothing 0.1.
These values are constants (``RunConfig``'s class constants and
``OptimSpec``'s momentum), not config keys.  Both init arms ("neoinit" vs
"random-normal") run under identical settings; a run whose training loss,
gradient or epoch validation loss turns non-finite is recorded as diverged
rather than crashing.

Run config files are flat key = value text with the versioned header line
``neonext-run-config v1``, one key per ``RunConfig`` field: what varies
between runs (data, lr, epochs, seeds, init, output); see ``parse_config``.
Per-epoch CSV schema: epoch,train_loss,val_loss,val_acc,lr,wall_time_s —
everything except the trailing wall_time_s is a pure function of the config.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .autodiff import Grads, Param, Tape, Val, backward
from .data import BatchPlan, Dataset, augment, batches, load_cifar10, split_dataset, synth_task
from .errors import ConfigError, NumericError, ParameterError
from .model import (
    MODEL_SPECS,
    ForwardCtx,
    Model,
    build_model,
    named_spec,
    one_hot,
    save_checkpoint,
    smooth_targets,
    softmax_cross_entropy,
)
from .rng import Rng, check_seed
from .tensor import Tensor4

REFERENCE_ACC_NEOINIT = 88.45
REFERENCE_ACC_RANDOM = 84.65
REFERENCE_GAP_PP = 3.8


@dataclass(frozen=True)
class OptimSpec:
    """SGD-momentum's settings: ``sgd_step`` reads nothing else."""
    lr: float = 0.1
    momentum: float = 0.9

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class ScheduleSpec:
    warmup_epochs: int
    total_epochs: int
    peak_lr: float

    def __post_init__(self):
        if self.warmup_epochs > self.total_epochs:
            raise ConfigError(
                f"warmup {self.warmup_epochs} exceeds total epochs {self.total_epochs}"
            )


class _TakesOptimizer(type):
    """``RunConfig(optimizer=spec)`` means ``lr=spec.lr`` (perfbench's tests use it)."""

    def __call__(cls, *args, optimizer: OptimSpec | None = None, **kw):
        if optimizer is not None:
            if "lr" in kw:
                raise ConfigError("give optimizer or lr, not both")
            if optimizer.momentum != OptimSpec.momentum:
                raise ConfigError(f"momentum is fixed at {OptimSpec.momentum}, got {optimizer.momentum}")
            kw["lr"] = optimizer.lr
        return super().__call__(*args, **kw)


@dataclass(frozen=True)
class RunConfig(metaclass=_TakesOptimizer):
    """A run's settings: the fields vary between runs, the class constants are the pinned protocol."""
    model: ClassVar[str] = "neonext-micro"
    classes: ClassVar[int] = 10
    warmup_epochs: ClassVar[int] = 1
    batch_size: ClassVar[int] = 64
    augment: ClassVar[str] = "basic"       # read only by perfbench, which passes it to augment
    label_smoothing: ClassVar[float] = 0.1
    mixup_alpha: ClassVar[float] = 0.8    # read only by perfbench; augment accepts and ignores it
    drop_path: ClassVar[float] = MODEL_SPECS[model].drop_path_rate

    data: str = "synthetic"
    data_dir: str = ""
    synth_train: int = 1920
    synth_val: int = 512
    lr: float = OptimSpec.lr
    epochs: int = 3
    seeds: tuple[int, ...] = (1,)
    init: str = "neoinit"
    out_dir: str = "runs/out"

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        for seed in self.seeds:
            try:
                check_seed(seed, "seeds")
            except ParameterError as exc:
                raise ConfigError(str(exc)) from None
        if len(set(self.seeds)) != len(self.seeds):
            # each seed's run writes its own directory: a repeat would overwrite it
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
        if self.init not in ("neoinit", "random-normal"):
            raise ConfigError(f"init must be neoinit or random-normal, got {self.init!r}")
        # each data source's keys are checked only where that source is read
        if self.data == "cifar10":
            if not self.data_dir:
                raise ConfigError("cifar10 runs need data_dir")
            ranges = (("epochs", 0),)
        elif self.data == "synthetic":
            if self.data_dir:
                raise ConfigError(f"data_dir is read only under data = cifar10, got {self.data_dir!r} with synthetic data")
            # a synthetic train split holds at least one whole batch
            ranges = (("synth_train", self.batch_size), ("synth_val", 1), ("epochs", 0))
        else:
            raise ConfigError(f"data must be synthetic or cifar10, got {self.data!r}")
        for key, least in ranges:
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        OptimSpec(self.lr)    # checks lr

    @property
    def optimizer(self) -> OptimSpec:
        return OptimSpec(self.lr)

    def schedule(self) -> ScheduleSpec:
        # warmup clamps to the run length so short runs stay valid
        return ScheduleSpec(min(self.warmup_epochs, self.epochs), self.epochs, self.lr)


# ----------------------------------------------------------------- SGD

def sgd_step(params: list[Param], grads: Grads, state: dict, spec: OptimSpec, lr: float | None = None) -> None:
    """Classical momentum: v <- mu*v + g; p <- p - lr*v, in place once every gradient is finite."""
    for p in params:
        if not np.all(np.isfinite(grads[p.name])):
            raise NumericError(f"non-finite gradient for parameter {p.name}")
    lr = spec.lr if lr is None else lr
    for p in params:
        v = state.setdefault(p.name, np.zeros_like(p.array))
        v *= spec.momentum
        v += grads[p.name]
        p.array -= lr * v


def lr_at(schedule: ScheduleSpec, step: int, steps_per_epoch: int) -> float:
    """Linear 0 -> peak over the warmup steps, then cosine to 0.

    Degenerate zero-length schedules return 0.
    """
    warmup = schedule.warmup_epochs * steps_per_epoch
    total = schedule.total_epochs * steps_per_epoch
    if total == 0:
        return 0.0
    if warmup > 0 and step < warmup:
        return schedule.peak_lr * step / warmup
    span = max(total - warmup, 1)
    t = min(max((step - warmup) / span, 0.0), 1.0)
    return schedule.peak_lr * 0.5 * (1.0 + math.cos(math.pi * t))


# ----------------------------------------------------------------- running

@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float
    lr: float
    wall_time_s: float


@dataclass
class RunReport:
    seed: int
    init: str
    status: str                       # completed | diverged
    rows: list[EpochRow]
    divergence_step: int | None
    csv_path: str
    checkpoint_path: str

    @property
    def final_val_acc(self) -> float:
        return self.rows[-1].val_acc

    @property
    def final_val_loss(self) -> float:
        return self.rows[-1].val_loss


def load_data(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """The config's (train, val) datasets.

    They are a pure function of the data keys, so callers that run several
    seeds or arms of one config load them once and pass them to each
    ``train_run``.
    """
    if cfg.data == "cifar10":
        return load_cifar10(cfg.data_dir)
    full = synth_task(Rng(20240901), cfg.synth_train + cfg.synth_val, cfg.classes)
    return split_dataset(full, cfg.synth_val)


def evaluate(model: Model, ds: Dataset, batch_size: int = 256) -> tuple[float, float]:
    """Eval-mode mean cross-entropy (unsmoothed) and top-1 accuracy.

    Runs with numeric warnings suppressed: a diverged model evaluates to
    non-finite loss, which the caller reports rather than crashes on.
    """
    total_loss = 0.0
    correct = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for base in range(0, ds.size, batch_size):
            imgs = Tensor4(ds.images.array[base : base + batch_size])
            labels = ds.labels[base : base + batch_size]
            logits = model.forward(imgs, ForwardCtx(mode="eval")).array
            targets = one_hot(labels, ds.num_classes)
            loss = softmax_cross_entropy(None, Val(logits), targets)
            total_loss += float(loss.array) * labels.size
            correct += int((logits.argmax(axis=1) == labels).sum())
    return total_loss / ds.size, correct / ds.size


def _write_csv(path: Path, rows: list[EpochRow]) -> None:
    lines = ["epoch,train_loss,val_loss,val_acc,lr,wall_time_s"]
    for r in rows:
        lines.append(
            f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.val_acc!r},{r.lr!r},{r.wall_time_s:.3f}"
        )
    path.write_text("\n".join(lines) + "\n")


def train_run(cfg: RunConfig, seed: int | None = None, data: tuple[Dataset, Dataset] | None = None) -> RunReport:
    """One training run; divergence is a reported outcome, not a crash.

    ``data`` is ``load_data(cfg)``'s (train, val) pair, or None to load it.
    """
    seed = cfg.seeds[0] if seed is None else seed
    t0 = time.perf_counter()
    train_ds, val_ds = load_data(cfg) if data is None else data
    root = Rng(seed)
    init_rng = root.derive(1)
    aug_rng = root.derive(2)
    dp_rng = root.derive(3)
    spec = named_spec(cfg.model, classes=train_ds.num_classes)
    model = build_model(spec, train_ds.images.dims[2], init_rng, init=cfg.init)
    params = model.params()
    schedule = cfg.schedule()
    steps_per_epoch = train_ds.size // cfg.batch_size
    opt_state: dict = {}
    step = 0
    divergence_step = None

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    val_loss, val_acc = evaluate(model, val_ds)
    rows = [EpochRow(0, float("nan"), val_loss, val_acc, lr_at(schedule, 0, steps_per_epoch), time.perf_counter() - t0)]

    for epoch in range(1, cfg.epochs + 1):
        plan = BatchPlan(seed=root.derive(100).seed, batch_size=cfg.batch_size, epoch=epoch)
        losses = []
        for batch in batches(train_ds, plan):
            batch = augment(batch, aug_rng)
            targets = smooth_targets(one_hot(batch.labels, train_ds.num_classes), cfg.label_smoothing)
            tape = Tape()
            # a non-finite loss or gradient ends the run as diverged, not as an error
            try:
                with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                    logits = model.forward(batch.images, ForwardCtx("train", dp_rng, update_stats=True), tape)
                    loss_val = float(softmax_cross_entropy(tape, logits, targets).array)
                    if not math.isfinite(loss_val):
                        raise NumericError(f"non-finite loss {loss_val}")
                    losses.append(loss_val)
                    grads = backward(tape)
                sgd_step(params, grads, opt_state, cfg.optimizer, lr_at(schedule, step, steps_per_epoch))
            except NumericError:
                divergence_step = step
                break
            step += 1
        val_loss, val_acc = evaluate(model, val_ds)
        if divergence_step is None and not math.isfinite(val_loss):
            # an update that blew up after the epoch's last forward shows only here
            divergence_step = step
        train_loss = float(np.mean(losses)) if losses else float("nan")
        rows.append(
            EpochRow(epoch, train_loss, val_loss, val_acc, lr_at(schedule, step, steps_per_epoch), time.perf_counter() - t0)
        )
        if divergence_step is not None:
            break

    csv_path = out_dir / "run.csv"
    _write_csv(csv_path, rows)
    ckpt = out_dir / "checkpoint"
    save_checkpoint(model, ckpt)
    status = "completed" if divergence_step is None else "diverged"
    (out_dir / "status.txt").write_text(
        f"status {status}\nseed {seed}\ninit {cfg.init}\n"
        + (f"divergence_step {divergence_step}\n" if divergence_step is not None else "")
    )
    return RunReport(seed, cfg.init, status, rows, divergence_step, str(csv_path), str(ckpt))


@dataclass
class ArmSummary:
    init: str
    mean_acc: float
    std_acc: float
    mean_loss: float
    std_loss: float
    diverged: int
    runs: list[RunReport]


@dataclass
class AblationReport:
    arms: dict[str, ArmSummary]
    accuracy_gap: float                # neoinit mean acc - random mean acc
    report_path: str

    @property
    def direction_holds(self) -> bool:
        """NeoInit's mean accuracy beats random-normal's, and no NeoInit run
        diverged: the published result's direction, checked at desk scale."""
        neo, rand = self.arms["neoinit"], self.arms["random-normal"]
        return neo.mean_acc > rand.mean_acc and neo.diverged == 0

    def summary_text(self) -> str:
        lines = [
            "init-method ablation",
            f"reference (full-scale, 25 epochs): neoinit {REFERENCE_ACC_NEOINIT}% "
            f"vs random-normal {REFERENCE_ACC_RANDOM}% (gap +{REFERENCE_GAP_PP}pp); "
            "this harness reproduces the direction at desk scale, not the magnitude",
        ]
        for name, arm in self.arms.items():
            lines.append(
                f"{name}: mean val acc {arm.mean_acc:.4f} (std {arm.std_acc:.4f}), "
                f"mean val loss {arm.mean_loss:.4f} (std {arm.std_loss:.4f}), "
                f"diverged {arm.diverged}/{len(arm.runs)}"
            )
        lines.append(f"accuracy gap (neoinit - random-normal): {self.accuracy_gap:+.4f}")
        lines.append(f"direction holds: {'yes' if self.direction_holds else 'no'}")
        return "\n".join(lines) + "\n"


def run_ablation(base_cfg: RunConfig, seeds: list[int] | None = None) -> AblationReport:
    """Both init arms over all seeds, under identical settings."""
    base_cfg = base_cfg if seeds is None else replace(base_cfg, seeds=tuple(seeds))   # RunConfig checks seeds
    seeds = list(base_cfg.seeds)
    if len(seeds) < 2:
        raise ConfigError(f"ablation needs >= 2 seeds, got {seeds}")
    out_root = Path(base_cfg.out_dir)
    data = load_data(base_cfg)
    arms: dict[str, ArmSummary] = {}
    for init in ("neoinit", "random-normal"):
        runs = []
        for seed in seeds:
            cfg = replace(
                base_cfg,
                init=init,
                seeds=(seed,),
                out_dir=str(out_root / f"{init}_seed{seed}"),
            )
            runs.append(train_run(cfg, seed, data))
        accs = [r.final_val_acc for r in runs]
        losses = [r.final_val_loss for r in runs]
        arms[init] = ArmSummary(
            init,
            float(np.mean(accs)),
            float(np.std(accs)),
            float(np.mean(losses)),
            float(np.std(losses)),
            sum(r.status == "diverged" for r in runs),
            runs,
        )
    gap = arms["neoinit"].mean_acc - arms["random-normal"].mean_acc
    out_root.mkdir(parents=True, exist_ok=True)
    path = out_root / "ablation_report.txt"
    report = AblationReport(arms, gap, str(path))
    rows = ["init,seed,status,final_val_loss,final_val_acc"]
    for arm in arms.values():
        for r in arm.runs:
            rows.append(f"{r.init},{r.seed},{r.status},{r.final_val_loss!r},{r.final_val_acc!r}")
    path.write_text(report.summary_text() + "\n" + "\n".join(rows) + "\n")
    return report


# ------------------------------------------------------------- config files

CONFIG_HEADER = "neonext-run-config v1"


def _convert(key: str, raw: str, default):
    """Config value ``raw`` as the type of its default."""
    if isinstance(default, str):
        return raw
    try:
        if isinstance(default, tuple):
            return tuple(int(s) for s in raw.split(",") if s.strip())
        return int(raw) if isinstance(default, int) else float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None


def parse_config(source: str | Path) -> RunConfig:
    """Parse a run config from its text, or from the file a ``Path`` names.

    Keys that the text leaves out keep their ``RunConfig()`` values.
    """
    if isinstance(source, Path):
        if not source.is_file():
            raise ConfigError(f"config file {str(source)!r} not found")
        source = source.read_text()
    lines = [ln.strip() for ln in source.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != CONFIG_HEADER:
        raise ConfigError(f"config must start with the header line {CONFIG_HEADER!r}")
    defaults = asdict(RunConfig())
    v, given = dict(defaults), set()
    for ln in lines[1:]:
        if "=" not in ln:
            raise ConfigError(f"malformed config line: {ln!r}")
        key, _, value = ln.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        if key in given:
            raise ConfigError(f"duplicate config key {key!r}")
        given.add(key)
        v[key] = _convert(key, value.strip(), defaults[key])
    return RunConfig(**v)


def write_config(cfg: RunConfig, path) -> None:
    lines = [CONFIG_HEADER]
    for key, value in asdict(cfg).items():
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
