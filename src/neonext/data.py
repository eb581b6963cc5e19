"""Dataset ingestion, synthetic data, augmentation, and deterministic batching.

CIFAR-10 is read from the canonical binary layout: five train files
``data_batch_1..5.bin`` and one ``test_batch.bin``, each holding 10000
records of 3073 bytes (1 label byte followed by 3072 channel-major pixel
bytes, red plane first).  Pixels are scaled to [0, 1] float64.

The synthetic task is a CI-scale stand-in: each class owns a fixed
low-frequency template (a coarse 8x8 pattern upsampled to 32x32), and a
sample is its class template plus smooth seeded noise, so the class is a
linearly separable function of low-frequency content.

Batching is a pure function of (BatchPlan, dataset); replaying a plan yields
bit-identical batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError, ParameterError
from .rng import Rng
from .tensor import Tensor4

CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"
_RECORD = 3073
_RECORDS_PER_FILE = 10000


@dataclass
class Dataset:
    images: Tensor4
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.dims[0] != self.labels.size:
            raise DataError(
                f"image count {self.images.dims[0]} != label count {self.labels.size}"
            )
        arr = self.images.array
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DataError("pixel values outside [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError(f"labels outside [0, {self.num_classes})")

    @property
    def size(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class BatchPlan:
    seed: int
    batch_size: int
    epoch: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class Batch:
    images: Tensor4
    labels: np.ndarray
    # no batch carries soft targets; kept for perfbench, which reads it
    targets: ClassVar[np.ndarray | None] = None


def batch_order(plan: BatchPlan, n: int) -> np.ndarray:
    """Sample order for one epoch; a pure function of the plan."""
    return Rng(plan.seed).derive(plan.epoch).permutation(n)


def batches(ds: Dataset, plan: BatchPlan):
    """Yield the full batches in the plan's deterministic order; the remainder is dropped."""
    order = batch_order(plan, ds.size)
    step = plan.batch_size
    stop = ds.size - (ds.size % step)
    imgs = ds.images.array
    for base in range(0, stop, step):
        idx = order[base : base + step]
        yield Batch(Tensor4(imgs[idx]), ds.labels[idx])


# ------------------------------------------------------------------- cifar

def _load_cifar_file(path: Path):
    if not path.is_file():
        raise DataError(f"{path}: missing CIFAR-10 batch file")
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % _RECORD:
        offset = raw.size - (raw.size % _RECORD)
        raise DataError(f"{path}: truncated record starting at byte {offset}")
    if raw.size // _RECORD != _RECORDS_PER_FILE:
        raise DataError(
            f"{path}: expected {_RECORDS_PER_FILE} records, found {raw.size // _RECORD}"
        )
    recs = raw.reshape(_RECORDS_PER_FILE, _RECORD)
    labels = recs[:, 0].astype(np.int64)
    bad = np.nonzero(labels >= 10)[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: invalid label {labels[i]} at byte offset {i * _RECORD}")
    images = recs[:, 1:].reshape(_RECORDS_PER_FILE, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(dir_path) -> tuple[Dataset, Dataset]:
    d = Path(dir_path)
    train_imgs, train_labels = [], []
    for name in CIFAR_TRAIN_FILES:
        imgs, labels = _load_cifar_file(d / name)
        train_imgs.append(imgs)
        train_labels.append(labels)
    test_imgs, test_labels = _load_cifar_file(d / CIFAR_TEST_FILE)
    train = Dataset(Tensor4(np.concatenate(train_imgs)), np.concatenate(train_labels), 10)
    test = Dataset(Tensor4(test_imgs), test_labels, 10)
    return train, test


# --------------------------------------------------------------- synthetic

def _upsample4(a: np.ndarray) -> np.ndarray:
    return a.repeat(4, axis=-2).repeat(4, axis=-1)


def synth_task(rng: Rng, n: int, classes: int) -> Dataset:
    """Procedural 3x32x32 dataset with linearly separable low-frequency classes.

    Labels are balanced within one sample per class.
    """
    if classes < 2:
        raise ParameterError(f"synth_task needs >= 2 classes, got {classes}")
    if n < classes:
        raise ParameterError(f"synth_task needs n >= classes, got n={n}, classes={classes}")
    templates = rng.normal((classes, 3, 8, 8), 1.0)
    templates = _upsample4(templates)
    labels = np.arange(n) % classes
    labels = labels[rng.permutation(n)]
    noise = _upsample4(rng.normal((n, 3, 8, 8), 1.0))
    jitter = rng.normal((n, 1, 1, 1), 1.0)
    raw = 0.35 * templates[labels] + 0.12 * noise + 0.05 * jitter
    images = np.clip(0.5 + raw, 0.0, 1.0)
    return Dataset(Tensor4(images), labels, classes)


def split_dataset(ds: Dataset, n_val: int) -> tuple[Dataset, Dataset]:
    """Disjoint (train, val) split: the last n_val samples become val."""
    if not (0 < n_val < ds.size):
        raise ParameterError(f"n_val must be in (0, {ds.size}), got {n_val}")
    cut = ds.size - n_val
    train_idx = np.arange(0, cut)
    val_idx = np.arange(cut, ds.size)
    assert not np.intersect1d(train_idx, val_idx).size
    imgs = ds.images.array
    return (
        Dataset(Tensor4(imgs[train_idx]), ds.labels[train_idx], ds.num_classes),
        Dataset(Tensor4(imgs[val_idx]), ds.labels[val_idx], ds.num_classes),
    )


# -------------------------------------------------------------- augmenting

def flip_horizontal(images: np.ndarray, which: np.ndarray) -> np.ndarray:
    out = images.copy()
    out[which] = out[which][:, :, :, ::-1]
    return out


def crop_with_pad(images: np.ndarray, offsets: np.ndarray, pad: int = 4) -> np.ndarray:
    """Zero-pad by ``pad`` on each side, then cut the original size at ``offsets``."""
    n, c, h, w = images.shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=images.dtype)
    padded[:, :, pad : pad + h, pad : pad + w] = images
    out = np.empty_like(images)
    for i in range(n):
        oy, ox = offsets[i]
        out[i] = padded[i, :, oy : oy + h, ox : ox + w]
    return out


def augment(batch: Batch, rng: Rng, policy: str = "basic", classes: int | None = None, mixup_alpha: float | None = None) -> Batch:
    """Crop-with-pad-4 plus horizontal flip, the one augmentation.

    ``policy`` accepts only ``"basic"``; ``classes`` and ``mixup_alpha`` are
    unused and accepted for perfbench's call.
    """
    if policy != "basic":
        raise ConfigError(f"unknown augment policy {policy!r}; the only policy is 'basic'")
    imgs = batch.images.array
    n = imgs.shape[0]
    offsets = np.stack([rng.integers(n, 9), rng.integers(n, 9)], axis=1)
    out = crop_with_pad(imgs, offsets)
    out = flip_horizontal(out, rng.uniform(n) < 0.5)
    return Batch(Tensor4(out), batch.labels)
