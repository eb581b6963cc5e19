import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from neonext.data import (
    Batch,
    BatchPlan,
    CIFAR_TRAIN_FILES,
    CIFAR_TEST_FILE,
    Dataset,
    augment,
    batch_order,
    batches,
    crop_with_pad,
    flip_horizontal,
    load_cifar10,
    split_dataset,
    synth_task,
)
from neonext.errors import ConfigError, DataError
from neonext.rng import Rng
from neonext.tensor import Tensor4

REAL_CIFAR_DIR = os.environ.get("CIFAR10_DIR", "")


def write_fake_cifar(directory: Path, seed: int = 0) -> None:
    """Full-size files in the canonical binary layout, synthetic pixels."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name in CIFAR_TRAIN_FILES + (CIFAR_TEST_FILE,):
        recs = np.empty((10000, 3073), dtype=np.uint8)
        recs[:, 0] = rng.integers(0, 10, 10000)
        recs[:, 1:] = rng.integers(0, 256, (10000, 3072))
        recs.tofile(directory / name)


def traced_peak(fn):
    """``fn()``'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="session")
def fake_cifar_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cifar")
    write_fake_cifar(d)
    return d


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25, 1.25])
    def test_pixel_outside_unit_range_refused(self, bad):
        imgs = np.full((2, 3, 4, 4), 0.5)
        imgs[1, 2, 3, 0] = bad
        with pytest.raises(DataError, match=re.escape("pixel values outside [0, 1]")):
            Dataset(Tensor4(imgs), np.array([0, 1]), 2)

    def test_unit_range_edges_accepted(self):
        imgs = np.full((2, 3, 4, 4), 0.5)
        imgs[0, 0, 0, 0], imgs[1, 0, 0, 0] = 0.0, 1.0
        assert Dataset(Tensor4(imgs), np.array([0, 1]), 2).size == 2


class TestCifarLoader:
    def test_counts(self, fake_cifar_dir):
        train, test = load_cifar10(fake_cifar_dir)
        assert train.size == 50_000
        assert test.size == 10_000
        assert train.images.dims == (50_000, 3, 32, 32)

    def test_peak_memory_below_one_and_a_half_train_sets(self, fake_cifar_dir):
        # the float64 train set is not copied after its one conversion
        (train, _), peak = traced_peak(lambda: load_cifar10(fake_cifar_dir))
        assert peak < 1.5 * train.images.array.nbytes

    def test_pixel_scaling_roundtrip(self, fake_cifar_dir):
        train, _ = load_cifar10(fake_cifar_dir)
        raw = np.fromfile(fake_cifar_dir / "data_batch_1.bin", dtype=np.uint8)
        rec0 = raw[:3073]
        assert train.labels[0] == rec0[0]
        want = rec0[1:].reshape(3, 32, 32).astype(np.float64) / 255.0
        assert np.array_equal(train.images.array[0], want)

    def test_train_images_match_per_file_float_conversion(self, fake_cifar_dir):
        """One uint8 -> float64 division after the concatenate gives the
        bits of the per-file ``astype(float64) / 255.0`` it replaced."""
        train, _ = load_cifar10(fake_cifar_dir)
        for i, name in enumerate(CIFAR_TRAIN_FILES):
            recs = np.fromfile(fake_cifar_dir / name, dtype=np.uint8).reshape(10000, 3073)
            want = recs[:, 1:].reshape(10000, 3, 32, 32).astype(np.float64) / 255.0
            assert np.array_equal(train.images.array[i * 10000 : (i + 1) * 10000], want)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_cifar10(tmp_path)

    def test_truncated_record_names_exact_offset(self, tmp_path):
        write_fake_cifar(tmp_path)
        p = tmp_path / "data_batch_3.bin"
        p.write_bytes(p.read_bytes()[: 3073 * 17 + 100])
        with pytest.raises(DataError, match=rf"byte {3073 * 17}"):
            load_cifar10(tmp_path)

    def test_bad_label_names_offset(self, tmp_path):
        write_fake_cifar(tmp_path)
        p = tmp_path / "test_batch.bin"
        raw = bytearray(p.read_bytes())
        raw[3073 * 5] = 11
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=rf"label 11 at byte offset {3073 * 5}"):
            load_cifar10(tmp_path)

    def test_short_file_rejected(self, tmp_path):
        write_fake_cifar(tmp_path)
        p = tmp_path / "data_batch_5.bin"
        p.write_bytes(p.read_bytes()[: 3073 * 9999])
        with pytest.raises(DataError, match="expected 10000 records"):
            load_cifar10(tmp_path)


@pytest.mark.skipif(not REAL_CIFAR_DIR, reason="set CIFAR10_DIR to run against the real dataset")
class TestRealCifar:
    def test_channel_statistics(self):
        train, _ = load_cifar10(REAL_CIFAR_DIR)
        means = train.images.array.mean(axis=(0, 2, 3))
        assert abs(means[0] - 0.4914) <= 0.01
        assert abs(means[1] - 0.4822) <= 0.01
        assert abs(means[2] - 0.4465) <= 0.01


def synth_full_resolution(rng, n, classes):
    """``synth_task`` as first written, the reference for its 8x8 arithmetic:
    every term repeated to 32x32 before it is combined."""
    up = lambda a: a.repeat(4, axis=-2).repeat(4, axis=-1)
    templates = up(rng.normal((classes, 3, 8, 8), 1.0))
    labels = (np.arange(n) % classes)[rng.permutation(n)]
    noise = up(rng.normal((n, 3, 8, 8), 1.0))
    jitter = rng.normal((n, 1, 1, 1), 1.0)
    raw = 0.35 * templates[labels] + 0.12 * noise + 0.05 * jitter
    return np.clip(0.5 + raw, 0.0, 1.0), labels


class TestSynthTask:
    @pytest.mark.parametrize("seed, n, classes", [(5, 100, 2), (20240901, 96, 10), (3, 37, 7)])
    def test_matches_full_resolution_formula(self, seed, n, classes):
        ds = synth_task(Rng(seed), n, classes)
        images, labels = synth_full_resolution(Rng(seed), n, classes)
        assert ds.images.array.tobytes() == images.tobytes()
        assert np.array_equal(ds.labels, labels)

    def test_images_constant_on_4x4_blocks(self):
        blocks = synth_task(Rng(12), 50, 5).images.array.reshape(50, 3, 8, 4, 8, 4)
        assert (blocks == blocks[:, :, :, :1, :, :1]).all()

    def test_split_is_the_two_slices_as_read_only_views(self):
        ds = synth_task(Rng(8), 100, 5)
        train, val = split_dataset(ds, 30)
        full = ds.images.array
        assert np.array_equal(train.images.array, full[:70]) and np.array_equal(val.images.array, full[70:])
        assert np.array_equal(train.labels, ds.labels[:70]) and np.array_equal(val.labels, ds.labels[70:])
        for split in (train, val):
            assert np.shares_memory(split.images.array, full)
            with pytest.raises(ValueError):
                split.images.array[0, 0, 0, 0] = 0.5

    def test_build_and_split_peak_below_1_6_datasets(self):
        # neither the build's result nor the two splits are copied
        def build_and_split():
            ds = synth_task(Rng(8), 2432, 10)
            return ds, split_dataset(ds, 432)

        (ds, _), peak = traced_peak(build_and_split)
        assert peak < 1.6 * ds.images.array.nbytes

    def test_deterministic(self):
        a = synth_task(Rng(5), 100, 2)
        b = synth_task(Rng(5), 100, 2)
        assert np.array_equal(a.images.array, b.images.array)
        assert np.array_equal(a.labels, b.labels)

    def test_label_histogram_balanced(self):
        ds = synth_task(Rng(6), 103, 10)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_pixel_range(self):
        ds = synth_task(Rng(7), 64, 4)
        assert ds.images.array.min() >= 0.0
        assert ds.images.array.max() <= 1.0

    def test_split_disjoint_and_sized(self):
        ds = synth_task(Rng(8), 100, 5)
        train, val = split_dataset(ds, 30)
        assert train.size == 70 and val.size == 30
        # disjointness: samples come from non-overlapping index ranges
        assert not any(
            np.array_equal(train.images.array[i], val.images.array[0]) for i in range(train.size)
        )


class TestBatching:
    def test_replay_bit_identical(self):
        ds = synth_task(Rng(9), 200, 4)
        plan = BatchPlan(seed=3, batch_size=32, epoch=2)
        a = [(b.images.array.copy(), b.labels.copy()) for b in batches(ds, plan)]
        b = [(b.images.array.copy(), b.labels.copy()) for b in batches(ds, plan)]
        assert len(a) == len(b) == 6
        for (xa, la), (xb, lb) in zip(a, b):
            assert np.array_equal(xa, xb)
            assert np.array_equal(la, lb)

    def test_epochs_shuffle_differently(self):
        assert not np.array_equal(
            batch_order(BatchPlan(seed=3, batch_size=8, epoch=0), 64),
            batch_order(BatchPlan(seed=3, batch_size=8, epoch=1), 64),
        )

    def test_drop_last(self):
        ds = synth_task(Rng(10), 70, 2)
        assert len(list(batches(ds, BatchPlan(seed=0, batch_size=32)))) == 2


class TestAugment:
    def _batch(self, n=16):
        ds = synth_task(Rng(11), n, 4)
        return Batch(ds.images, ds.labels)

    def test_unknown_policy(self):
        # "none" and "basic+mixup" are refused like any other unknown name
        for policy in ("heavy", "none", "basic+mixup"):
            with pytest.raises(ConfigError, match=re.escape(f"unknown augment policy {policy!r}")):
                augment(self._batch(), Rng(0), policy)

    def test_batch_has_no_soft_targets(self):
        b = self._batch(4)
        assert augment(b, Rng(0)).targets is None
        with pytest.raises(TypeError):
            Batch(b.images, b.labels, np.ones((4, 4)) / 4)

    def test_flip_twice_restores(self):
        imgs = self._batch().images.array
        which = np.array([True, False] * 8)
        assert np.array_equal(flip_horizontal(flip_horizontal(imgs, which), which), imgs)

    def test_crop_zero_offset_pads(self):
        imgs = self._batch(4).images.array
        out = crop_with_pad(imgs, np.zeros((4, 2), dtype=int), pad=4)
        assert out.shape == imgs.shape
        assert not out[:, :, :4, :].any()

    def test_crop_center_offset_identity(self):
        imgs = self._batch(4).images.array
        out = crop_with_pad(imgs, np.full((4, 2), 4, dtype=int), pad=4)
        assert np.array_equal(out, imgs)

    def test_basic_preserves_range(self):
        out = augment(self._batch(64), Rng(1), "basic")
        assert out.images.array.min() >= 0.0
        assert out.images.array.max() <= 1.0
