import os
from pathlib import Path

import numpy as np
import pytest

from neonext.data import (
    AUGMENT_POLICIES,
    Batch,
    BatchPlan,
    CIFAR_TRAIN_FILES,
    CIFAR_TEST_FILE,
    apply_mixup,
    augment,
    batch_order,
    batches,
    crop_with_pad,
    draw_mixup_lambda,
    flip_horizontal,
    load_cifar10,
    split_dataset,
    synth_task,
)
from neonext.errors import ConfigError, DataError, ParameterError
from neonext.rng import Rng

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


@pytest.fixture(scope="session")
def fake_cifar_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cifar")
    write_fake_cifar(d)
    return d


class TestCifarLoader:
    def test_counts(self, fake_cifar_dir):
        train, test = load_cifar10(fake_cifar_dir)
        assert train.size == 50_000
        assert test.size == 10_000
        assert train.images.dims == (50_000, 3, 32, 32)

    def test_pixel_scaling_roundtrip(self, fake_cifar_dir):
        train, _ = load_cifar10(fake_cifar_dir)
        raw = np.fromfile(fake_cifar_dir / "data_batch_1.bin", dtype=np.uint8)
        rec0 = raw[:3073]
        assert train.labels[0] == rec0[0]
        want = rec0[1:].reshape(3, 32, 32).astype(np.float64) / 255.0
        assert np.array_equal(train.images.array[0], want)

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


class TestSynthTask:
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

    def test_policy_none_returns_batch_unchanged(self):
        b = self._batch()
        out = augment(b, Rng(0), "none")
        assert out is b

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown augment policy"):
            augment(self._batch(), Rng(0), "heavy")

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

    def test_mixup_lambda_one_is_identity(self):
        b = self._batch(8)
        perm = np.arange(8)[::-1].copy()
        out = apply_mixup(b, 1.0, perm, 4)
        assert np.array_equal(out.images.array, b.images.array)
        onehot = np.zeros((8, 4))
        onehot[np.arange(8), b.labels] = 1.0
        assert np.array_equal(out.targets, onehot)

    def test_mixup_targets_are_convex(self):
        out = augment(self._batch(32), Rng(2), "basic+mixup", classes=4)
        assert out.targets is not None
        assert np.allclose(out.targets.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert out.images.array.min() >= 0.0 and out.images.array.max() <= 1.0

    def test_mixup_lambda_in_unit_interval(self):
        rng = Rng(3)
        draws = [draw_mixup_lambda(rng, 0.8) for _ in range(200)]
        assert all(0.0 <= l <= 1.0 for l in draws)
        assert np.std(draws) > 0.1   # actually spread out

    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan")])
    def test_mixup_lambda_needs_positive_alpha(self, alpha):
        # Beta(0, 0) is undefined; alpha = 0 used to end in a ZeroDivisionError
        with pytest.raises(ParameterError, match="alpha must be > 0"):
            draw_mixup_lambda(Rng(3), alpha)

    def test_policies_frozen(self):
        assert AUGMENT_POLICIES == ("none", "basic", "basic+mixup")
