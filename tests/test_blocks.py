import math

import numpy as np
import pytest

from neonext.blocks import (
    BatchNormStats,
    _channel_cols,
    _gelu_cdf,
    _pw_bwd,
    _pw_fwd,
    batchnorm_forward,
    depth_to_space,
    gelu,
    global_avg_pool,
    pointwise_conv,
    space_to_depth,
)
from neonext.autodiff import Val
from neonext.errors import ShapeError
from neonext.model import BatchNormLayer, ForwardCtx
from neonext.rng import Rng
from neonext.tensor import Matrix, Tensor4

# Phi(1) from a standard normal table, independent of the erf in the code
PHI_1 = 0.8413447460685429


class TestSpaceToDepth:
    def test_p1_is_identity(self):
        x = Tensor4(Rng(0).normal((2, 3, 4, 4), 1.0))
        assert np.array_equal(space_to_depth(x, 1).array, x.array)

    def test_stem_shape(self):
        x = Tensor4(np.zeros((1, 3, 224, 224)))
        assert space_to_depth(x, 4).dims == (1, 48, 56, 56)

    def test_ramp_enumeration(self):
        x = Tensor4(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        y = space_to_depth(x, 2)
        assert y.dims == (1, 4, 1, 1)
        assert y.array.reshape(4).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_invertible(self):
        x = Tensor4(Rng(1).normal((2, 3, 8, 8), 1.0))
        assert np.array_equal(depth_to_space(space_to_depth(x, 4), 4).array, x.array)

    def test_divisibility_error(self):
        with pytest.raises(ShapeError):
            space_to_depth(Tensor4(np.zeros((1, 1, 6, 6))), 4)


class TestPointwise:
    def test_identity_weight(self):
        x = Tensor4(Rng(2).normal((2, 3, 4, 4), 1.0))
        y = pointwise_conv(x, Matrix(np.eye(3)))
        assert np.array_equal(y.array, x.array)

    def test_channel_sum(self):
        x = Tensor4(Rng(3).normal((1, 2, 3, 3), 1.0))
        y = pointwise_conv(x, Matrix([[1.0, 1.0]]))
        assert np.allclose(y.array[:, 0], x.array.sum(axis=1), rtol=0, atol=1e-15)

    def test_matches_per_pixel_loop(self):
        rng = Rng(4)
        x = Tensor4(rng.normal((2, 3, 5, 4), 1.0))
        W = rng.normal((6, 3), 1.0)
        b = rng.normal(6, 1.0)
        got = pointwise_conv(x, Matrix(W), b).array
        want = np.zeros((2, 6, 5, 4))
        for n in range(2):
            for i in range(5):
                for j in range(4):
                    want[n, :, i, j] = W @ x.array[n, :, i, j] + b
        assert np.abs(got - want).max() <= 1e-12

    def test_channel_major_input_runs_without_layout_copies(self):
        rng = Rng(11)
        a = rng.normal((3, 2, 4, 5), 1.0).transpose(1, 0, 2, 3)   # (n, c, h, w) = (2, 3, 4, 5), channel-major
        cols = _channel_cols(a)
        assert np.shares_memory(cols, a)
        assert np.array_equal(cols, a.transpose(1, 0, 2, 3).reshape(3, 40))
        W, g = rng.normal((6, 3), 1.0), rng.normal((6, 2, 4, 5), 1.0).transpose(1, 0, 2, 3)
        y = _pw_fwd(a, W, np.zeros(6))
        gx, _, _ = _pw_bwd(a, W, g, True)
        for out in (y, gx):
            assert out.transpose(1, 0, 2, 3).flags.c_contiguous
        assert np.allclose(y, np.einsum("oc,nchw->nohw", W, a), rtol=0, atol=1e-14)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            pointwise_conv(Tensor4(np.zeros((1, 3, 2, 2))), Matrix(np.eye(2)))


class TestBatchNorm:
    def test_eval_identity_up_to_eps(self):
        x = Tensor4(Rng(5).normal((2, 3, 4, 4), 1.0))
        stats = BatchNormStats.fresh(3)
        y = batchnorm_forward(x, np.ones(3), np.zeros(3), stats, mode="eval")
        assert np.abs(y.array - x.array).max() <= 1e-7

    def test_constant_channel_train_gives_zeros(self):
        x = Tensor4(np.full((4, 2, 3, 3), 7.25))
        stats = BatchNormStats.fresh(2)
        y = batchnorm_forward(x, np.ones(2), np.zeros(2), stats, mode="train")
        assert np.abs(y.array).max() == 0.0

    def test_train_output_statistics(self):
        x = Tensor4(Rng(6).normal((8, 3, 6, 6), 2.0) + 1.5)
        stats = BatchNormStats.fresh(3)
        y = batchnorm_forward(x, np.ones(3), np.zeros(3), stats, mode="train").array
        assert np.abs(y.mean(axis=(0, 2, 3))).max() <= 1e-10
        assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() <= 1e-6

    def test_running_stats_update(self):
        x = Tensor4(Rng(7).normal((8, 2, 4, 4), 1.0) + 3.0)
        stats = BatchNormStats.fresh(2)
        batchnorm_forward(x, np.ones(2), np.zeros(2), stats, mode="train")
        mu = x.array.mean(axis=(0, 2, 3))
        assert np.allclose(stats.mean, 0.9 * 0.0 + 0.1 * mu, rtol=0, atol=1e-12)

    def test_layer_and_function_share_the_stats_update(self):
        x = Rng(8).normal((8, 2, 4, 4), 2.0) + 1.0
        layer = BatchNormLayer("bn", 2)
        layer.forward(Val(x), None, ForwardCtx("train", update_stats=True))
        stats = BatchNormStats.fresh(2)
        batchnorm_forward(Tensor4(x), np.ones(2), np.zeros(2), stats, mode="train")
        want = BatchNormStats.fresh(2)
        want.update(x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3)))
        for got in (layer.stats, stats):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.var, want.var)

    def test_eval_does_not_touch_stats(self):
        x = Tensor4(Rng(8).normal((2, 2, 4, 4), 1.0))
        stats = BatchNormStats.fresh(2)
        before = stats.copy()
        batchnorm_forward(x, np.ones(2), np.zeros(2), stats, mode="eval")
        assert np.array_equal(stats.mean, before.mean)

    def test_affine_params(self):
        x = Tensor4(Rng(9).normal((4, 2, 3, 3), 1.0))
        stats = BatchNormStats.fresh(2)
        gamma, beta = np.array([2.0, 0.5]), np.array([-1.0, 3.0])
        y = batchnorm_forward(x, gamma, beta, stats, mode="train").array
        assert np.allclose(y.mean(axis=(0, 2, 3)), beta, rtol=0, atol=1e-10)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor4(np.zeros((1, 1, 1, 1)))).array.item() == 0.0

    def test_asymptote(self):
        y = gelu(Tensor4(np.full((1, 1, 1, 1), 10.0))).array.item()
        assert abs(y - 10.0) <= 1e-6

    def test_spot_value_against_table(self):
        y = gelu(Tensor4(np.full((1, 1, 1, 1), 1.0))).array.item()
        assert abs(y - PHI_1) <= 1e-4

    def test_cdf_matches_erf_form_on_a_grid(self):
        x = np.linspace(-10.0, 10.0, 2001)
        want = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        assert np.abs(_gelu_cdf(x) - want).max() <= 1e-15

    def test_odd_part(self):
        # x*Phi(x) + (-x)*Phi(-x) = x*(Phi(x) - Phi(-x)) checked numerically
        x = np.linspace(-4, 4, 101).reshape(1, 1, 1, -1)
        pos = gelu(Tensor4(x)).array
        neg = gelu(Tensor4(-x)).array
        assert np.abs(pos - (x + neg)).max() <= 1e-12


def test_global_avg_pool():
    x = Tensor4(Rng(10).normal((2, 3, 4, 5), 1.0))
    got = global_avg_pool(x)
    assert got.shape == (2, 3)
    assert np.allclose(got, x.array.mean(axis=(2, 3)), rtol=0, atol=0)
