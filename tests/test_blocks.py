import math

import numpy as np
import pytest

from neonext.blocks import BatchNormStats, _channel_cols, _gelu_cdf, _pw_bwd, _pw_fwd
from neonext.autodiff import Param, Tape, Val, backward
from neonext.errors import ShapeError
from neonext.model import (
    BatchNormLayer,
    ForwardCtx,
    GeluLayer,
    GlobalPoolLayer,
    PointwiseLayer,
    SpaceToDepthLayer,
)
from neonext.rng import Rng

# Phi(1) from a standard normal table, independent of the erf in the code
PHI_1 = 0.8413447460685429


def run(layer, x, mode="eval", update_stats=False):
    """``layer``'s forward on the array ``x``, with no tape."""
    return layer.forward(Val(x), None, ForwardCtx(mode, update_stats=update_stats)).array


def depth_to_space(y, p):
    """Inverse of space-to-depth: the tape backward of ``SpaceToDepthLayer``
    applied to ``y``."""
    n, cpp, h, w = y.shape
    x = Param("x", np.zeros((n, cpp // (p * p), h * p, w * p)))
    tape = Tape()
    tape.watch(x)
    SpaceToDepthLayer(p).forward(x, tape, ForwardCtx())
    return backward(tape, y)["x"]


def pointwise(W, b=None):
    c_out, c_in = np.shape(W)
    layer = PointwiseLayer("pw", c_in, c_out, Rng(0))
    layer.weight.array[...] = W
    layer.bias.array[...] = 0.0 if b is None else b
    return layer


def batchnorm(channels, gamma=None, beta=None):
    layer = BatchNormLayer("bn", channels)
    if gamma is not None:
        layer.gamma.array[...] = gamma
    if beta is not None:
        layer.beta.array[...] = beta
    return layer


class TestSpaceToDepth:
    def test_p1_is_identity(self):
        x = Rng(0).normal((2, 3, 4, 4), 1.0)
        assert np.array_equal(run(SpaceToDepthLayer(1), x), x)

    def test_stem_shape(self):
        layer = SpaceToDepthLayer(4)
        assert run(layer, np.zeros((1, 3, 224, 224))).shape == (1, 48, 56, 56)
        assert layer.out_shape((1, 3, 224, 224)) == (1, 48, 56, 56)

    def test_ramp_enumeration(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2)
        y = run(SpaceToDepthLayer(2), x)
        assert y.shape == (1, 4, 1, 1)
        assert y.reshape(4).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_invertible(self):
        x = Rng(1).normal((2, 3, 8, 8), 1.0)
        assert np.array_equal(depth_to_space(run(SpaceToDepthLayer(4), x), 4), x)

    def test_divisibility_error(self):
        with pytest.raises(ShapeError):
            run(SpaceToDepthLayer(4), np.zeros((1, 1, 6, 6)))


class TestPointwise:
    def test_identity_weight(self):
        x = Rng(2).normal((2, 3, 4, 4), 1.0)
        assert np.array_equal(run(pointwise(np.eye(3)), x), x)

    def test_channel_sum(self):
        x = Rng(3).normal((1, 2, 3, 3), 1.0)
        y = run(pointwise([[1.0, 1.0]]), x)
        assert np.allclose(y[:, 0], x.sum(axis=1), rtol=0, atol=1e-15)

    def test_matches_per_pixel_loop(self):
        rng = Rng(4)
        x = rng.normal((2, 3, 5, 4), 1.0)
        W = rng.normal((6, 3), 1.0)
        b = rng.normal(6, 1.0)
        got = run(pointwise(W, b), x)
        want = np.zeros((2, 6, 5, 4))
        for n in range(2):
            for i in range(5):
                for j in range(4):
                    want[n, :, i, j] = W @ x[n, :, i, j] + b
        assert np.abs(got - want).max() <= 1e-12

    def test_channel_major_input_runs_without_layout_copies(self):
        rng = Rng(11)
        a = rng.normal((3, 2, 4, 5), 1.0).transpose(1, 0, 2, 3)   # (n, c, h, w) = (2, 3, 4, 5), channel-major
        cols = _channel_cols(a)
        assert np.shares_memory(cols, a)
        assert np.array_equal(cols, a.transpose(1, 0, 2, 3).reshape(3, 40))
        W, g = rng.normal((6, 3), 1.0), rng.normal((6, 2, 4, 5), 1.0).transpose(1, 0, 2, 3)
        y = _pw_fwd(a, W, np.zeros(6))
        gx, _, _ = _pw_bwd(a, W, g)
        for out in (y, gx):
            assert out.transpose(1, 0, 2, 3).flags.c_contiguous
        assert np.allclose(y, np.einsum("oc,nchw->nohw", W, a), rtol=0, atol=1e-14)

    def test_channel_mismatch(self):
        # the layer runs no channel check of its own: build_model wires
        # matching widths and Model.forward checks the input's channels
        with pytest.raises(ValueError):
            run(pointwise(np.eye(2)), np.zeros((1, 3, 2, 2)))


class TestBatchNorm:
    def test_eval_identity_up_to_eps(self):
        x = Rng(5).normal((2, 3, 4, 4), 1.0)
        y = run(batchnorm(3), x, mode="eval")
        assert np.abs(y - x).max() <= 1e-7

    def test_constant_channel_train_gives_zeros(self):
        y = run(batchnorm(2), np.full((4, 2, 3, 3), 7.25), mode="train")
        assert np.abs(y).max() == 0.0

    def test_train_output_statistics(self):
        x = Rng(6).normal((8, 3, 6, 6), 2.0) + 1.5
        y = run(batchnorm(3), x, mode="train")
        assert np.abs(y.mean(axis=(0, 2, 3))).max() <= 1e-10
        assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() <= 1e-6

    def test_running_stats_update(self):
        x = Rng(7).normal((8, 2, 4, 4), 1.0) + 3.0
        layer = batchnorm(2)
        run(layer, x, mode="train", update_stats=True)
        mu = x.mean(axis=(0, 2, 3))
        assert np.allclose(layer.stats.mean, 0.9 * 0.0 + 0.1 * mu, rtol=0, atol=1e-12)

    def test_layer_and_function_share_the_stats_update(self):
        x = Rng(8).normal((8, 2, 4, 4), 2.0) + 1.0
        layer = batchnorm(2)
        run(layer, x, mode="train", update_stats=True)
        want = BatchNormStats.fresh(2)
        want.update(x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3)))
        assert np.array_equal(layer.stats.mean, want.mean)
        assert np.array_equal(layer.stats.var, want.var)

    def test_eval_does_not_touch_stats(self):
        x = Rng(8).normal((2, 2, 4, 4), 1.0)
        layer = batchnorm(2)
        run(layer, x, mode="eval", update_stats=True)
        assert np.array_equal(layer.stats.mean, np.zeros(2))
        assert np.array_equal(layer.stats.var, np.ones(2))

    def test_affine_params(self):
        x = Rng(9).normal((4, 2, 3, 3), 1.0)
        beta = np.array([-1.0, 3.0])
        y = run(batchnorm(2, gamma=[2.0, 0.5], beta=beta), x, mode="train")
        assert np.allclose(y.mean(axis=(0, 2, 3)), beta, rtol=0, atol=1e-10)


class TestGelu:
    def test_zero(self):
        assert run(GeluLayer(), np.zeros((1, 1, 1, 1))).item() == 0.0

    def test_asymptote(self):
        y = run(GeluLayer(), np.full((1, 1, 1, 1), 10.0)).item()
        assert abs(y - 10.0) <= 1e-6

    def test_spot_value_against_table(self):
        y = run(GeluLayer(), np.full((1, 1, 1, 1), 1.0)).item()
        assert abs(y - PHI_1) <= 1e-4

    def test_cdf_matches_erf_form_on_a_grid(self):
        x = np.linspace(-10.0, 10.0, 2001)
        want = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        assert np.abs(_gelu_cdf(x) - want).max() <= 1e-15

    def test_odd_part(self):
        # x*Phi(x) + (-x)*Phi(-x) = x*(Phi(x) - Phi(-x)) checked numerically
        x = np.linspace(-4, 4, 101).reshape(1, 1, 1, -1)
        pos = run(GeluLayer(), x)
        neg = run(GeluLayer(), -x)
        assert np.abs(pos - (x + neg)).max() <= 1e-12


def test_global_avg_pool():
    x = Rng(10).normal((2, 3, 4, 5), 1.0)
    got = run(GlobalPoolLayer(), x)
    assert got.shape == (2, 3)
    assert np.allclose(got, x.mean(axis=(2, 3)), rtol=0, atol=0)
