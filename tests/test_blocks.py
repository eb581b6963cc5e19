import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from neonext.autodiff import Param, Tape, Val, backward, fd_check
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

    def test_row_interleaved_input_runs_without_layout_copies(self):
        rng = Rng(11)
        layer = pointwise(rng.normal((12, 12), 1.0))
        W = layer.weight.array

        def run_on_tape(order):
            """Output, input gradient and the traced peak bytes of forward and
            backward, for an input and an output gradient in ``order``."""
            # (n, c, h, w) views of (c, h, n, w) memory: row-interleaved
            x = rng.normal((12, 40, 2, 50), 1.0).transpose(2, 0, 1, 3)
            g = rng.normal((12, 40, 2, 50), 1.0).transpose(2, 0, 1, 3)
            if order == "C":
                x, g = np.ascontiguousarray(x), np.ascontiguousarray(g)
            tape = Tape()
            tracemalloc.start()
            try:
                y = layer.forward(Val(x), tape, ForwardCtx())
                fwd_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                gx, _, _ = tape.nodes[-1].backward_fn(g)
                bwd_peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            return x, g, y.array, gx, fwd_peak, bwd_peak

        x, g, y, gx, fwd_peak, bwd_peak = run_on_tape("row-interleaved")
        for out in (y, gx):
            assert out.transpose(1, 2, 0, 3).flags.c_contiguous
        assert np.allclose(y, np.einsum("oc,nchw->nohw", W, x), rtol=0, atol=1e-14)
        assert np.allclose(gx, np.einsum("oc,nohw->nchw", W, g), rtol=0, atol=1e-14)
        # each pass allocates its result and nothing of the input's size more
        assert fwd_peak < y.nbytes + x.nbytes // 2
        assert bwd_peak < gx.nbytes + g.nbytes // 2
        # the bounds see a layout copy: C-ordered arrays need one per pass
        x, g, y, gx, fwd_peak, bwd_peak = run_on_tape("C")
        assert fwd_peak >= y.nbytes + x.nbytes
        assert bwd_peak >= gx.nbytes + g.nbytes

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
        assert np.allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * mu, rtol=0, atol=1e-12)

    def test_stats_update_is_momentum_0_1_with_biased_variance(self):
        x = Rng(8).normal((8, 2, 4, 4), 2.0) + 1.0
        layer = batchnorm(2)
        run(layer, x, mode="train", update_stats=True)
        assert np.array_equal(layer.running_mean, 0.9 * np.zeros(2) + 0.1 * x.mean(axis=(0, 2, 3)))
        assert np.array_equal(layer.running_var, 0.9 * np.ones(2) + 0.1 * x.var(axis=(0, 2, 3)))

    def test_eval_does_not_touch_stats(self):
        x = Rng(8).normal((2, 2, 4, 4), 1.0)
        layer = batchnorm(2)
        run(layer, x, mode="eval", update_stats=True)
        assert np.array_equal(layer.running_mean, np.zeros(2))
        assert np.array_equal(layer.running_var, np.ones(2))

    def test_eval_mode_gradients_match_central_differences(self):
        rng = Rng(12)
        layer = batchnorm(3, gamma=1.0 + rng.normal(3, 0.3), beta=rng.normal(3, 0.5))
        layer.running_mean = rng.normal(3, 1.0)
        layer.running_var = 0.5 + rng.uniform(3)
        x = Param("x", rng.normal((2, 3, 4, 4), 1.0))
        probe = 0.5 + rng.uniform(96).reshape(2, 3, 4, 4)
        params = [x, layer.gamma, layer.beta]

        def loss(tape=None):
            """0.5 * sum((probe * bn(x))**2), with the running stats fixed."""
            out = layer.forward(x, tape, ForwardCtx("eval"))
            y = out.array
            value = Val(0.5 * ((probe * y) ** 2).sum())
            if tape is not None:
                tape.record(value, (out,), lambda g: (g * probe * probe * y,))
            return value

        tape = Tape()
        loss(tape)
        grads = backward(tape)
        assert set(grads) == {"x", "bn.gamma", "bn.beta"}
        report = fd_check(lambda: float(loss().array), params, grads, threshold=1e-4)
        assert report.passed, report.table()

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
        want = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        got = run(GeluLayer(), x.reshape(1, 1, 1, -1)).reshape(-1)
        assert (np.abs(got - want) <= 1e-15 * np.maximum(np.abs(x), 1.0)).all()

    def test_odd_part(self):
        # x*Phi(x) + (-x)*Phi(-x) = x*(Phi(x) - Phi(-x)) checked numerically
        x = np.linspace(-4, 4, 101).reshape(1, 1, 1, -1)
        pos = run(GeluLayer(), x)
        neg = run(GeluLayer(), -x)
        assert np.abs(pos - (x + neg)).max() <= 1e-12

    def test_untaped_forward_gives_the_taped_bytes(self):
        # with no tape the product is written into Phi's buffer, in place
        x = Rng(13).normal((3, 4, 5, 6), 2.0).transpose(2, 0, 1, 3)    # row-interleaved
        x.flags.writeable = False
        taped = GeluLayer().forward(Val(x), Tape(), ForwardCtx()).array
        untaped = run(GeluLayer(), x)
        assert untaped.tobytes() == taped.tobytes()
        assert untaped.strides == taped.strides

    def test_taped_forward_keeps_only_the_derivative(self):
        # the closure holds Phi(x) + x*phi(x) in one array, not x and Phi(x),
        # and its backward gives the bytes of the formula built in backward
        x = Rng(14).normal((3, 4, 5, 6), 2.0).transpose(2, 0, 1, 3)
        g = Rng(15).normal((3, 4, 5, 6), 1.0).transpose(2, 0, 1, 3)
        tape = Tape()
        GeluLayer().forward(Val(x), tape, ForwardCtx())
        back = tape.nodes[-1].backward_fn
        held = [cell.cell_contents for cell in back.__closure__]
        assert [type(a) for a in held] == [np.ndarray] and held[0].shape == x.shape
        want = np.square(x)
        want *= -0.5
        np.exp(want, out=want)
        want *= x
        want *= 1.0 / np.sqrt(2.0 * np.pi)
        want += ndtr(x)
        want *= g
        (got,) = back(g)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides


def test_global_avg_pool():
    x = Rng(10).normal((2, 3, 4, 5), 1.0)
    got = run(GlobalPoolLayer(), x)
    assert got.shape == (2, 3)
    assert np.allclose(got, x.mean(axis=(2, 3)), rtol=0, atol=0)
