import numpy as np
import pytest

from neonext.autodiff import (
    Grads,
    Param,
    Tape,
    Val,
    backward,
    fd_check,
)
from neonext.equiv import random_params
from neonext.errors import NumericError, ParameterError, UsageError
from neonext.model import ForwardCtx, LinearLayer, NeoCellLayer
from neonext.neocell import (
    GroupSpec,
    NeoCellParams,
    NeoCellSpec,
    forward_blockdiag,
    forward_patchwise,
)
from neonext.rng import Rng
from neonext.tensor import Matrix, Tensor4


def neocell_grads(x, spec, params, gout=None):
    """The model layer's tape gradients with the per-channel ``params`` as
    its weights, for the output gradient ``gout`` (by default the output,
    the gradient of 0.5*||y||^2): grad_x, then per-channel grad_left and
    grad_right lists."""
    layer = NeoCellLayer("cell", spec, None)
    for part, (pl, pr, _) in zip(layer.parts, layer.part_params):
        pl.array[...], pr.array[...] = params.stacked(part)
    tape = Tape()
    out = layer.forward(Param("x", x.array), tape, CTX)
    tape.record(Val(0.0), (out,), lambda g: (out.array if gout is None else gout.array,))
    grads = backward(tape)
    left = [g for pl, _, _ in layer.part_params for g in grads[pl.name]]
    right = [g for _, pr, _ in layer.part_params for g in grads[pr.name]]
    return grads["x"], left, right


def half_square(tape, v):
    """0.5 * sum(v**2), recorded on the tape when there is one."""
    a = v.array
    out = Val(0.5 * (a * a).sum())
    if tape is not None:
        tape.record(out, (v,), lambda g: (g * a,))
    return out


CTX = ForwardCtx("train")


class TestTape:
    def test_single_matmul_node_closed_form(self):
        rng = Rng(0)
        x = Param("x", rng.normal((3, 4), 1.0))
        lin = LinearLayer("lin", 4, 2, rng)
        tape = Tape()
        y = lin.forward(x, tape, CTX)
        half_square(tape, y)
        grads = backward(tape)
        g = y.array   # d(0.5 * sum(y**2)) / dy
        assert np.array_equal(grads["x"], g @ lin.weight.array)
        assert np.array_equal(grads["lin.weight"], g.T @ x.array)
        assert np.array_equal(grads["lin.bias"], g.sum(axis=0))

    def test_chain_of_two_nodes_matches_fd(self):
        rng = Rng(1)
        x = Param("x", rng.normal((2, 3), 1.0))
        first = LinearLayer("first", 3, 3, rng)
        second = LinearLayer("second", 3, 2, rng)
        for p in first.params() + second.params():
            p.array[...] = rng.normal(p.array.shape, 1.0)
        params = [x] + first.params() + second.params()

        def run(tape=None):
            # ``first`` runs twice, so its gradients accumulate over two nodes
            h = first.forward(first.forward(x, tape, CTX), tape, CTX)
            return half_square(tape, second.forward(h, tape, CTX))

        tape = Tape()
        run(tape)
        grads = backward(tape)
        report = fd_check(lambda: float(run().array), params, grads, eps=1e-6, threshold=1e-6)
        assert report.passed

    def test_zero_loss_gradient_gives_zero_grads(self):
        lin = LinearLayer("lin", 2, 2, Rng(2))
        tape = Tape()
        half_square(tape, lin.forward(Val(Rng(3).normal((2, 2), 1.0)), tape, CTX))
        grads = backward(tape, loss_grad=0.0)
        assert set(grads) == {"lin.weight", "lin.bias"}
        assert not any(g.any() for g in grads.values())

    def test_empty_tape_is_usage_error(self):
        with pytest.raises(UsageError):
            backward(Tape())

    def test_double_backward_is_usage_error(self):
        lin = LinearLayer("lin", 2, 2, Rng(4))
        tape = Tape()
        half_square(tape, lin.forward(Val(np.ones((2, 2))), tape, CTX))
        backward(tape)
        with pytest.raises(UsageError, match="consumed"):
            backward(tape)

    def test_unreached_param_gets_zeros(self):
        lin = LinearLayer("lin", 3, 2, Rng(5))
        b = Param("b", np.ones(3))
        tape = Tape()
        tape.watch(b)
        half_square(tape, lin.forward(Val(np.ones((1, 3))), tape, CTX))
        grads = backward(tape)
        assert not grads["b"].any()
        assert grads["lin.weight"].shape == (2, 3)
        assert grads["lin.weight"].any()

    def test_repeat_backward_bit_identical(self):
        rng = Rng(3)
        spec = NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4, shift=1),))
        params = random_params(spec, rng)
        x = Tensor4(rng.normal((2, 2, 8, 8), 1.0))
        first, second = neocell_grads(x, spec, params), neocell_grads(x, spec, params)
        assert np.array_equal(first[0], second[0])
        for c in range(2):
            assert np.array_equal(first[1][c], second[1][c])
            assert np.array_equal(first[2][c], second[2][c])


class TestNeocellBackward:
    def test_identity_params_pass_gradient_through(self):
        spec = NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4),))
        identity = NeoCellParams([Matrix(np.eye(4))] * 2, [Matrix(np.eye(4))] * 2)
        x = Tensor4(Rng(4).normal((1, 2, 8, 8), 1.0))
        gout = Tensor4(Rng(5).normal((1, 2, 8, 8), 1.0))
        gx, _, _ = neocell_grads(x, spec, identity, gout)
        assert np.array_equal(gx, gout.array)

    def test_scalar_case_chain_rule(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 1, 1, 1, 1),))
        l, xval, r, g = 1.7, -0.6, 2.3, 0.9
        params = NeoCellParams([Matrix([[l]])], [Matrix([[r]])])
        x = Tensor4(np.full((1, 1, 1, 1), xval))
        gout = Tensor4(np.full((1, 1, 1, 1), g))
        gx, gl, gr = neocell_grads(x, spec, params, gout)
        assert np.isclose(gx.item(), l * g * r, rtol=0, atol=1e-15)
        assert np.isclose(gl[0].item(), g * xval * r, rtol=0, atol=1e-15)
        assert np.isclose(gr[0].item(), l * xval * g, rtol=0, atol=1e-15)

    def test_random_mixed_config_matches_central_differences(self):
        spec = NeoCellSpec((GroupSpec(0, 1, 4, 4, 4, 4, shift=1), GroupSpec(1, 2, 7, 7, 7, 7, shift=1)))
        params = random_params(spec, Rng(6))
        x = Tensor4(Rng(7).normal((1, 2, 28, 28), 1.0))
        gx, gl, gr = neocell_grads(x, spec, params)
        eps = 1e-5

        def rel(a, fd):
            return abs(a - fd) / max(abs(a), abs(fd), 1e-5)

        def loss_with(p):
            return 0.5 * float((forward_patchwise(x, spec, p).array ** 2).sum())

        worst = 0.0
        probe = Rng(8)
        for c in range(2):
            for attr, grad in (("left", gl[c]), ("right", gr[c])):
                base = getattr(params, attr)[c].array
                flat_idx = int(probe.integers(1, base.size)[0])
                i, j = np.unravel_index(flat_idx, base.shape)
                for idx in {(0, 0), (int(i), int(j))}:
                    delta = np.zeros_like(base)
                    delta[idx] = eps
                    plus = [m for m in getattr(params, attr)]
                    minus = [m for m in getattr(params, attr)]
                    plus[c] = Matrix(base + delta)
                    minus[c] = Matrix(base - delta)
                    kw = {attr: plus}
                    p_plus = NeoCellParams(**{**_params_kw(params), **kw})
                    kw = {attr: minus}
                    p_minus = NeoCellParams(**{**_params_kw(params), **kw})
                    fd = (loss_with(p_plus) - loss_with(p_minus)) / (2 * eps)
                    worst = max(worst, rel(grad[idx], fd))
        # input gradient via perturbation of single pixels
        for idx in [(0, 0, 0, 0), (0, 1, 13, 27), (0, 0, 5, 5)]:
            delta = np.zeros(x.dims)
            delta[idx] = eps
            fd = (loss_with_x(x.array + delta, spec, params) - loss_with_x(x.array - delta, spec, params)) / (2 * eps)
            worst = max(worst, rel(gx[idx], fd))
        assert worst <= 1e-4

    def test_rectangular_resampling_matches_central_differences(self):
        # h != w and h_out != w_out on an H != W input: every weight entry and
        # every input pixel is probed, so a swapped axis shows up
        spec = NeoCellSpec((GroupSpec(0, 2, 2, 4, 3, 1),))
        params = random_params(spec, Rng(23))
        x = Tensor4(Rng(24).normal((2, 2, 4, 8), 1.0))
        gx, gl, gr = neocell_grads(x, spec, params)
        eps = 1e-5

        def rel(a, fd):
            return abs(a - fd) / max(abs(a), abs(fd), 1e-5)

        def loss_with(p):
            return 0.5 * float((forward_patchwise(x, spec, p).array ** 2).sum())

        worst = 0.0
        for attr, grad in (("left", gl), ("right", gr)):
            for c in range(2):
                base = getattr(params, attr)[c].array
                for idx in np.ndindex(base.shape):
                    losses = []
                    for sign in (1, -1):
                        mats = list(getattr(params, attr))
                        delta = np.zeros_like(base)
                        delta[idx] = sign * eps
                        mats[c] = Matrix(base + delta)
                        losses.append(loss_with(NeoCellParams(**{**_params_kw(params), attr: mats})))
                    fd = (losses[0] - losses[1]) / (2 * eps)
                    worst = max(worst, rel(grad[c][idx], fd))
        for idx in np.ndindex(x.dims):
            delta = np.zeros(x.dims)
            delta[idx] = eps
            fd = (loss_with_x(x.array + delta, spec, params) - loss_with_x(x.array - delta, spec, params)) / (2 * eps)
            worst = max(worst, rel(gx[idx], fd))
        assert worst <= 1e-4

    def test_blockdiag_and_patchwise_gradients_agree(self):
        spec = NeoCellSpec((GroupSpec(0, 2, 4, 4, 4, 4, shift=2),))
        params = random_params(spec, Rng(9))
        x = Tensor4(Rng(10).normal((1, 2, 8, 8), 1.0))
        y_ref = forward_patchwise(x, spec, params)
        y_blk = forward_blockdiag(x, spec, params)
        gx_ref, gl_ref, _ = neocell_grads(x, spec, params, y_ref)
        gx_blk, gl_blk, _ = neocell_grads(x, spec, params, y_blk)
        assert np.abs(gx_ref - gx_blk).max() <= 1e-9
        for c in range(2):
            assert np.abs(gl_ref[c] - gl_blk[c]).max() <= 1e-9


def _params_kw(params):
    return {"left": params.left, "right": params.right}


def loss_with_x(x_arr, spec, params):
    return 0.5 * float((forward_patchwise(Tensor4(x_arr), spec, params).array ** 2).sum())


class TestFdCheck:
    def test_quadratic_loss(self):
        p = Param("p", Rng(11).normal(8, 1.0))

        def f():
            return 0.5 * float((p.array**2).sum())

        grads = Grads({"p": p.array.copy()})
        report = fd_check(f, [p], grads, eps=1e-5, threshold=1e-9)
        assert report.passed
        assert report.max_rel_err <= 1e-9

    def test_linear_loss_near_exact(self):
        w = Rng(12).normal(6, 1.0)
        p = Param("p", Rng(13).normal(6, 1.0))

        def f():
            return float(w @ p.array)

        report = fd_check(f, [p], Grads({"p": w.copy()}), eps=1e-5, threshold=1e-10)
        assert report.passed

    def test_detects_wrong_gradient(self):
        p = Param("p", np.ones(3))

        def f():
            return float((p.array**2).sum())

        report = fd_check(f, [p], Grads({"p": np.ones(3)}), eps=1e-5, threshold=1e-4)
        assert not report.passed

    def test_non_finite_loss_raises_with_index(self):
        p = Param("p", np.zeros(2))

        def f():
            return float("inf") if p.array[1] != 0 else 0.0

        with pytest.raises(NumericError, match=r"p\[1\]"):
            fd_check(f, [p], Grads({"p": np.zeros(2)}), entries_per_param=None)

    def test_table_lists_every_parameter(self):
        a = Param("alpha", np.ones(2))
        b = Param("beta", np.ones(2))

        def f():
            return 0.5 * float((a.array**2).sum() + (b.array**2).sum())

        report = fd_check(f, [a, b], Grads({"alpha": a.array.copy(), "beta": b.array.copy()}))
        text = report.table()
        assert "alpha" in text and "beta" in text

    @pytest.mark.parametrize("kwargs", [{"eps": 0.0}, {"eps": -1e-5}, {"eps": float("nan")},
                                        {"entries_per_param": 0}, {"entries_per_param": -1},
                                        {"threshold": -1e-4}, {"threshold": float("nan")},
                                        {"threshold": float("inf")}])
    def test_bad_probe_settings_are_parameter_errors(self, kwargs):
        p = Param("p", np.ones(4))
        with pytest.raises(ParameterError, match=next(iter(kwargs))):
            fd_check(lambda: float(p.array.sum()), [p], Grads({"p": np.ones(4)}), **kwargs)
