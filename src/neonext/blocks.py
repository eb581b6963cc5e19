"""Building blocks around the patch operator: space-to-depth, pointwise
(1x1) channel mixing, batch normalization, and exact GELU.

Array-level kernels (_*_fwd/_*_bwd) carry the math and the gradients; the
public functions wrap them behind the Tensor4 carrier.  The model layers in
``model`` reuse the same kernels on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ParameterError, ShapeError
from .tensor import Matrix, Tensor4

BN_EPS = 1e-8
BN_MOMENTUM = 0.1

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------- rearrange

def space_to_depth(x: Tensor4, p: int) -> Tensor4:
    """(n, c, H, W) -> (n, c*p*p, H/p, W/p).

    Output channel c*p*p + pi*p + pj holds input pixel (i*p + pi, j*p + pj)
    of channel c; the rearrangement is exact and invertible.
    """
    if p < 1:
        raise ParameterError(f"space_to_depth: p must be >= 1, got {p}")
    n, c, H, W = x.dims
    if H % p or W % p:
        raise ShapeError(f"space_to_depth: {H}x{W} not divisible by p={p}")
    return Tensor4(_s2d_fwd(x.array, p))


def depth_to_space(x: Tensor4, p: int) -> Tensor4:
    """Inverse of ``space_to_depth``."""
    n, c, H, W = x.dims
    if c % (p * p):
        raise ShapeError(f"depth_to_space: {c} channels not divisible by p*p={p * p}")
    return Tensor4(_s2d_bwd(x.array, p))


def _s2d_fwd(a: np.ndarray, p: int) -> np.ndarray:
    n, c, H, W = a.shape
    return (
        a.reshape(n, c, H // p, p, W // p, p)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, c * p * p, H // p, W // p)
    )


def _s2d_bwd(a: np.ndarray, p: int) -> np.ndarray:
    n, cpp, h, w = a.shape
    c = cpp // (p * p)
    return (
        a.reshape(n, c, p, p, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c, h * p, w * p)
    )


# ---------------------------------------------------------------- pointwise

def _channel_cols(a: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (c, n*h*w) copy, the layout one big GEMM wants."""
    n, c, h, w = a.shape
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).reshape(c, n * h * w)


def _cols_to_nchw(cols: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    c = cols.shape[0]
    return np.ascontiguousarray(cols.reshape(c, n, h, w).transpose(1, 0, 2, 3))


def _pw_fwd(a: np.ndarray, W: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    n, c, h, w = a.shape
    out = W @ _channel_cols(a)
    if b is not None:
        out = out + b[:, None]
    return _cols_to_nchw(out, n, h, w)


def _pw_bwd(a: np.ndarray, W: np.ndarray, g: np.ndarray, with_bias: bool):
    n, c, h, w = a.shape
    g_cols = _channel_cols(g)
    a_cols = _channel_cols(a)
    gx = _cols_to_nchw(W.T @ g_cols, n, h, w)
    gw = g_cols @ a_cols.T
    gb = g_cols.sum(axis=1) if with_bias else None
    return gx, gw, gb


def pointwise_conv(x: Tensor4, weight: Matrix, bias=None) -> Tensor4:
    """Per-pixel linear map across channels (a 1x1 convolution)."""
    n, c, h, w = x.dims
    if weight.cols != c:
        raise ShapeError(
            f"pointwise_conv: weight is {weight.rows}x{weight.cols}, input has {c} channels"
        )
    b = None
    if bias is not None:
        b = np.asarray(bias, dtype=np.float64).reshape(-1)
        if b.size != weight.rows:
            raise ShapeError(f"pointwise_conv: bias has {b.size} entries, expected {weight.rows}")
    return Tensor4(_pw_fwd(x.array, weight.array, b))


# ---------------------------------------------------------------- batchnorm

@dataclass
class BatchNormStats:
    """Running statistics; the variance convention is biased (population)."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "BatchNormStats":
        return cls(np.zeros(channels), np.ones(channels))

    def copy(self) -> "BatchNormStats":
        return BatchNormStats(self.mean.copy(), self.var.copy())

    def update(self, mu: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's statistics in with momentum ``BN_MOMENTUM``."""
        self.mean = (1 - BN_MOMENTUM) * self.mean + BN_MOMENTUM * mu
        self.var = (1 - BN_MOMENTUM) * self.var + BN_MOMENTUM * var


def _bn_train_fwd(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    mu = a.mean(axis=(0, 2, 3))
    var = a.var(axis=(0, 2, 3))
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (a - mu[None, :, None, None]) * invstd[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out, (xhat, invstd, mu, var)


def _bn_train_bwd(ctx, gamma: np.ndarray, g: np.ndarray):
    xhat, invstd, _, _ = ctx
    m = g.shape[0] * g.shape[2] * g.shape[3]
    gxhat = g * gamma[None, :, None, None]
    sum_g = gxhat.sum(axis=(0, 2, 3))
    sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3))
    gx = (invstd[None, :, None, None] / m) * (
        m * gxhat - sum_g[None, :, None, None] - xhat * sum_gx[None, :, None, None]
    )
    ggamma = (g * xhat).sum(axis=(0, 2, 3))
    gbeta = g.sum(axis=(0, 2, 3))
    return gx, ggamma, gbeta


def _bn_eval_fwd(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray, stats: BatchNormStats):
    invstd = 1.0 / np.sqrt(stats.var + BN_EPS)
    scale = gamma * invstd
    shift = beta - stats.mean * scale
    return a * scale[None, :, None, None] + shift[None, :, None, None], scale


def batchnorm_forward(
    x: Tensor4,
    gamma,
    beta,
    running_stats: BatchNormStats,
    mode: str = "train",
    update_stats: bool = True,
) -> Tensor4:
    """Per-channel normalization.

    Train mode normalizes with batch statistics over (n, h, w) and, when
    ``update_stats``, folds them into the running stats with momentum
    ``BN_MOMENTUM``.  Eval mode applies the affine map derived from the
    running stats.  Zero-variance channels are tamed by ``BN_EPS``.
    """
    n, c, h, w = x.dims
    gamma = np.asarray(gamma, dtype=np.float64).reshape(-1)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if gamma.size != c or beta.size != c:
        raise ShapeError(f"batchnorm: gamma/beta sizes {gamma.size}/{beta.size}, expected {c}")
    if running_stats.mean.size != c:
        raise ShapeError(f"batchnorm: running stats cover {running_stats.mean.size} channels, expected {c}")
    if mode == "train":
        out, ctx = _bn_train_fwd(x.array, gamma, beta)
        if update_stats:
            _, _, mu, var = ctx
            running_stats.update(mu, var)
        return Tensor4(out)
    if mode == "eval":
        out, _ = _bn_eval_fwd(x.array, gamma, beta, running_stats)
        return Tensor4(out)
    raise ParameterError(f"batchnorm: mode must be 'train' or 'eval', got {mode!r}")


# --------------------------------------------------------------------- gelu

def _gelu_cdf(a: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(a * _INV_SQRT2))


def _gelu_fwd(a: np.ndarray) -> np.ndarray:
    return a * _gelu_cdf(a)


def _gelu_bwd(a: np.ndarray, g: np.ndarray, cdf: np.ndarray | None = None) -> np.ndarray:
    if cdf is None:
        cdf = _gelu_cdf(a)
    phi = np.exp(-0.5 * a * a) * _INV_SQRT2PI
    return g * (cdf + a * phi)


def gelu(x: Tensor4) -> Tensor4:
    """Elementwise x * Phi(x) with the exact Gaussian CDF."""
    return Tensor4(_gelu_fwd(x.array))


# ------------------------------------------------------------ pooling, etc.

def global_avg_pool(x: Tensor4) -> np.ndarray:
    """(n, c, h, w) -> (n, c) spatial mean."""
    return x.array.mean(axis=(2, 3))
