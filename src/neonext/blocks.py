"""Building blocks around the patch operator: space-to-depth, pointwise
(1x1) channel mixing, batch normalization, and exact GELU.

Array-level kernels (_*_fwd/_*_bwd) carry the math and the gradients, and
they are the only implementation: the layers in ``model`` run them forward
and on the tape.

Layout contract: the kernels take (n, c, h, w) arrays in any memory order,
but they are built for channel-major ones, whose memory is that of a
C-contiguous (c, n, h, w) array.  Each channel's n*h*w values are then one
contiguous row: ``_channel_cols`` views them as a (c, n*h*w) matrix without
a copy, so a pointwise layer is one bare GEMM, and batchnorm's reductions
over (n, h, w) each sweep one row.  Pointwise results are channel-major
views of their GEMM output, and the elementwise kernels keep their input's
order.  Inside a model every activation after space-to-depth is
channel-major: ``_s2d_fwd`` makes the one layout copy, at the model's
entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

BN_EPS = 1e-8
BN_MOMENTUM = 0.1

_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------- rearrange

def _s2d_fwd(a: np.ndarray, p: int) -> np.ndarray:
    """Space-to-depth of ``a`` into a channel-major result (one copy)."""
    n, c, H, W = a.shape
    return (
        a.reshape(n, c, H // p, p, W // p, p)
        .transpose(1, 3, 5, 0, 2, 4)
        .reshape(c * p * p, n, H // p, W // p)
        .transpose(1, 0, 2, 3)
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
    """(n, c, h, w) -> (c, n*h*w) per-channel rows, the layout one big GEMM
    wants.

    A view of ``a`` when ``a`` is channel-major (see the module docstring),
    which every activation inside a model is; a copy otherwise.
    """
    n, c, h, w = a.shape
    return a.transpose(1, 0, 2, 3).reshape(c, n * h * w)


def _cols_to_nchw(cols: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """(c, n*h*w) rows -> channel-major (n, c, h, w) view of the same memory."""
    c = cols.shape[0]
    return cols.reshape(c, n, h, w).transpose(1, 0, 2, 3)


def _pw_fwd(a: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, c, h, w = a.shape
    out = W @ _channel_cols(a)
    out += b[:, None]
    return _cols_to_nchw(out, n, h, w)


def _pw_bwd(a: np.ndarray, W: np.ndarray, g: np.ndarray):
    n, c, h, w = a.shape
    g_cols = _channel_cols(g)
    gx = _cols_to_nchw(W.T @ g_cols, n, h, w)
    gw = g_cols @ _channel_cols(a).T
    return gx, gw, g_cols.sum(axis=1)


# ---------------------------------------------------------------- batchnorm

@dataclass
class BatchNormStats:
    """Running statistics; the variance convention is biased (population)."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "BatchNormStats":
        return cls(np.zeros(channels), np.ones(channels))

    def update(self, mu: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's statistics in with momentum ``BN_MOMENTUM``."""
        self.mean = (1 - BN_MOMENTUM) * self.mean + BN_MOMENTUM * mu
        self.var = (1 - BN_MOMENTUM) * self.var + BN_MOMENTUM * var


def _bn_train_fwd(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    mu = a.mean(axis=(0, 2, 3))
    xhat = a - mu[None, :, None, None]
    # a.var(axis=(0, 2, 3)), rounded the same way, without its own subtraction
    var = np.square(xhat).mean(axis=(0, 2, 3))
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= invstd[None, :, None, None]
    out = gamma[None, :, None, None] * xhat
    out += beta[None, :, None, None]
    return out, (xhat, invstd, mu, var)


def _bn_train_bwd(ctx, gamma: np.ndarray, g: np.ndarray):
    """gx = gamma*invstd * (g - mean(g) - xhat*mean(g*xhat)), per channel."""
    xhat, invstd, _, _ = ctx
    m = g.shape[0] * g.shape[2] * g.shape[3]
    gbeta = g.sum(axis=(0, 2, 3))
    ggamma = (g * xhat).sum(axis=(0, 2, 3))
    gx = xhat * (-ggamma / m)[None, :, None, None]
    gx += g
    gx -= (gbeta / m)[None, :, None, None]
    gx *= (gamma * invstd)[None, :, None, None]
    return gx, ggamma, gbeta


def _bn_eval_fwd(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray, stats: BatchNormStats):
    invstd = 1.0 / np.sqrt(stats.var + BN_EPS)
    scale = gamma * invstd
    shift = beta - stats.mean * scale
    out = a * scale[None, :, None, None]
    out += shift[None, :, None, None]
    return out, scale


def _bn_eval_bwd(a: np.ndarray, scale: np.ndarray, stats: BatchNormStats, g: np.ndarray):
    """Gradients of ``_bn_eval_fwd``, with the running stats held fixed."""
    invstd = 1.0 / np.sqrt(stats.var + BN_EPS)
    xhat = a - stats.mean[None, :, None, None]
    xhat *= invstd[None, :, None, None]
    ggamma = (g * xhat).sum(axis=(0, 2, 3))
    return g * scale[None, :, None, None], ggamma, g.sum(axis=(0, 2, 3))


# --------------------------------------------------------------------- gelu

def _gelu_cdf(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF Phi(a), in one ufunc pass."""
    return ndtr(a)


def _gelu_bwd(a: np.ndarray, g: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Gradient of a * Phi(a), given ``cdf`` = Phi(a) from the forward."""
    # g * (Phi(a) + a * phi(a)), built in one buffer
    d = np.square(a)
    d *= -0.5
    np.exp(d, out=d)
    d *= a
    d *= _INV_SQRT2PI
    d += cdf
    d *= g
    return d
