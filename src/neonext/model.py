"""Model assembly: stem, stages of patch-operator blocks, downsample units,
and the classifier head.

Architecture produced by ``build_model``:

- stem: space-to-depth (patch ``STEM_PATCH``) -> pointwise to the first
  stage width -> batchnorm;
- four stages of blocks, each block being
  NeoCell -> batchnorm -> pointwise expand -> GELU -> pointwise project
  -> drop-path -> residual add;
- between stages: NeoCell(h=2,h_out=1,w=2,w_out=1) -> BN -> GELU
  -> pointwise(C_i, C_{i+1}) -> BN -> GELU;
- head: global average pool -> linear classifier.

Group policy: stages 0-2 split the channels into two equal parts requesting
4x4 and 7x7 patch matrices, each part further split into k subgroups with
cyclic shifts 0..k-1 (remainder channels go to the earliest subgroups); the
last stage uses a single unshifted part requesting 7x7.  A part whose patch
covers the whole map is one unshifted group: a cyclic shift there would only
permute the rows and columns of L and R.  When a stage's map size is not
divisible by the requested size, the largest of {7, 4, 2, 1} that divides
the map is substituted and the substitution is recorded in the manifest.

``NeoCellLayer`` holds its patch weights as one stacked (left, right)
``Param`` pair per ``neocell.Part`` and runs ``neocell``'s one kernel pair,
``cell_forward`` and, on the tape, ``cell_backward`` on the arrays the
forward saved; ``neocell`` owns the patch layout and decides which arrays
a call needs.

Activation layout: layers take (n, c, h, w) arrays in any memory order,
but they are built for row-interleaved ones, whose memory is that of a
C-contiguous (c, h, n, w) array: each channel holds row 0 of every image,
then row 1, and so on.  Space-to-depth makes the one layout copy, at the
model's entry, and every later layer keeps that order up to the global
pool.  Each channel's n*h*w values are then one contiguous row:
``_channel_cols`` views them as a (c, h*n*w) matrix without a copy, so a
pointwise layer is one bare GEMM, whose result ``_cols_to_nchw`` views as
row-interleaved again, and batchnorm's reductions over (n, h, w) each sweep
one row.  NeoCell's kernel views the n images of a channel's band of rows
as one block (``neocell._fold``), so its products along H run one GEMM per
channel and band, not one per image.  The other layers allocate their
outputs and input gradients in their input's memory order.
``NeoCellLayer`` passes its kernel an allocator of that order too
(``_empty``), which, when the input is large, hands out its previous
call's arrays again once nothing else references them: the output, L x,
the W-wrap strips, and the backward's G R^T scratches or input gradient.
The layer copies an output gradient of another layout into its output's
(which no model step needs).  A tape holds the forward's saved arrays
until its backward consumes them.

Batchnorm normalizes with batch statistics in train mode and with its
``running_mean``/``running_var`` in eval mode.  A train-mode forward with
``update_stats`` folds the batch's mean and biased (population) variance
into them with momentum ``BN_MOMENTUM``.

Initialization: patch matrices via ``neocell.init_part`` (the
identity/skewed-identity scheme with Gaussian noise, "neoinit", or, for the
ablation baseline, random normal with std 1/sqrt(h) (left) and 1/sqrt(w)
(right)); pointwise and classifier weights are N(0, 2/fan_in); biases zero;
batchnorm gamma 1, beta 0.

Checkpoints are three files: ``manifest.txt`` (``Model.manifest``),
``index.txt`` (one ``name<TAB>shape`` line per parameter, then each
batchnorm's running mean and var) and ``params/values.t4`` (every entry's
values in index order, as one tensor file).  ``load_checkpoint`` accepts
only the files ``save_checkpoint`` would write for the model it is given.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .autodiff import Param, Tape, Val
from .errors import ConfigError, ParameterError, ShapeError
from .neocell import (
    LARGE_INPUT_BYTES,
    GroupSpec,
    NeoCellSpec,
    cell_backward,
    cell_forward,
    init_part,
    merge_parts,
    output_shape,
)
from .parallel import cpu_pieces, run_pieces
from .rng import Rng
from .tensor import Tensor4, read_tensor, write_tensor

SIZE_FALLBACKS = (7, 4, 2, 1)
IN_CHANNELS = 3   # RGB
STEM_PATCH = 4
EXPANSION = 4     # a block's pointwise expand widens C to EXPANSION * C
STAGE_POLICIES = ("mixed-shift", "mixed-shift", "mixed-shift", "single-7")
BN_EPS = 1e-8
BN_MOMENTUM = 0.1
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Elements per block of GeluLayer's loop; one block's slices of x, the output
# and the derivative (768 KiB) fit a core's L2.  On a 2-vCPU Xeon (2 MiB L2
# per core), split over both vCPUs, blocks pay off once the arrays outgrow
# the cache: against the same split run unblocked, 2**15 blocks took 0.88x
# (taped) and 0.96x on 9.6M elements, 0.94x and 0.98x on 2.4M (16
# alternating rounds each), and the paper-shape step (`paper_step.py
# --model neonext-t --size 224 --batch 2 --steps 3`) took 1,588-1,679 ms
# against 1,722-1,761 ms in 3 of 3 alternating pairs.  At the micro model's
# shapes they change nothing: eval and train ops took 0.998-1.015x over 70
# alternating rounds.  Blocks of 2**14 to 2**17 timed within 2% of each other.
GELU_BLOCK = 1 << 15
# Fewest elements GeluLayer hands one thread.  On that Xeon a fresh thread
# costs 0.12 ms to start and join.  Split in two, an array of 2**14
# elements took 1.1-1.2x one thread's time, 2**15 0.8-0.9x, 2**16 0.65-0.7x
# (untaped and taped, medians of 200 calls).
GELU_MIN_PIECE = 1 << 14


@dataclass(frozen=True)
class ModelSpec:
    name: str
    depths: tuple[int, int, int, int]
    widths: tuple[int, int, int, int]
    classes: int = 1000
    drop_path_rate: float = 0.0

    def __post_init__(self):
        if len(self.depths) != 4 or len(self.widths) != 4:
            raise ConfigError("ModelSpec needs 4 stage depths and 4 stage widths")
        if any(d < 1 for d in self.depths):
            raise ConfigError(f"stage depths must be positive, got {self.depths}")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"stage widths must be positive, got {self.widths}")
        if any(b < a for a, b in zip(self.widths, self.widths[1:])):
            raise ConfigError(f"stage widths must be non-decreasing, got {self.widths}")
        if not (0.0 <= self.drop_path_rate < 1.0):
            raise ConfigError(f"drop-path rate must be in [0, 1), got {self.drop_path_rate}")


@dataclass(frozen=True)
class BlockSpec:
    channels: int
    neocell: NeoCellSpec
    drop_path: float

    def __post_init__(self):
        if not (0.0 <= self.drop_path < 1.0):
            raise ParameterError(f"drop-path rate must be in [0, 1), got {self.drop_path}")


MODEL_SPECS = {
    "neonext-micro": ModelSpec("neonext-micro", (1, 1, 2, 1), (24, 48, 96, 192), drop_path_rate=0.05),
    "neonext-t": ModelSpec("neonext-t", (3, 3, 9, 3), (96, 192, 384, 768), drop_path_rate=0.1),
    "neonext-s": ModelSpec("neonext-s", (3, 3, 27, 3), (96, 192, 384, 768), drop_path_rate=0.4),
    "neonext-b": ModelSpec("neonext-b", (3, 3, 27, 3), (128, 256, 512, 1024), drop_path_rate=0.5),
}


def named_spec(name: str, classes: int | None = None, drop_path_rate: float | None = None) -> ModelSpec:
    if name not in MODEL_SPECS:
        raise ConfigError(f"unknown model spec {name!r}; known: {sorted(MODEL_SPECS)}")
    base = MODEL_SPECS[name]
    kwargs = {}
    if classes is not None:
        kwargs["classes"] = classes
    if drop_path_rate is not None:
        kwargs["drop_path_rate"] = drop_path_rate
    if not kwargs:
        return base
    return replace(base, **kwargs)


# ----------------------------------------------------------- group building

def _effective_size(requested: int, map_size: int) -> int:
    if map_size % requested == 0:
        return requested
    for k in SIZE_FALLBACKS:
        if map_size % k == 0:
            return k
    return 1


def make_stage_groups(channels: int, map_size: int, policy: str):
    """Group layout for one stage; returns (NeoCellSpec groups, notes)."""
    notes: list[str] = []
    if policy == "mixed-shift":
        if channels % 2:
            raise ConfigError(f"mixed policy needs an even channel count, got {channels}")
        parts = [(channels // 2, 4, True), (channels - channels // 2, 7, True)]
    elif policy == "single-7":
        parts = [(channels, 7, False)]
    else:
        raise ConfigError(f"unknown stage group policy {policy!r}")
    groups: list[GroupSpec] = []
    base_ch = 0
    for part_channels, requested, shifted in parts:
        k = _effective_size(requested, map_size)
        if k != requested:
            notes.append(f"requested {requested}x{requested} at map {map_size} -> using {k}x{k}")
        shifted = shifted and k < map_size   # a whole-plane patch has no border to shift
        n_sub = k if shifted else 1
        sizes = [part_channels // n_sub] * n_sub
        for i in range(part_channels % n_sub):
            sizes[i] += 1
        for shift, size in enumerate(sizes):
            if size == 0:
                continue
            groups.append(
                GroupSpec(base_ch, base_ch + size, k, k, k, k, shift=shift if shifted else 0)
            )
            base_ch += size
    return tuple(groups), notes


# ------------------------------------------------------------------- layers

def _record(tape: Tape | None, out: Val, ins, back):
    if tape is not None:
        tape.record(out, ins, back)


def _channel_cols(a: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (c, h*n*w) per-channel rows: a view of a
    row-interleaved ``a``, a copy otherwise."""
    n, c, h, w = a.shape
    return a.transpose(1, 2, 0, 3).reshape(c, h * n * w)


def _cols_to_nchw(cols: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """(c, h*n*w) rows -> row-interleaved (n, c, h, w) view of the same memory."""
    c = cols.shape[0]
    return cols.reshape(c, h, n, w).transpose(2, 0, 1, 3)


@dataclass
class ForwardCtx:
    mode: str = "eval"
    rng: Rng | None = None
    update_stats: bool = False


class NeoCellLayer:
    def __init__(self, name: str, spec: NeoCellSpec, rng: Rng | None, init: str = "neoinit"):
        self.name = name
        self.spec = spec
        self.parts = merge_parts(spec)
        # (left, right, None): the third slot stays for perfbench's unpacking
        self.part_params: list[tuple[Param, Param, None]] = []
        for pi, part in enumerate(self.parts):
            left, right = init_part(part, rng, init)
            pl = Param(f"{name}.p{pi}.left", left, "neocell_left")
            pr = Param(f"{name}.p{pi}.right", right, "neocell_right")
            self.part_params.append((pl, pr, None))
        self._kept = {}    # (phase, request) -> (key, array) of the last call

    def params(self):
        return [p for pl, pr, _ in self.part_params for p in (pl, pr)]

    def out_shape(self, dims):
        return output_shape(self.spec, dims)

    def _empty(self, x: np.ndarray, phase: str):
        """The allocator for one kernel call: its i-th request for an
        uninitialized ``shape`` array in x's dtype and memory order gets
        slot (phase, i)'s last one when its key matches and nothing else
        references it, else a fresh one, kept if x has LARGE_INPUT_BYTES.

        "Nothing else" is read from CPython's reference count (the kept
        tuple and ``getrefcount``'s argument make 2).  A numpy view holds
        its base, so an array that a tape, a ``Val``, a view or a caller
        still reaches is never written again.
        """
        slots = itertools.count()

        def empty(shape):
            slot = (phase, next(slots))
            key = (shape, x.dtype, x.strides)
            kept = self._kept.pop(slot, None)
            if kept is None or kept[0] != key or sys.getrefcount(kept[1]) != 2:
                kept = (key, np.empty_like(x, shape=shape))
            if x.nbytes >= LARGE_INPUT_BYTES:
                self._kept[slot] = kept
            return kept[1]

        return empty

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        x = v.array
        self.spec.validate_input(x.shape)
        weights = [(pl.array, pr.array) for pl, pr, _ in self.part_params]
        out, saved = cell_forward(x, self.parts, weights, empty=self._empty(x, "forward"))
        ov = Val(out)
        strides = out.strides

        def back(gout):
            if gout.strides != strides:
                # the kernel's views need gout in out's layout; a model step
                # never differs, a probe gradient from outside may
                g, gout = gout, np.empty_like(x, shape=gout.shape)
                gout[...] = g
            # consumes saved's L x; a tape runs its backward once
            gx, grads = cell_backward(x, self.parts, weights, gout, saved, self._empty(x, "backward"))
            return [gx] + [g for pair in grads for g in pair]

        _record(tape, ov, (v, *self.params()), back)
        return ov


class BatchNormLayer:
    """Batch normalization over (n, h, w) with per-channel gamma and beta."""

    def __init__(self, name: str, channels: int):
        self.name = name
        self.gamma = Param(f"{name}.gamma", np.ones(channels), "bn_gamma")
        self.beta = Param(f"{name}.beta", np.zeros(channels), "bn_beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def params(self):
        return [self.gamma, self.beta]

    def out_shape(self, dims):
        return dims

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        x, gamma = v.array, self.gamma.array
        if ctx.mode == "train":
            mu = x.mean(axis=(0, 2, 3))
            xhat = x - mu[None, :, None, None]
            # x.var(axis=(0, 2, 3)), rounded the same way, without its own subtraction
            var = np.square(xhat).mean(axis=(0, 2, 3))
            invstd = 1.0 / np.sqrt(var + BN_EPS)
            xhat *= invstd[None, :, None, None]
            out = gamma[None, :, None, None] * xhat
            out += self.beta.array[None, :, None, None]
            if ctx.update_stats:
                self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu
                self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var

            def back(g):
                # gx = gamma*invstd * (g - mean(g) - xhat*mean(g*xhat)), per channel
                m = g.shape[0] * g.shape[2] * g.shape[3]
                gbeta = g.sum(axis=(0, 2, 3))
                ggamma = (g * xhat).sum(axis=(0, 2, 3))
                gx = xhat * (-ggamma / m)[None, :, None, None]
                gx += g
                gx -= (gbeta / m)[None, :, None, None]
                gx *= (gamma * invstd)[None, :, None, None]
                return gx, ggamma, gbeta

        else:
            mean = self.running_mean
            invstd = 1.0 / np.sqrt(self.running_var + BN_EPS)
            scale = gamma * invstd
            out = x * scale[None, :, None, None]
            out += (self.beta.array - mean * scale)[None, :, None, None]

            def back(g):
                # the running stats are constants here
                xhat = x - mean[None, :, None, None]
                xhat *= invstd[None, :, None, None]
                return g * scale[None, :, None, None], (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

        ov = Val(out)
        _record(tape, ov, (v, self.gamma, self.beta), back)
        return ov


class PointwiseLayer:
    def __init__(self, name: str, c_in: int, c_out: int, rng: Rng):
        self.name = name
        w = rng.normal((c_out, c_in), np.sqrt(2.0 / c_in))
        self.weight = Param(f"{name}.weight", w, "pointwise")
        self.bias = Param(f"{name}.bias", np.zeros(c_out), "bias")

    def params(self):
        return [self.weight, self.bias]

    def out_shape(self, dims):
        n, c, h, w = dims
        return (n, self.weight.array.shape[0], h, w)

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        x, W = v.array, self.weight.array
        n, c, h, w = x.shape
        out = W @ _channel_cols(x)
        out += self.bias.array[:, None]
        ov = Val(_cols_to_nchw(out, n, h, w))

        def back(g):
            g_cols = _channel_cols(g)
            gx = _cols_to_nchw(W.T @ g_cols, n, h, w)
            return gx, g_cols @ _channel_cols(x).T, g_cols.sum(axis=1)

        _record(tape, ov, (v, self.weight, self.bias), back)
        return ov


class GeluLayer:
    """Exact GELU, x * Phi(x) with Phi the standard normal CDF.

    The forward cuts flat views of x and of its output, both in x's memory
    order, into contiguous pieces: one per CPU this process may run on, at
    most ``parallel.MAX_PIECES``, none of fewer than ``GELU_MIN_PIECE``
    elements, run by ``parallel.run_pieces``.  Each piece runs in
    ``GELU_BLOCK``-element blocks.  A block writes
    Phi(x) into its output slice and multiplies that slice by x in place, so
    no temporary is made.  On a tape each block also builds the derivative
    Phi(x) + x * phi(x) in one buffer, from the output slice while it still
    holds Phi(x), and the tape keeps only that buffer: the backward
    multiplies it by the output gradient.  Every element goes through the
    same operations whatever the split, so the bits are the same at any CPU
    count."""

    name = "gelu"

    def params(self):
        return []

    def out_shape(self, dims):
        return dims

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        x = v.array
        out = np.empty_like(x)
        d = None if tape is None else np.empty_like(x)
        xf, of = x.ravel("K"), out.ravel("K")      # of views out; xf copies an x with gaps
        df = None if d is None else d.ravel("K")

        size = xf.size
        pieces = max(1, min(cpu_pieces(), size // GELU_MIN_PIECE))

        def blocks(i):
            stop = size * (i + 1) // pieces
            for lo in range(size * i // pieces, stop, GELU_BLOCK):
                hi = min(lo + GELU_BLOCK, stop)
                xs, cdf = xf[lo:hi], of[lo:hi]
                ndtr(xs, out=cdf)
                if df is not None:
                    ds = df[lo:hi]
                    np.square(xs, out=ds)
                    ds *= -0.5
                    np.exp(ds, out=ds)
                    ds *= xs
                    ds *= _INV_SQRT2PI
                    ds += cdf
                np.multiply(xs, cdf, out=cdf)

        run_pieces(blocks, pieces)
        ov = Val(out)

        def back(g):
            return (d * g,)

        _record(tape, ov, (v,), back)
        return ov


class SpaceToDepthLayer:
    def __init__(self, p: int):
        self.name = f"space_to_depth(p={p})"
        self.p = p

    def params(self):
        return []

    def out_shape(self, dims):
        n, c, h, w = dims
        if h % self.p or w % self.p:
            raise ShapeError(f"stem: {h}x{w} not divisible by patch {self.p}")
        return (n, c * self.p * self.p, h // self.p, w // self.p)

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        p = self.p
        n, c, H, W = v.array.shape
        _, cpp, h, w = self.out_shape((n, c, H, W))   # ShapeError on an indivisible input
        # the model's one layout copy, into row-interleaved order
        a = v.array.reshape(n, c, h, p, w, p).transpose(1, 3, 5, 2, 0, 4).reshape(cpp, h, n, w)
        ov = Val(a.transpose(2, 0, 1, 3))

        def back(g):
            return (g.reshape(n, c, p, p, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, c, H, W),)

        _record(tape, ov, (v,), back)
        return ov


class Block:
    """Residual block: NeoCell -> BN -> expand -> GELU -> project (+skip)."""

    def __init__(self, name: str, spec: BlockSpec, rng: Rng, init: str):
        C = spec.channels
        self.name = name
        self.spec = spec
        self.neocell = NeoCellLayer(f"{name}.neocell", spec.neocell, rng, init)
        self.norm = BatchNormLayer(f"{name}.norm", C)
        self.expand = PointwiseLayer(f"{name}.expand", C, EXPANSION * C, rng)
        self.gelu = GeluLayer()
        self.project = PointwiseLayer(f"{name}.project", EXPANSION * C, C, rng)

    def params(self):
        return (
            self.neocell.params()
            + self.norm.params()
            + self.expand.params()
            + self.gelu.params()
            + self.project.params()
        )

    def out_shape(self, dims):
        return dims

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        h = self.neocell.forward(v, tape, ctx)
        h = self.norm.forward(h, tape, ctx)
        h = self.expand.forward(h, tape, ctx)
        h = self.gelu.forward(h, tape, ctx)
        h = self.project.forward(h, tape, ctx)
        rate = self.spec.drop_path
        if ctx.mode == "train" and rate > 0.0:
            if ctx.rng is None:
                raise ParameterError(f"{self.name}: drop-path needs a ForwardCtx rng in train mode")
            n = h.array.shape[0]
            keep = (ctx.rng.uniform(n) >= rate).astype(np.float64) / (1.0 - rate)
            hv = Val(h.array * keep[:, None, None, None])
            _record(tape, hv, (h,), lambda g: (g * keep[:, None, None, None],))
            h = hv
        out = Val(v.array + h.array)
        _record(tape, out, (v, h), lambda g: (g, g))
        return out


class GlobalPoolLayer:
    name = "global_avg_pool"

    def params(self):
        return []

    def out_shape(self, dims):
        n, c, h, w = dims
        return (n, c)

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        n, c, h, w = v.array.shape
        ov = Val(v.array.mean(axis=(2, 3)))

        def back(g):
            gx = np.empty_like(v.array)   # in the input's memory order
            gx[...] = (g / (h * w))[:, :, None, None]
            return (gx,)

        _record(tape, ov, (v,), back)
        return ov


class LinearLayer:
    def __init__(self, name: str, c_in: int, c_out: int, rng: Rng):
        self.name = name
        self.weight = Param(f"{name}.weight", rng.normal((c_out, c_in), np.sqrt(2.0 / c_in)), "linear")
        self.bias = Param(f"{name}.bias", np.zeros(c_out), "bias")

    def params(self):
        return [self.weight, self.bias]

    def out_shape(self, dims):
        return (dims[0], self.weight.array.shape[0])

    def forward(self, v: Val, tape: Tape | None, ctx: ForwardCtx) -> Val:
        x, W = v.array, self.weight.array
        ov = Val(x @ W.T + self.bias.array[None])
        _record(tape, ov, (v, self.weight, self.bias), lambda g: (g @ W, g.T @ x, g.sum(axis=0)))
        return ov


# -------------------------------------------------------------------- model

class Model:
    def __init__(self, spec: ModelSpec, input_size: int, layers, manifest_lines):
        self.spec = spec
        self.input_size = input_size
        self.layers = layers
        self._manifest_lines = manifest_lines

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def param_count(self) -> int:
        return sum(p.array.size for p in self.params())

    def bn_layers(self):
        out = []
        for layer in self.layers:
            if isinstance(layer, BatchNormLayer):
                out.append(layer)
            elif isinstance(layer, Block):
                out.append(layer.norm)
        return out

    def forward(self, x: Tensor4, ctx: ForwardCtx, tape: Tape | None = None) -> Val:
        if x.dims[1] != IN_CHANNELS:
            raise ShapeError(f"model expects {IN_CHANNELS} input channels, got {x.dims}")
        if x.dims[2] != self.input_size or x.dims[3] != self.input_size:
            raise ShapeError(
                f"model built for {self.input_size}x{self.input_size} inputs, got {x.dims}"
            )
        v = Val(x.array)
        if tape is not None:
            tape.watch(*self.params())
        for layer in self.layers:
            v = layer.forward(v, tape, ctx)
        return v

    def logits(self, x: Tensor4) -> np.ndarray:
        return self.forward(x, ForwardCtx()).array

    def shape_chain(self):
        dims = (1, IN_CHANNELS, self.input_size, self.input_size)
        chain = [("input", dims)]
        for layer in self.layers:
            dims = layer.out_shape(dims)
            chain.append((layer.name, dims))
        return chain

    def manifest(self) -> str:
        lines = list(self._manifest_lines)
        lines.append("per-layer parameters:")
        for layer in self.layers:
            n = sum(p.array.size for p in layer.params())
            if n:
                lines.append(f"  {layer.name}: {n}")
        lines.append(f"total parameters: {self.param_count()}")
        return "\n".join(lines) + "\n"


def softmax_cross_entropy(tape: Tape | None, logits: Val, targets: np.ndarray) -> Val:
    """Mean cross-entropy against target distributions (rows sum to 1)."""
    z = logits.array
    if targets.shape != z.shape:
        raise ShapeError(f"targets shape {targets.shape} does not match logits {z.shape}")
    zmax = z.max(axis=1, keepdims=True)
    zs = z - zmax
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    n = z.shape[0]
    loss = Val(-(targets * logp).sum() / n)
    _record(tape, loss, (logits,), lambda g: (np.asarray(g) * (np.exp(logp) - targets) / n,))
    return loss


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((labels.size, classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def smooth_targets(targets: np.ndarray, smoothing: float) -> np.ndarray:
    k = targets.shape[1]
    return (1.0 - smoothing) * targets + smoothing / k


# ------------------------------------------------------------------ builder

def build_model(spec: ModelSpec, input_size: int, rng: Rng, init: str = "neoinit") -> Model:
    """Assemble a model for square inputs of ``input_size``.

    Raises at build time, naming the stage, when a spatial size is not
    divisible as required.
    """
    if input_size % STEM_PATCH:
        raise ShapeError(f"input {input_size} not divisible by stem patch {STEM_PATCH}")
    manifest = [f"model {spec.name} input {input_size}x{input_size} classes {spec.classes}"]
    layers: list = []
    layers.append(SpaceToDepthLayer(STEM_PATCH))
    stem_ch = IN_CHANNELS * STEM_PATCH * STEM_PATCH
    layers.append(PointwiseLayer("stem.pointwise", stem_ch, spec.widths[0], rng))
    layers.append(BatchNormLayer("stem.norm", spec.widths[0]))
    map_size = input_size // STEM_PATCH
    manifest.append(f"stem: space_to_depth p={STEM_PATCH} -> {stem_ch} ch -> pointwise {spec.widths[0]} -> norm; map {map_size}")
    for si in range(4):
        C = spec.widths[si]
        groups, notes = make_stage_groups(C, map_size, STAGE_POLICIES[si])
        for note in notes:
            manifest.append(f"stage{si}: {note}")
        cell_spec = NeoCellSpec(groups)
        cell_spec.validate_input((1, C, map_size, map_size))
        gdesc = ", ".join(
            f"[{g.start}:{g.stop}) {g.h}x{g.w} shift {g.shift}" for g in groups
        )
        manifest.append(f"stage{si}: map {map_size}, {spec.depths[si]} blocks, groups: {gdesc}")
        for bi in range(spec.depths[si]):
            bspec = BlockSpec(C, cell_spec, spec.drop_path_rate)
            layers.append(Block(f"stage{si}.block{bi}", bspec, rng, init))
        if si < 3:
            if map_size % 2:
                raise ShapeError(f"stage{si}: map {map_size} not even, cannot downsample")
            down_groups = (GroupSpec(0, C, 2, 2, 1, 1, shift=0),)
            down_spec = NeoCellSpec(down_groups)
            layers.append(NeoCellLayer(f"down{si}.neocell", down_spec, rng, init))
            layers.append(BatchNormLayer(f"down{si}.norm1", C))
            layers.append(GeluLayer())
            layers.append(PointwiseLayer(f"down{si}.pointwise", C, spec.widths[si + 1], rng))
            layers.append(BatchNormLayer(f"down{si}.norm2", spec.widths[si + 1]))
            layers.append(GeluLayer())
            manifest.append(f"down{si}: neocell 2->1, pointwise {C}->{spec.widths[si + 1]}")
            map_size //= 2
    layers.append(GlobalPoolLayer())
    layers.append(LinearLayer("head", spec.widths[3], spec.classes, rng))
    model = Model(spec, input_size, layers, manifest)
    expected = analytic_param_count(spec, input_size)
    actual = model.param_count()
    if expected != actual:
        raise ParameterError(f"parameter accounting drifted: formula {expected}, allocated {actual}")
    return model


def analytic_param_count(spec: ModelSpec, input_size: int) -> int:
    """Closed-form parameter count; asserted against actual allocation.

    Per block at width C with group sizes k_g over c_g channels:
    sum_g 2*c_g*k_g^2 (patch matrices) + 2C (norm) + (e*C^2 + e*C) (expand)
    + (e*C^2 + C) (project).  Downsample C->C': 4C + 2C + CC' + C' + 2C'.
    Stem: 48*C0 + C0 + 2*C0.  Head: C3*classes + classes.
    """
    stem_ch = IN_CHANNELS * STEM_PATCH * STEM_PATCH
    total = stem_ch * spec.widths[0] + spec.widths[0] + 2 * spec.widths[0]
    map_size = input_size // STEM_PATCH
    for si in range(4):
        C = spec.widths[si]
        groups, _ = make_stage_groups(C, map_size, STAGE_POLICIES[si])
        cell = sum(2 * g.count * g.h * g.h for g in groups)
        e = EXPANSION
        block = cell + 2 * C + (e * C * C + e * C) + (e * C * C + C)
        total += spec.depths[si] * block
        if si < 3:
            Cn = spec.widths[si + 1]
            total += 4 * C + 2 * C + C * Cn + Cn + 2 * Cn
            map_size //= 2
    total += spec.widths[3] * spec.classes + spec.classes
    return total


# ------------------------------------------------------------- checkpoints

VALUES_FILE = "params/values.t4"


def _checkpoint_entries(model: Model):
    """(name, array) of every value a checkpoint holds, in index order."""
    entries = [(p.name, p.array) for p in model.params()]
    for bn in model.bn_layers():
        entries += [(f"{bn.name}.running_mean", bn.running_mean), (f"{bn.name}.running_var", bn.running_var)]
    return entries


def _index(entries) -> str:
    return "".join(f"{name}\t{','.join(map(str, a.shape))}\n" for name, a in entries)


def save_checkpoint(model: Model, directory: str | Path) -> None:
    d = Path(directory)
    (d / "params").mkdir(parents=True, exist_ok=True)
    entries = _checkpoint_entries(model)
    (d / "manifest.txt").write_text(model.manifest())
    (d / "index.txt").write_text(_index(entries))
    write_tensor(d / VALUES_FILE, np.concatenate([a.ravel() for _, a in entries]))


def load_checkpoint(model: Model, directory: str | Path) -> None:
    """Load what ``save_checkpoint`` wrote into ``model``.

    ``manifest.txt`` and ``index.txt`` must equal, line for line, what
    ``save_checkpoint`` writes for ``model``, and ``params/values.t4`` must
    hold exactly the values the index lists.  Otherwise ``ConfigError``
    names the file and its first differing line, its value count, or why
    it cannot be read, and the model is left untouched.
    """
    d = Path(directory)
    entries = _checkpoint_entries(model)
    for path, want in ((d / "manifest.txt", model.manifest()), (d / "index.txt", _index(entries))):
        try:
            got = path.read_text()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"checkpoint file {path} cannot be read: {err}") from err
        for i, (a, b) in enumerate(zip_longest(got.splitlines(), want.splitlines()), 1):
            if a != b:
                raise ConfigError(f"checkpoint file {path} line {i} reads {a!r}, the model's reads {b!r}")
    path = d / VALUES_FILE
    try:
        values = read_tensor(path).ravel()
    except (OSError, ShapeError) as err:
        raise ConfigError(f"checkpoint file {path} cannot be read: {err}") from err
    total = sum(a.size for _, a in entries)
    if values.size != total:
        raise ConfigError(f"checkpoint file {path} holds {values.size} values, the model has {total}")
    start = 0
    for _, target in entries:
        target[...] = values[start : start + target.size].reshape(target.shape)
        start += target.size
