"""The patch-wise left/right matrix-multiplication operator and its
block-diagonal execution path.

A layer splits each channel plane into an (H/h) x (W/w) grid of h x w
patches and maps every patch X to ``L @ X @ R``, with no bias, where L is
(h_out x h) and R is (w x w_out).  Channels are organized into groups that
may differ in patch size, in resampling factors, and in a cyclic spatial
shift of the patch grid.

This module is the only one that knows the patch layout.  Consecutive groups
of equal patch geometry merge into one ``Part``, and one kernel pair,
``part_forward`` / ``part_backward``, computes every patch product and its
gradients.  One part loop, ``cell_forward`` / ``cell_backward``, runs that
kernel over the parts, on one stacked (L, R) pair per part:
``model.NeoCellLayer`` passes its ``Param`` arrays, ``forward_patchwise``
the per-channel ``NeoCellParams`` stacked per part.

The kernel never gathers patches: it runs two band GEMMs on views of
(n, c, H, W), L along H on (n, c, H/h, h, W) bands and then R along W on
(n, c, H/h*h_out*W/w, w) rows of each flattened plane, whose product is
already the output layout.  The views only need each (H, W) plane
contiguous, so the kernel runs on C-ordered arrays and on the channel-major
ones a model passes (see ``model``); where every channel holds one
contiguous (n, H, W) block, as in channel-major arrays, the products along
W take the n images of a channel as one GEMM.  L goes first, which is the
order ``MultCounter`` counts: h_out*h*w + h_out*w*w_out multiplies per patch.

The forward keeps what the backward needs.  Every part's L x goes into one
channel-major (n, c, H/h*h_out, W) workspace of the caller's
(``empty_channel_major``), so ``_fold`` always applies to it whatever x's
layout; ``cell_forward`` leaves it there and returns the W-wrap strips of
each shifted subgroup, and ``cell_backward`` takes both and consumes the
workspace in place, overwriting L x with G R^T.  A workspace therefore
serves one backward, as a tape does (``autodiff.backward`` refuses a
consumed tape).

Shifts never move activations.  A subgroup shifted by s reads the same
views from row s and from flat element s: every band along H except the one
that wraps round, and every chunk along W except those that run across a row
end.  The wrapping band (rows H-h+s.. and ..s) and the wrapping chunk
column are gathered, multiplied and written back to their places; the
forward keeps L x's wrapping chunk column as the subgroup's strip and zeroes
those columns in the workspace, where they would add the discarded chunks'
share to grad_R.  The GEMM
along W still computes the H - 1 wrapped chunk products of each plane in its
flat view and discards them (one more per plane where the images of a
channel are folded); ``MultCounter`` does not count them.  A
whole-plane part (H == h and W == w) has no band to offset: it runs
unshifted on L and R rolled by (s, s), which is the same conjugation,
and rolls the weight gradients back.  Patch weights are initialized in one
place, ``init_part``.

``forward_blockdiag`` is the independent reference: one product per channel
plane with block-diagonal factors A (left) and B (right), which
``blockdiag_factors`` places from a group's stacked weights.
Shifts rotate A and B cyclically along both axes, so the grid corners wrap
instead of zeroing; the kernel's offset views and wrap bands compute exactly
this operator.

Shifts are restricted to square non-resampling groups; combining a shift
with h != h_out has no defined output alignment.  Non-divisible spatial
sizes are a hard error; the operator defines no padding.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError
from .neoinit import neoinit_pattern
from .rng import Rng
from .tensor import Matrix, Tensor4


@dataclass(frozen=True)
class GroupSpec:
    """One contiguous channel range sharing patch geometry and shift."""

    start: int
    stop: int
    h: int
    w: int
    h_out: int
    w_out: int
    shift: int = 0

    def __post_init__(self):
        if self.start < 0 or self.stop <= self.start:
            raise ParameterError(f"group channels [{self.start}, {self.stop}) is empty or negative")
        for name in ("h", "w", "h_out", "w_out"):
            if getattr(self, name) < 1:
                raise ParameterError(f"group dim {name} must be >= 1, got {getattr(self, name)}")
        if self.shift < 0 or self.shift >= self.h or self.shift >= self.w:
            raise ParameterError(
                f"group shift {self.shift} must satisfy 0 <= shift < min(h={self.h}, w={self.w})"
            )
        if self.shift > 0 and (self.h_out != self.h or self.w_out != self.w):
            raise ParameterError(
                "shifts are only defined for square non-resampling groups "
                f"(h={self.h}->h_out={self.h_out}, w={self.w}->w_out={self.w_out}, shift={self.shift})"
            )

    @property
    def channels(self) -> range:
        return range(self.start, self.stop)

    @property
    def count(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class NeoCellSpec:
    """Ordered groups covering all channels exactly once.

    The operator has no bias: ``use_bias`` is kept for callers that name
    it, and only False is accepted."""

    groups: tuple[GroupSpec, ...]
    use_bias: bool = False

    def __post_init__(self):
        if self.use_bias:
            raise ParameterError("the patch operator has no bias; use_bias must be False")
        groups = tuple(self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ParameterError("NeoCellSpec needs at least one group")
        covered = []
        for g in groups:
            covered.append((g.start, g.stop))
        covered.sort()
        if covered[0][0] != 0:
            raise ParameterError(f"channel 0 not covered, first group starts at {covered[0][0]}")
        for (a0, a1), (b0, b1) in zip(covered, covered[1:]):
            if b0 != a1:
                raise ParameterError(f"channel ranges [{a0},{a1}) and [{b0},{b1}) overlap or leave a gap")

    @property
    def channel_count(self) -> int:
        return max(g.stop for g in self.groups)

    def validate_input(self, dims) -> None:
        """Check an (n, c, H, W) input's channel count, divisibility and
        output-size agreement."""
        if len(dims) != 4:
            raise ShapeError(f"expected (n, c, H, W), got {dims}")
        _, c, h_in, w_in = dims
        out_hw = None
        for idx, g in enumerate(self.groups):
            if h_in % g.h != 0:
                raise ShapeError(f"group {idx}: height {h_in} not divisible by patch h={g.h}")
            if w_in % g.w != 0:
                raise ShapeError(f"group {idx}: width {w_in} not divisible by patch w={g.w}")
            hw = (h_in // g.h * g.h_out, w_in // g.w * g.w_out)
            if out_hw is None:
                out_hw = hw
            elif hw != out_hw:
                raise ShapeError(
                    f"group {idx}: output size {hw} disagrees with {out_hw} from earlier groups"
                )
        if c != self.channel_count:
            raise ShapeError(f"input has {c} channels but spec covers {self.channel_count}")


def output_shape(spec: NeoCellSpec, in_dims):
    """Output (n, c, H', W') for an (n, c, H, W) input (pure shape arithmetic)."""
    spec.validate_input(in_dims)
    n, c, H, W = in_dims
    g = spec.groups[0]
    return (n, c, H // g.h * g.h_out, W // g.w * g.w_out)


class NeoCellParams:
    """Per-channel weights: left (h_out x h), right (w x w_out)."""

    def __init__(self, left: list[Matrix], right: list[Matrix]):
        self.left = list(left)
        self.right = list(right)
        if len(self.left) != len(self.right):
            raise ParameterError(
                f"left/right channel counts differ: {len(self.left)} vs {len(self.right)}"
            )

    def validate(self, spec: NeoCellSpec) -> None:
        if len(self.left) != spec.channel_count:
            raise ParameterError(
                f"params cover {len(self.left)} channels, spec needs {spec.channel_count}"
            )
        for idx, g in enumerate(spec.groups):
            for c in g.channels:
                L, R = self.left[c], self.right[c]
                if (L.rows, L.cols) != (g.h_out, g.h):
                    raise ParameterError(
                        f"group {idx} channel {c}: left is {L.rows}x{L.cols}, "
                        f"expected {g.h_out}x{g.h}"
                    )
                if (R.rows, R.cols) != (g.w, g.w_out):
                    raise ParameterError(
                        f"group {idx} channel {c}: right is {R.rows}x{R.cols}, "
                        f"expected {g.w}x{g.w_out}"
                    )

    def stacked(self, unit):
        """Weights of channels [unit.start, unit.stop) of a group or part, as
        stacked arrays (c, h_out, h), (c, w, w_out)."""
        s = slice(unit.start, unit.stop)
        L = np.stack([m.array for m in self.left[s]])
        R = np.stack([m.array for m in self.right[s]])
        return L, R


@dataclass(frozen=True)
class Part:
    """Contiguous run of groups sharing patch geometry, computed as one batch."""

    start: int
    stop: int
    h: int
    w: int
    h_out: int
    w_out: int
    shifts: tuple[tuple[int, int, int], ...]   # (offset-in-part, size, shift)

    @property
    def count(self) -> int:
        return self.stop - self.start


def merge_parts(spec: NeoCellSpec) -> list[Part]:
    """The spec's groups in channel order, runs of equal geometry merged."""
    ordered = sorted(spec.groups, key=lambda g: g.start)
    parts = []
    for geometry, run in itertools.groupby(ordered, key=lambda g: (g.h, g.w, g.h_out, g.w_out)):
        run = list(run)
        base = run[0].start
        shifts = tuple((g.start - base, g.count, g.shift) for g in run)
        parts.append(Part(base, run[-1].stop, *geometry, shifts))
    return parts


def init_part(part: Part, rng: Rng | None, init: str = "neoinit"):
    """Initial stacked (left, right) weights of one part.

    ``"neoinit"``: the identity / skewed-identity pattern plus Gaussian noise
    of std 1/sqrt(rows*cols), one draw per channel, all lefts of the part
    before all rights; ``rng=None`` gives the noise-free patterns.
    ``"random-normal"`` (the ablation baseline): left std 1/sqrt(h), right
    std 1/sqrt(w), one draw per side.
    """
    count = part.count
    if init == "neoinit":

        def draw(rows, cols):
            pattern = neoinit_pattern(rows, cols)
            if rng is None:
                return pattern
            return pattern + rng.normal((rows, cols), 1.0 / np.sqrt(rows * cols))

        left = np.stack([draw(part.h_out, part.h) for _ in range(count)])
        right = np.stack([draw(part.w, part.w_out) for _ in range(count)])
    elif init == "random-normal":
        left = rng.normal((count, part.h_out, part.h), 1.0 / np.sqrt(part.h))
        right = rng.normal((count, part.w, part.w_out), 1.0 / np.sqrt(part.w))
    else:
        raise ConfigError(f"unknown neocell init {init!r}")
    return left, right


class MultCounter:
    """Tally of scalar multiplications performed inside instrumented kernels."""

    def __init__(self):
        self.multiplies = 0

    def add(self, n: int):
        self.multiplies += int(n)


@functools.lru_cache(maxsize=256)
def _conjugation_index(shifts, shape, sign: int) -> np.ndarray:
    """Flat indices into a C-ordered (cp, r, q) stack that roll each
    subgroup's matrices by ``sign * shift`` on both axes."""
    cp, r, q = shape
    s = sign * np.repeat([s for _, _, s in shifts], [size for _, size, _ in shifts])[:, None]
    rows, cols = (np.arange(r) - s) % r, (np.arange(q) - s) % q
    index = (np.arange(cp)[:, None, None] * r + rows[:, :, None]) * q + cols[:, None, :]
    index.flags.writeable = False
    return index


def _conjugate(a: np.ndarray, shifts, sign: int) -> np.ndarray:
    """Stacked (cp, r, q) matrices, each shifted subgroup's rolled by
    ``sign * shift`` on both axes; ``a`` itself when no subgroup is shifted.

    Rolling a patch matrix by (s, s) conjugates the patch operator by a
    cyclic shift of s: whole-plane parts take their shifts this way."""
    if not any(s for _, _, s in shifts):
        return a
    return np.take(a, _conjugation_index(shifts, a.shape, sign))


def _runs(part_shifts, whole_plane: bool):
    """(start, stop, shift) channel runs computed as one batch each.

    Consecutive subgroups of equal shift merge.  A whole-plane part (one
    patch per plane) is one unshifted run: its shifts are conjugated into
    the weights instead."""
    if whole_plane:
        return [(0, sum(size for _, size, _ in part_shifts), 0)]
    runs = []
    for s, run in itertools.groupby(part_shifts, key=lambda t: t[2]):
        run = list(run)
        runs.append((run[0][0], run[-1][0] + run[-1][1], s))
    return runs


def _bands(a: np.ndarray, k: int, s: int) -> np.ndarray:
    """(n, c, H, W) viewed as (n, c, nb, k, W) bands of k rows from row s:
    all H/k bands when s == 0, the H/k - 1 that do not wrap otherwise."""
    n, c, H, W = a.shape
    nb = H // k - (s > 0)
    return a[:, :, s : s + nb * k].reshape(n, c, nb, k, W, copy=False)


def _chunks(a: np.ndarray, k: int, s: int) -> np.ndarray:
    """(n, c, H, W) viewed as (n, c, m, k) rows of k consecutive elements of
    each flattened plane, from element s: all H*W/k chunks when s == 0, else
    H*W/k - 1 of them.  With s > 0, each chunk that holds a row's wrapping
    patch runs on into the next row instead; the caller overwrites what
    those chunks produce."""
    n, c, H, W = a.shape
    m = H * W // k - (s > 0)
    return a.reshape(n, c, H * W, copy=False)[:, :, s : s + m * k].reshape(n, c, m, k, copy=False)


def _fold(*arrays):
    """(1, c, n*H, W) views of (n, c, H, W) arrays whose channels each hold
    one contiguous (n, H, W) block, as channel-major arrays do; the arrays
    themselves unless all of them do.  None entries pass through.  Folded,
    the products along W run one GEMM per channel instead of one per
    channel and image."""
    try:
        return [
            None if a is None else a.transpose(1, 0, 2, 3).reshape(1, a.shape[1], -1, a.shape[3], copy=False)
            for a in arrays
        ]
    except ValueError:
        return arrays


def empty_channel_major(x: np.ndarray, shape) -> np.ndarray:
    """An uninitialized (n, c, …) array of ``shape`` in x's dtype whose
    memory is that of a C-contiguous (c, n, …) array, so ``_fold`` always
    applies to it."""
    return np.empty((shape[1], shape[0], *shape[2:]), dtype=x.dtype).swapaxes(0, 1)


def _wrap(size: int, k: int, s: int, axis: int):
    """Index tuples of the wrapping patch's two pieces along ``axis``: its
    k - s leading entries at the end of the axis, its s trailing ones at the
    start."""
    pad = (slice(None),) * axis
    return pad + (slice(size - k + s, None),), pad + (slice(None, s),)


def _gather(a: np.ndarray, k: int, s: int, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """The patches that wrap along ``axis``, k entries wide, copied into
    ``out`` or a new C-ordered array."""
    tail, head = _wrap(a.shape[axis], k, s, axis)
    return np.concatenate((a[tail], a[head]), axis=axis, out=out)


def _scatter(dst: np.ndarray, band: np.ndarray, s: int, axis: int) -> None:
    """Inverse of ``_gather``: write ``band`` back to the wrapped places."""
    k = band.shape[axis]
    tail, head = _wrap(dst.shape[axis], k, s, axis)
    pad = (slice(None),) * axis
    dst[tail] = band[pad + (slice(None, k - s),)]
    dst[head] = band[pad + (slice(k - s, None),)]


def part_forward(
    x: np.ndarray,
    L: np.ndarray,
    R: np.ndarray,
    shifts,
    out: np.ndarray,
    lx: np.ndarray,
    counter: MultCounter | None = None,
) -> list:
    """The patch kernel for one part, in the dtype of its inputs.

    x is (n, cp, H, W); L is (cp, h_out, h); R is (cp, w, w_out);
    ``shifts`` is ``Part.shifts``.  Writes the (n, cp, H/h*h_out,
    W/w*w_out) result into ``out`` (a channel slice of a larger array is
    fine).  ``lx`` is a channel-major (n, cp, H/h*h_out, W)
    workspace that receives L x, left for ``part_backward``: its W-wrap
    columns zeroed, their values returned as one channel-major (n, cb,
    H/h*h_out, w) strip per run of cb shifted channels (None per unshifted
    run).

    Two band GEMMs on views, with no patch transpose: L acts along H on x
    viewed as (n, cp, H/h, h, W) bands, then R acts along W on that result
    viewed as (n, cp, H/h*h_out*W/w, w) rows, whose product is already laid
    out as the output.  A subgroup shifted by s reads the same views from
    row s and from flat element s; its one wrapping band along H and its
    wrapping chunk column along W are gathered, multiplied and scattered
    back.  A whole-plane part instead runs unshifted on weights rolled by
    (s, s).  L goes first, so each patch costs exactly the
    h_out*h*w + h_out*w*w_out multiplies that ``counter`` tallies.  It does
    not count the wrapped chunk products that a shifted subgroup computes
    and discards: H - 1 per plane, and one more per plane but the last
    where ``_fold`` stacks the images of a channel.
    """
    n, cp, H, W = x.shape
    h_out, h = L.shape[1:]
    w, w_out = R.shape[1:]
    nh, nw = H // h, W // w
    if counter is not None:
        counter.add(n * cp * nh * nw * (h_out * h * w + h_out * w * w_out))
    whole_plane = (nh, nw) == (1, 1)
    if whole_plane:
        L, R = _conjugate(L, shifts, +1), _conjugate(R, shifts, +1)
    strips = []
    for a, b, s in _runs(shifts, whole_plane):
        c = slice(a, b)
        xc, lc = x[:, c], lx[:, c]
        np.matmul(L[c][:, None], _bands(xc, h, s), out=_bands(lc, h_out, s))
        strip = None
        if s:
            _scatter(lc, np.matmul(L[c], _gather(xc, h, s, 2)), s, 2)
            strip = _gather(lc, w, s, 3, empty_channel_major(lc, (*lc.shape[:3], w)))
            # the wrapping chunks' products are discarded; zeroed, these
            # columns add nothing to the backward's grad_R
            for piece in _wrap(W, w, s, 3):
                lc[piece] = 0
        strips.append(strip)
        lf, of, sf = _fold(lc, out[:, c], strip)
        np.matmul(_chunks(lf, w, s), R[c], out=_chunks(of, w_out, s))
        if s:
            _scatter(of, np.matmul(sf, R[c]), s, 3)
    return strips


def part_backward(
    x: np.ndarray,
    L: np.ndarray,
    R: np.ndarray,
    shifts,
    gy: np.ndarray,
    out: np.ndarray,
    lx: np.ndarray,
    strips: list,
):
    """Gradients of ``part_forward`` for the output gradient ``gy``.

    ``lx`` and ``strips`` are what ``part_forward`` left: L x, with its
    W-wrap columns zeroed, and those columns' values.  Uses the forward's
    views of x and L x and the same views of G = ``gy``, with no patch
    transpose:

    - grad_R = sum over n of (L X)^T G on the (H/h*h_out*W/w, w) rows;
    - grad_L = sum over (n, H/h) bands of (G R^T) X^T, which equals
      G (X R)^T;
    - grad_x = L^T (G R^T), written into ``out`` (a channel slice of a
      larger array is fine).

    A shifted subgroup reads every view at offset s and handles its
    wrapping band and chunk column apart, as in the forward; the zeroed
    wrap columns of L X make the wrong chunks add nothing to grad_R, and
    the strip adds the wrapping chunks' share.  G R^T overwrites ``lx``
    once L X is used, so ``lx`` is consumed.  Whole-plane weight gradients
    are rolled back by (-s, -s).

    Returns (grad_L, grad_R).  Each weight gradient is reduced in one
    fixed order, so repeated backward passes on equal inputs are
    bit-identical.  Neither x nor gy is written to.
    """
    H, W = x.shape[2:]
    h_out, h = L.shape[1:]
    w, w_out = R.shape[1:]
    whole_plane = (H // h, W // w) == (1, 1)
    if whole_plane:
        L, R = _conjugate(L, shifts, +1), _conjugate(R, shifts, +1)
    grad_l, grad_r = np.empty_like(L), np.empty_like(R)
    # BLAS takes G R^T about 3x longer from a transposed view of R
    Rts = np.ascontiguousarray(R.swapaxes(-1, -2))
    for (a, b, s), strip in zip(_runs(shifts, whole_plane), strips):
        c = slice(a, b)
        xc, lc, oc = x[:, c], lx[:, c], out[:, c]
        Lc, Rt = L[c], Rts[c]
        lf, gf, lw = _fold(lc, gy[:, c], strip)
        lrows, grows = _chunks(lf, w, s), _chunks(gf, w_out, s)
        grad_r[c] = np.matmul(lrows.swapaxes(-1, -2), grows).sum(axis=0)
        np.matmul(grows, Rt, out=lrows)
        if s:
            gw = _gather(gf, w_out, s, 3)
            grad_r[c] += np.matmul(lw.swapaxes(-1, -2), gw).sum(axis=0)
            _scatter(lf, np.matmul(gw, Rt), s, 3)
        gbands = _bands(lc, h_out, s)
        grad_l[c] = np.matmul(gbands, _bands(xc, h, s).swapaxes(-1, -2)).sum(axis=(0, 2))
        np.matmul(Lc.swapaxes(-1, -2)[:, None], gbands, out=_bands(oc, h, s))
        if s:
            grw, xw = _gather(lc, h, s, 2), _gather(xc, h, s, 2)
            grad_l[c] += np.matmul(grw, xw.swapaxes(-1, -2)).sum(axis=0)
            _scatter(oc, np.matmul(Lc.swapaxes(-1, -2), grw), s, 2)
    if whole_plane:
        grad_l, grad_r = _conjugate(grad_l, shifts, -1), _conjugate(grad_r, shifts, -1)
    return grad_l, grad_r


def lx_shape(x_shape, out_shape) -> tuple:
    """The (n, c, H', W) shape of a layer's L x workspace, for an (n, c, H,
    W) input and its (n, c, H', W') output."""
    return (*out_shape[:3], x_shape[3])


def cell_forward(x: np.ndarray, parts, weights, out: np.ndarray, lx: np.ndarray, counter: MultCounter | None = None):
    """The part loop: ``part_forward`` on each part's channels of x.

    ``weights`` holds one stacked (L, R) pair per part.  Every element of
    the caller's (n, c, H', W') ``out`` is written.  Callers pass ``np.empty_like(x, shape=…)``, so channel-major inputs give
    channel-major outputs, or, in ``model.NeoCellLayer``, a recycled array
    of that layout.  ``lx`` is the caller's channel-major workspace of
    ``lx_shape`` (``empty_channel_major``): every part's L x is left there.
    Returns the W-wrap strips, one list per part, which ``cell_backward``
    takes with ``lx``.
    """
    strips = []
    for part, (L, R) in zip(parts, weights):
        s = slice(part.start, part.stop)
        strips.append(part_forward(x[:, s], L, R, part.shifts, out[:, s], lx[:, s], counter))
    return strips


def cell_backward(x: np.ndarray, parts, weights, gy: np.ndarray, gx: np.ndarray, lx: np.ndarray, strips):
    """Gradients of ``cell_forward`` for the output gradient ``gy``.

    ``lx`` and ``strips`` are what ``cell_forward`` on x and ``weights``
    left; the backward consumes ``lx``.  Writes grad_x into the caller's
    ``gx``, shaped and laid out like x (as ``cell_forward``'s ``out``), and
    returns (gx, grads) with one (grad_L, grad_R) pair per part, shaped
    like ``weights``.
    """
    grads = []
    for part, (L, R), part_strips in zip(parts, weights, strips):
        s = slice(part.start, part.stop)
        grads.append(part_backward(x[:, s], L, R, part.shifts, gy[:, s], gx[:, s], lx[:, s], part_strips))
    return gx, grads


def forward_patchwise(
    x: Tensor4,
    spec: NeoCellSpec,
    params: NeoCellParams,
    counter: MultCounter | None = None,
) -> Tensor4:
    """Reference execution: the part loop on per-channel weights."""
    out = np.empty_like(x.array, shape=output_shape(spec, x.dims))
    params.validate(spec)
    parts = merge_parts(spec)
    lx = empty_channel_major(x.array, lx_shape(x.dims, out.shape))
    cell_forward(x.array, parts, [params.stacked(p) for p in parts], out, lx, counter)
    return Tensor4(out)


def _block_diagonal(M: np.ndarray, n: int) -> np.ndarray:
    """Stacked (c, r, q) matrices as (c, n*r, n*q), each repeated n times
    along its diagonal."""
    c, r, q = M.shape
    out = np.zeros((c, n, r, n, q), dtype=M.dtype)
    i = np.arange(n)
    out[:, i, :, i] = M
    return out.reshape(c, n * r, n * q)


def blockdiag_factors(group: GroupSpec, L: np.ndarray, R: np.ndarray, H: int, W: int):
    """Block-diagonal factors of a group's stacked weights, in their dtype.

    L is (cg, h_out, h) and R is (cg, w, w_out); A is (cg, H/h*h_out, H)
    with each L repeated along its diagonal, B is (cg, W, W/w*w_out) with
    each R.  A positive shift rolls both by (shift, shift) on the last two
    axes, filling the corners with the wrapped parts of the boundary blocks.
    The caller has checked H, W and the weight shapes against ``group``.
    """
    A, B = _block_diagonal(L, H // group.h), _block_diagonal(R, W // group.w)
    if group.shift:
        s = group.shift
        A, B = np.roll(A, (s, s), axis=(-2, -1)), np.roll(B, (s, s), axis=(-2, -1))
    return A, B


def blockdiag_product(
    A: np.ndarray, X: np.ndarray, B: np.ndarray, counter: MultCounter | None = None
) -> np.ndarray:
    """(c, r, H) @ (n, c, H, W) @ (c, W, q) -> (n, c, r, q), in the inputs' dtype."""
    n, c, H, W = X.shape
    if counter is not None:
        counter.add(c * n * (A.shape[1] * H * W + A.shape[1] * W * B.shape[2]))
    return _stacked_product(_stacked_product(A[None], X), B[None])


def _stacked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., r, m) @ (..., m, q) -> (..., r, q), broadcast, accumulated in ascending k.

    Per output element this performs the rounded multiply/add sequence of
    the scalar loop ``for k: acc += a[i, k] * b[k, j]`` starting from 0.0,
    so it is bit-identical to that loop.
    """
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for k in range(a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def forward_blockdiag(
    x: Tensor4,
    spec: NeoCellSpec,
    params: NeoCellParams,
    counter: MultCounter | None = None,
) -> Tensor4:
    """Whole-plane execution via materialized block-diagonal factors.

    Both products accumulate in ascending k, so for unshifted groups every
    output element equals the scalar loop that forms each patch's L @ X and
    then (L @ X) @ R in ascending k, bit for bit (the zero blocks contribute
    exact no-op additions in between).
    """
    out = np.empty(output_shape(spec, x.dims), dtype=np.float64)
    params.validate(spec)
    H, W = x.dims[2:]
    for g in spec.groups:
        A, B = blockdiag_factors(g, *params.stacked(g), H, W)
        out[:, g.start : g.stop] = blockdiag_product(A, x.array[:, g.start : g.stop], B, counter)
    return Tensor4(out)
