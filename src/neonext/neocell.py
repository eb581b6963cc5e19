"""The patch-wise left/right matrix-multiplication operator and its
block-diagonal execution path.

A layer splits each channel plane into an (H/h) x (W/w) grid of h x w
patches and maps every patch X to ``L @ X @ R``, with no bias, where L is
(h_out x h) and R is (w x w_out).  Channels are organized into groups that
may differ in patch size, in resampling factors, and in a cyclic spatial
shift of the patch grid.

This module is the only one that knows the patch layout.  Consecutive groups
of equal patch geometry merge into one ``Part``, and one kernel pair,
``cell_forward`` / ``cell_backward``, computes every patch product and its
gradients: one loop over the parts, each with one stacked (L, R) pair
(``model.NeoCellLayer`` passes its ``Param`` arrays, ``forward_patchwise``
the per-channel ``NeoCellParams`` stacked per part), and within a part one
batch per run of equal shift.

The kernel never gathers patches: it runs two band GEMMs on views of
(n, c, H, W), L along H on (n, c, H/h, h, W) bands and then R along W on
(n, c, H/h*h_out*W/w, w) rows of each flattened plane, whose product is
already the output layout.  These per-plane views only need each (H, W)
plane contiguous, so the kernel runs on C-ordered and channel-major arrays
alike.  Its fast layout is the row-interleaved one a model passes (see
``model``), whose memory is that of a C-contiguous (c, H, n, W) array:
``_fold`` views each channel's n images there as one (H, n*W) block, so L
runs one GEMM per (channel, band) with N = n*W, and as one flat run of H*n
rows, so R runs one GEMM per channel.  Arrays passed to one call share
their layout, or all keep each plane contiguous.  L goes first, which is
the order ``MultCounter`` counts: h_out*h*w + h_out*w*w_out multiplies per
patch.

The forward keeps what the backward needs, and the kernel alone decides
which arrays that takes.  Beside the output, ``cell_forward`` returns one
(n, c, H/h*h_out, W) workspace holding every part's L x and one W-wrap
strip per shifted run; ``cell_backward`` consumes the workspace: each run
reads its L x for grad_R, then its place takes the run's grad_x where the
workspace is shaped like x (G R^T going into a scratch sized for the
widest run) and the run's G R^T otherwise (grad_x getting an array of its
own).  A workspace therefore serves one backward, as a tape does
(``autodiff.backward`` refuses a consumed tape).  These arrays all come
from the caller's allocator ``empty(shape)``, ``np.empty_like(x,
shape=shape)`` by default; ``model.NeoCellLayer``'s hands a large input's
arrays out again from call to call.  The kernel's own allocations are
small temporaries (wrapping bands, weight-gradient products).

A call on a large x (``LARGE_INPUT_BYTES``) runs on the CPUs the process
may use, two at most (``parallel``): each run's channels are cut into
near-equal consecutive pieces, and piece i of every run goes to one
thread, the caller's piece 0 and a started thread's each other one.  The
calling thread takes every array from ``empty`` and tallies the
multiplies before the pieces start.  The pieces go through the runs
independently, so in the backward each has channels of the G R^T scratch
to itself, as wide as its widest share of a run.  Each channel goes
through the same operations whatever the split, so the bits are the same
on any number of CPUs.

Shifts never move activations.  A subgroup shifted by s reads the same
views from row s and from flat element s: every band along H except the one
that wraps round, and every chunk along W except those that run across a row
end.  The wrapping band (rows H-h+s.. and ..s) and the wrapping chunk
column are gathered, multiplied and written back to their places; the
forward keeps L x's wrapping chunk column as the subgroup's strip and zeroes
those columns in the workspace, where they would add the discarded chunks'
share to grad_R.  The GEMM along W still computes the H - 1 wrapped chunk
products of each plane in its flat view and discards them (n*H - 1 per
channel where ``_fold`` runs a channel's rows as one); ``MultCounter`` does
not count them.  A shifted whole-plane group (H == h, W == w) takes the same
path, its one patch being the wrapping band; ``model`` builds none.  Patch
weights are initialized in one place, ``init_part``.

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

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError
from .neoinit import neoinit_pattern
from .parallel import cpu_pieces, run_pieces
from .rng import Rng
from .tensor import Matrix, Tensor4

# A large input, in bytes.  From this size the kernel cuts each run's
# channels into pieces that run on their own threads, and
# ``model.NeoCellLayer`` keeps its arrays from call to call.  On a 2-vCPU
# Xeon, a mixed-shift layer's forward+backward split in two, on
# row-interleaved input (40 alternating rounds), took 0.73x its one-thread
# time on 8x96x56x56 (18.4 MiB) and 0.91x on 4x96x56x56 (9.2 MiB); below
# 8 MiB the split lost, as small numpy calls queue on the GIL: 1.30x on
# 2x96x56x56 (4.6 MiB), 1.19x and 2.2x on the micro model's stage 0 at
# batch 256 and 64 (3 and 0.75 MiB).  Recycling op-neocell56's arrays
# removes ~2,200 first-touch page faults per forward+backward (54 -> 42
# ms), and its wrap strips and 2.4 MB G R^T scratch ~900 more (1,150 ->
# 224) in a process that has freed no large block, where glibc hands freed
# heap back to the system; with no floor, holding the micro model's (at
# most 3 MiB) added ~2,000 faults per eval-micro op and slowed it 5-10%.
LARGE_INPUT_BYTES = 8 << 20


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
    """Contiguous run of groups sharing patch geometry, computed as one batch
    per run of equal shift."""

    start: int
    stop: int
    h: int
    w: int
    h_out: int
    w_out: int
    runs: tuple[tuple[int, int, int], ...]   # (start, stop, shift) in the part

    @property
    def count(self) -> int:
        return self.stop - self.start


def merge_parts(spec: NeoCellSpec) -> list[Part]:
    """The spec's groups in channel order, runs of equal geometry merged."""
    ordered = sorted(spec.groups, key=lambda g: g.start)
    parts = []
    for geometry, groups in itertools.groupby(ordered, key=lambda g: (g.h, g.w, g.h_out, g.w_out)):
        groups = list(groups)
        base = groups[0].start
        runs = []
        for shift, run in itertools.groupby(groups, key=lambda g: g.shift):
            run = list(run)
            runs.append((run[0].start - base, run[-1].stop - base, shift))
        parts.append(Part(base, groups[-1].stop, *geometry, tuple(runs)))
    return parts


def init_part(part: Part, rng: Rng | None, init: str = "neoinit"):
    """Initial stacked (left, right) weights of one part.

    ``"neoinit"``: the identity / skewed-identity pattern plus Gaussian noise
    of std 1/sqrt(rows*cols), all lefts of the part before all rights;
    ``rng=None`` gives the noise-free patterns.  Each side's noise is one
    draw for the whole part, giving the numbers one ``rng.normal`` draw per
    channel gives: Box-Muller takes raws in pairs, so for an odd rows*cols
    each channel's row of the block holds one normal more, which is dropped.
    ``"random-normal"`` (the ablation baseline): left std 1/sqrt(h), right
    std 1/sqrt(w), one draw per side.
    """
    count = part.count
    if init == "neoinit":

        def draw(rows, cols):
            pattern = neoinit_pattern(rows, cols)
            if rng is None:
                return np.repeat(pattern[None], count, axis=0)
            size = rows * cols
            padded = size + size % 2    # the raws one channel's draw of size normals takes
            noise = rng.standard_normal(count * padded).reshape(count, padded)[:, :size]
            return pattern + (noise * (1.0 / np.sqrt(size))).reshape(count, rows, cols)

        left = draw(part.h_out, part.h)
        right = draw(part.w, part.w_out)
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


def _fold(arrays, axis: int):
    """Row-interleaved (n, c, H, W) arrays, whose memory is that of a
    C-contiguous (c, H, n, W) array, with the images merged into ``axis``:
    (1, c, H, n*W) views for axis 3, where a band of rows holds the n
    images of a channel as one block, and (1, c, H*n, W) views for axis 2,
    where each channel's rows are one flat run.  The arrays themselves
    unless each channel of all of them is one such run; None entries pass
    through."""

    def view(a):
        n, c, H, W = a.shape
        flat = a.transpose(1, 2, 0, 3).reshape(1, c, H * n * W, copy=False)
        return flat.reshape((1, c, H, n * W) if axis == 3 else (1, c, H * n, W))

    try:
        return [None if a is None else view(a) for a in arrays]
    except ValueError:
        return arrays


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


def _runs(parts, *per_part):
    """(part, its item of each ``per_part`` list, a, b, s) for every run
    (a, b, s) of every part, in channel order."""
    return [(part, *items, a, b, s) for part, *items in zip(parts, *per_part) for a, b, s in part.runs]


def _shares(runs, x: np.ndarray):
    """For each piece of a kernel call on x, its channels [lo, hi) of each
    of ``runs``: one piece per CPU (``parallel.cpu_pieces``) when x has
    ``LARGE_INPUT_BYTES``, else one.  A run's pieces are consecutive, their
    sizes one apart at most."""
    pieces = cpu_pieces() if x.nbytes >= LARGE_INPUT_BYTES else 1
    return [[(a + (b - a) * i // pieces, a + (b - a) * (i + 1) // pieces) for *_, a, b, _ in runs]
            for i in range(pieces)]


def cell_forward(x: np.ndarray, parts, weights, counter: MultCounter | None = None, empty=None):
    """The patch kernel, in the dtype of its inputs.

    x is (n, c, H, W), already checked against the spec the parts come
    from; ``weights`` holds one stacked (L, R) pair per part, L (cp, h_out,
    h) and R (cp, w, w_out).  Every array the call needs comes from
    ``empty(shape)``, in this order: the (n, c, H', W') output, the (n, c,
    H', W) L x workspace and, per shifted run of cb channels, an (n, cb,
    H', w) W-wrap strip.  The default, ``np.empty_like(x, shape=shape)``,
    gives them x's layout.  Returns (out, saved): ``saved`` holds the
    workspace, with every part's L x and its W-wrap columns zeroed, and one
    strip per run (None where unshifted) with those columns' values, for
    ``cell_backward``.

    Two band GEMMs per run on views, with no patch transpose: L acts along
    H on x viewed as (n, cb, H/h, h, W) bands, then R acts along W on that
    result viewed as (n, cb, H/h*h_out*W/w, w) rows, whose product is
    already laid out as the output.  On the row-interleaved arrays a model
    passes, ``_fold`` makes the first one GEMM per (channel, band) and the
    second one per channel.  A run shifted by s reads the same views from
    row s and from flat element s; its one wrapping band along H and its
    wrapping chunk column along W are gathered, multiplied and scattered
    back.  A large x's runs are cut into channel pieces that run on their
    own threads (``_shares``).  L goes first, so each patch costs exactly
    the h_out*h*w + h_out*w*w_out multiplies that ``counter`` tallies.  It
    does not count the wrapped chunk products that a shifted subgroup
    computes and discards: H' - 1 per plane, and one more per plane but the
    last where ``_fold`` runs the rows of a channel's images as one.
    """
    empty = empty or (lambda shape: np.empty_like(x, shape=shape))
    n, _, H, W = x.shape
    first = parts[0]
    H_out = H // first.h * first.h_out
    out = empty((*x.shape[:2], H_out, W // first.w * first.w_out))
    lx = empty((*x.shape[:2], H_out, W))
    runs = _runs(parts, weights)
    strips = [empty((n, b - a, H_out, part.w)) if s else None for part, _, a, b, s in runs]
    if counter is not None:
        for part in parts:
            h, w, h_out, w_out = part.h, part.w, part.h_out, part.w_out
            counter.add(n * part.count * (H // h) * (W // w) * (h_out * h * w + h_out * w * w_out))
    shares = _shares(runs, x)

    def run_piece(i):
        for (part, (L, R), a, b, s), strip, (lo, hi) in zip(runs, strips, shares[i]):
            if lo == hi:
                continue
            h, w, h_out, w_out = part.h, part.w, part.h_out, part.w_out
            # weights are indexed within the part, activations across the layer
            c = slice(part.start + lo, part.start + hi)
            Lc, Rc, lc = L[lo:hi], R[lo:hi], lx[:, c]
            strip = None if strip is None else strip[:, lo - a : hi - a]
            xb, lb = _fold((x[:, c], lc), 3)
            np.matmul(Lc[:, None], _bands(xb, h, s), out=_bands(lb, h_out, s))
            if s:
                _scatter(lb, np.matmul(Lc, _gather(xb, h, s, 2)), s, 2)
                _gather(lc, w, s, 3, strip)
                # the wrapping chunks' products are discarded; zeroed, these
                # columns add nothing to the backward's grad_R
                for piece in _wrap(W, w, s, 3):
                    lc[piece] = 0
            lf, of, sf = _fold((lc, out[:, c], strip), 2)
            np.matmul(_chunks(lf, w, s), Rc, out=_chunks(of, w_out, s))
            if s:
                _scatter(of, np.matmul(sf, Rc), s, 3)

    run_pieces(run_piece, len(shares))
    return out, (lx, strips)


def cell_backward(x: np.ndarray, parts, weights, gy: np.ndarray, saved, empty=None):
    """Gradients of ``cell_forward`` for the output gradient ``gy``.

    ``saved`` is what ``cell_forward`` on x and ``weights`` returned beside
    its output: L x, with its W-wrap columns zeroed, and those columns'
    values.  Uses the forward's views of x and L x and the same views of G
    = ``gy``, with no patch transpose:

    - grad_R = sum over n of (L X)^T G on the (H/h*h_out*W/w, w) rows;
    - grad_L = sum over (n, H/h) bands of (G R^T) X^T, which equals
      G (X R)^T;
    - grad_x = L^T (G R^T), shaped and laid out like x.

    ``gy`` is laid out like the forward's output.  A shifted run reads
    every view at offset s and handles its wrapping band and chunk column
    apart, as in the forward; the zeroed wrap columns of L X make the wrong
    chunks add nothing to grad_R, and the strip adds the wrapping chunks'
    share.  The L X workspace is consumed: each run reads its L X for
    grad_R first.  Where the workspace is shaped like x (h_out == h),
    grad_x goes into it, each run's over its own used-up L X, and G R^T
    into a scratch from ``empty`` as wide as the widest run; each piece of
    a large x (``_shares``) has its own channels of it.  Otherwise grad_x
    is one array from ``empty``, and G R^T overwrites each run's L X.
    ``empty`` is as in ``cell_forward``.

    Returns (gx, grads) with one (grad_L, grad_R) pair per part, shaped
    like ``weights``.  Each weight gradient is reduced in one fixed order,
    so repeated backward passes on equal inputs are bit-identical.  Neither
    x nor gy is written to.
    """
    empty = empty or (lambda shape: np.empty_like(x, shape=shape))
    lx, strips = saved
    grads = [(np.empty_like(L), np.empty_like(R)) for L, R in weights]
    # BLAS takes G R^T about 3x longer from a transposed view of R
    rts = [np.ascontiguousarray(R.swapaxes(-1, -2)) for _, R in weights]
    runs = _runs(parts, weights, rts, grads)
    shares = _shares(runs, x)
    if lx.shape == x.shape:
        # the pieces go through the runs independently, so piece i takes
        # scratch channels [offsets[i], offsets[i + 1]) for every run
        widths = (max(hi - lo for lo, hi in share) for share in shares)
        offsets = list(itertools.accumulate(widths, initial=0))
        gx, scratch = lx, empty((x.shape[0], offsets[-1], *x.shape[2:]))
    else:
        gx, scratch = empty(x.shape), None

    def run_piece(i):
        for (part, (L, _), Rts, (grad_l, grad_r), a, b, s), strip, (lo, hi) in zip(
            runs, strips, shares[i]
        ):
            if lo == hi:
                continue
            h, w, h_out, w_out = part.h, part.w, part.h_out, part.w_out
            c, k = slice(part.start + lo, part.start + hi), slice(lo, hi)
            Lt, Rt = L[k].swapaxes(-1, -2), Rts[k]
            strip = None if strip is None else strip[:, lo - a : hi - a]
            # G R^T goes over L X unless L X's place receives grad_x
            grt = lx[:, c] if scratch is None else scratch[:, offsets[i] : offsets[i] + hi - lo]
            lf, gf, tf, lw = _fold((lx[:, c], gy[:, c], grt, strip), 2)
            grows = _chunks(gf, w_out, s)
            grad_r[k] = np.matmul(_chunks(lf, w, s).swapaxes(-1, -2), grows).sum(axis=0)
            np.matmul(grows, Rt, out=_chunks(tf, w, s))
            if s:
                gw = _gather(gf, w_out, s, 3)
                grad_r[k] += np.matmul(lw.swapaxes(-1, -2), gw).sum(axis=0)
                _scatter(tf, np.matmul(gw, Rt), s, 3)
            # this run's L X is used up: its place may now take grad_x
            xb, tb, ob = _fold((x[:, c], grt, gx[:, c]), 3)
            gbands = _bands(tb, h_out, s)
            grad_l[k] = np.matmul(gbands, _bands(xb, h, s).swapaxes(-1, -2)).sum(axis=(0, 2))
            np.matmul(Lt[:, None], gbands, out=_bands(ob, h, s))
            if s:
                grw, xw = _gather(tb, h, s, 2), _gather(xb, h, s, 2)
                grad_l[k] += np.matmul(grw, xw.swapaxes(-1, -2)).sum(axis=0)
                _scatter(ob, np.matmul(Lt, grw), s, 2)

    run_pieces(run_piece, len(shares))
    return gx, grads


def forward_patchwise(
    x: Tensor4,
    spec: NeoCellSpec,
    params: NeoCellParams,
    counter: MultCounter | None = None,
) -> Tensor4:
    """Reference execution: the part loop on per-channel weights."""
    spec.validate_input(x.dims)
    params.validate(spec)
    parts = merge_parts(spec)
    out, _ = cell_forward(x.array, parts, [params.stacked(p) for p in parts], counter)
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
