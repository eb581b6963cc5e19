"""Analytic multiply counting and wall-clock micro-benchmarks.

For a (c, h, w) input and size-k kernels/matrices:

- depthwise convolution ('same' output, every tap counted even where it
  reads a padded zero): c*h*w*k^2 multiplies;
- the patch operator with k x k left and right matrices: 2*c*h*w*k
  multiplies, i.e. exactly 2/k of depthwise.

The instrumented kernels tally the multiplies they actually perform, so the
analytic formulas are checked against executed work, not a model.  Wall
times are reported, never asserted: only the multiply ratios are portable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError
from .neocell import (
    GroupSpec,
    MultCounter,
    NeoCellSpec,
    blockdiag_factors,
    blockdiag_product,
    cell_forward,
    init_part,
    merge_parts,
)
from .rng import SEED_LIMIT, Rng
from .tensor import Tensor4


@dataclass(frozen=True)
class OpCost:
    multiplies: int

    def __post_init__(self):
        if self.multiplies < 0:
            raise ParameterError(f"multiplies must be >= 0, got {self.multiplies}")


@dataclass
class BenchResult:
    op: str
    shape: tuple
    iters: int
    t_min: float
    t_median: float
    t_mean: float
    multiplies: int
    checksum: float
    warmup: int = 0

    @property
    def mults_per_s(self) -> float:
        return self.multiplies / self.t_median if self.t_median > 0 else float("inf")


def flops_dwconv(c: int, h: int, w: int, k: int) -> OpCost:
    """Multiply count of a depthwise k x k convolution with 'same' output."""
    if min(c, h, w, k) < 1:
        raise ParameterError(f"dims must be positive, got c={c} h={h} w={w} k={k}")
    return OpCost(c * h * w * k * k)


def flops_neocell(c: int, h: int, w: int, k: int) -> OpCost:
    """Multiply count of the patch operator with k x k left/right matrices."""
    if min(c, h, w, k) < 1:
        raise ParameterError(f"dims must be positive, got c={c} h={h} w={w} k={k}")
    if h % k:
        raise ShapeError(f"height {h} not divisible by k={k}")
    if w % k:
        raise ShapeError(f"width {w} not divisible by k={k}")
    return OpCost(2 * c * h * w * k)


def neocell_to_dwconv_ratio(k: int) -> Fraction:
    """Exact multiply ratio; equals 2/k for every valid shape."""
    cost_n = flops_neocell(1, k, k, k)
    cost_d = flops_dwconv(1, k, k, k)
    return Fraction(cost_n.multiplies, cost_d.multiplies)


# ------------------------------------------------------- depthwise reference

def dwconv_reference(x: Tensor4, kernels: np.ndarray, counter: MultCounter | None = None) -> Tensor4:
    """Depthwise convolution, zero padding, stride 1, 'same' output.

    ``kernels`` is (c, k, k) with odd k.  Taps accumulate in row-major
    (di, dj) order, one rounded multiply and add per tap, matching a scalar
    loop with the same tap order bit for bit.  Taps that read padded zeros
    still count as multiplies.
    """
    kernels = np.asarray(kernels, dtype=np.float64)
    n, c, H, W = x.dims
    if kernels.ndim != 3 or kernels.shape[0] != c or kernels.shape[1] != kernels.shape[2]:
        raise ShapeError(f"kernels must be (c, k, k) with c={c}, got {kernels.shape}")
    k = kernels.shape[1]
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd for symmetric padding, got {k}")
    out = _dwconv(x.array, kernels)
    if counter is not None:
        counter.add(n * c * H * W * k * k)
    return Tensor4(out)


def _dwconv(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Array-level depthwise kernel of ``dwconv_reference``, in the dtype of x."""
    n, c, H, W = x.shape
    k = kernels.shape[1]
    pad = k // 2
    padded = np.zeros((n, c, H + 2 * pad, W + 2 * pad), dtype=x.dtype)
    padded[:, :, pad : pad + H, pad : pad + W] = x
    out = np.zeros((n, c, H, W), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            out += kernels[None, :, di, dj, None, None] * padded[:, :, di : di + H, dj : dj + W]
    return out


# -------------------------------------------------------- counted execution

def _square_spec(c: int, k: int) -> NeoCellSpec:
    return NeoCellSpec((GroupSpec(0, c, k, k, k, k),))


def counted_neocell(c: int, h: int, w: int, k: int, seed: int = 0) -> int:
    """Multiplies executed by the patch kernel on a (1, c, h, w) input."""
    spec = _square_spec(c, k)
    spec.validate_input((1, c, h, w))
    (part,) = merge_parts(spec)
    weights = init_part(part, Rng(seed))
    x = Rng((seed + 1) % SEED_LIMIT).normal((1, c, h, w), 1.0)
    counter = MultCounter()
    cell_forward(x, [part], [weights], counter)
    return counter.multiplies


def counted_dwconv(c: int, h: int, w: int, k: int, seed: int = 0) -> int:
    """Multiplies executed by the depthwise reference on a (1, c, h, w) input."""
    x = Tensor4(Rng((seed + 1) % SEED_LIMIT).normal((1, c, h, w), 1.0))
    kernels = Rng(seed).normal((c, k, k), 1.0)
    counter = MultCounter()
    dwconv_reference(x, kernels, counter)
    return counter.multiplies


# -------------------------------------------------------------- wall clocks

BENCH_OPS = ("neocell", "dwconv", "blockdiag")

BENCH_CSV_HEADER = (
    "op,c,h,w,k,iters,warmup,multiplies,checksum,"
    "t_min_s,t_median_s,t_mean_s,mults_per_s"
)
# columns from t_min_s on are timing-dependent; everything before is
# a pure function of (op, shape, seed)


def _bench_callable(op: str, c: int, h: int, w: int, k: int, seed: int):
    """(fn, multiplies): fn runs the op's array kernel on a fixed seeded
    (1, c, h, w) input and returns a (1, c, h, w) array."""
    rng = Rng(seed)
    if op in ("neocell", "blockdiag"):
        mults = flops_neocell(c, h, w, k).multiplies   # checks the square spec's dims
        spec = _square_spec(c, k)
        (part,) = merge_parts(spec)
        L, R = init_part(part, rng)
        x = rng.normal((1, c, h, w), 1.0)
        if op == "neocell":
            return (lambda: cell_forward(x, [part], [(L, R)])[0]), mults
        A, B = blockdiag_factors(spec.groups[0], L, R, h, w)
        counter = MultCounter()
        blockdiag_product(A, x, B, counter)
        return (lambda: blockdiag_product(A, x, B)), counter.multiplies
    if op == "dwconv":
        if k % 2 == 0:
            raise ConfigError(f"dwconv benchmark needs odd k, got {k}")
        mults = flops_dwconv(c, h, w, k).multiplies   # checks the dims before any draw
        kernels = rng.normal((c, k, k), 1.0)
        x = rng.normal((1, c, h, w), 1.0)
        return (lambda: _dwconv(x, kernels)), mults
    raise ConfigError(f"unknown bench op {op!r}; known: {BENCH_OPS}")


def bench(
    op: str,
    c: int,
    h: int,
    w: int,
    k: int,
    iters: int = 10,
    warmup: int = 2,
    seed: int = 0,
) -> BenchResult:
    """Time one operator on fixed seeded inputs and report stable statistics."""
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    fn, mults = _bench_callable(op, c, h, w, k, seed)
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    times_arr = np.asarray(times)
    return BenchResult(
        op=op,
        shape=(c, h, w, k),
        iters=iters,
        t_min=float(times_arr.min()),
        t_median=float(np.median(times_arr)),
        t_mean=float(times_arr.mean()),
        multiplies=mults,
        checksum=float(result.sum()),
        warmup=warmup,
    )


def check_bench_csv(path) -> str:
    """The header line of the bench CSV at ``path``, "" if it is new or empty.

    A file whose header is not ``BENCH_CSV_HEADER`` (one written with other
    columns) is refused, and a missing parent directory is created; callers
    check before timing anything.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    header = ""
    if p.exists():
        with open(p) as f:
            header = f.readline().rstrip("\n")
    if header and header != BENCH_CSV_HEADER:
        raise ConfigError(f"{p}: header {header!r} differs from the bench CSV header {BENCH_CSV_HEADER!r}")
    return header


def append_bench_csv(path, result: BenchResult) -> None:
    """Append one CSV row to a file ``check_bench_csv`` accepts, writing the header if it is new or empty."""
    header = check_bench_csv(path)
    with open(path, "a") as f:
        if not header:
            f.write(BENCH_CSV_HEADER + "\n")
        c, h, w, k = result.shape
        f.write(
            f"{result.op},{c},{h},{w},{k},"
            f"{result.iters},{result.warmup},{result.multiplies},{result.checksum!r},"
            f"{result.t_min!r},{result.t_median!r},{result.t_mean!r},{result.mults_per_s!r}\n"
        )
