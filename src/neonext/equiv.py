"""Randomized agreement checks between the two execution paths.

Each trial draws a configuration (mixed square 4x4/7x7 groups with shifts
0..k-1, or a resampling layer, 2->1 or 2->3), random weights and input up to
2 x 8 x 56 x 56, and compares the patchwise and block-diagonal forwards
elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .neocell import (
    GroupSpec,
    NeoCellParams,
    NeoCellSpec,
    forward_blockdiag,
    forward_patchwise,
)
from .rng import Rng
from .tensor import Matrix, Tensor4


@dataclass
class TrialResult:
    index: int
    kind: str
    dims: tuple
    groups: int
    max_abs_dev: float


def _choice(rng: Rng, seq):
    return seq[int(rng.integers(1, len(seq))[0])]


def random_params(spec: NeoCellSpec, rng: Rng) -> NeoCellParams:
    """Unit-normal weights for every channel."""
    C = spec.channel_count
    left: list = [None] * C
    right: list = [None] * C
    for g in spec.groups:
        for c in g.channels:
            left[c] = Matrix(rng.normal((g.h_out, g.h), 1.0))
            right[c] = Matrix(rng.normal((g.w, g.w_out), 1.0))
    return NeoCellParams(left, right)


def random_case(rng: Rng):
    """One (x, spec, kind) trial configuration."""
    kind = _choice(rng, ("mixed-square", "mixed-square", "down-2to1", "up-2to3"))
    n = _choice(rng, (1, 2))
    c = int(rng.integers(1, 7)[0]) + 2
    if kind == "mixed-square":
        side = _choice(rng, (28, 56))
        groups = []
        start = 0
        while start < c:
            k = _choice(rng, (4, 7))
            size = min(int(rng.integers(1, 3)[0]) + 1, c - start)
            shift = int(rng.integers(1, k)[0])
            groups.append(GroupSpec(start, start + size, k, k, k, k, shift=shift))
            start += size
        spec = NeoCellSpec(tuple(groups))
        dims = (n, c, side, side)
    elif kind == "down-2to1":
        spec = NeoCellSpec((GroupSpec(0, c, 2, 2, 1, 1),))
        dims = (n, c, _choice(rng, (8, 16, 28, 56)), _choice(rng, (8, 16, 28, 56)))
    else:
        spec = NeoCellSpec((GroupSpec(0, c, 2, 2, 3, 3),))
        side = _choice(rng, (8, 16, 28))
        dims = (n, c, side, side)
    x = Tensor4(rng.normal(dims, 1.0))
    return x, spec, kind


def run_trials(trials: int, seed: int = 0) -> list[TrialResult]:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = Rng(seed)
    out = []
    for i in range(trials):
        x, spec, kind = random_case(rng)
        params = random_params(spec, rng)
        y_ref = forward_patchwise(x, spec, params)
        y_blk = forward_blockdiag(x, spec, params)
        dev = float(np.abs(y_ref.array - y_blk.array).max())
        out.append(TrialResult(i, kind, x.dims, len(spec.groups), dev))
    return out
