"""Identity / skewed-identity weight initialization for patch matrices.

Noise-free pattern for an h x w matrix:

- h <= w: row i carries the value 1/(end-start) on columns [start, end),
  where start = i*step, end = min((i+1)*step, w) and step = round(w/h);
  rows act like local averaging over their column band, and the square
  case (step 1) is the identity;
- h > w: the transpose of the w x h pattern.

Bounds are half-open so bands never overlap; rounding is half-away-from-zero
(round(2.5) = 3) so the pattern is platform-independent.  Bands that the
capping leaves empty stay zero, as do any trailing uncovered rows/columns.

``neocell.init_part``, the one place patch weights are initialized, adds
i.i.d. N(0, 1/(h*w)) samples (std 1/sqrt(h*w)) to every element on top of
this pattern.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError


def _round_half_away(x: float) -> int:
    # positive operands only; round(2.5) = 3
    return int(math.floor(x + 0.5))


def neoinit_pattern(rows: int, cols: int) -> np.ndarray:
    """The noise-free initialization pattern as a plain array."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"pattern dims must be positive, got {rows}x{cols}")
    if rows > cols:
        return np.ascontiguousarray(neoinit_pattern(cols, rows).T)
    out = np.zeros((rows, cols), dtype=np.float64)
    step = _round_half_away(cols / rows)
    for i in range(rows):
        start = i * step
        end = min((i + 1) * step, cols)
        if end > start:
            out[i, start:end] = 1.0 / (end - start)
    return out


def format_grid(m: np.ndarray, width: int = 9, decimals: int = 5) -> str:
    """Aligned plain-text rendering of a matrix for human inspection."""
    lines = []
    for row in m:
        lines.append(" ".join(f"{v:{width}.{decimals}f}" for v in row))
    return "\n".join(lines) + "\n"
