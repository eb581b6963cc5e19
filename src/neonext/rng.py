"""Deterministic pseudo-randomness with a fully pinned algorithm.

The generator is SplitMix64 in counter form: draw i of a stream seeded with
``s`` is ``mix64(s + i * 0x9E3779B97F4A7C15)`` for i = 1, 2, ..., where
``mix64`` is the standard SplitMix64 finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic mod 2^64.  The counter form produces the same stream as
the sequential definition and vectorizes over numpy uint64 arrays.  The
uint64 stream is bit-identical on every platform.

Derived values:

- uniforms in [0, 1): ``(u >> 11) * 2**-53``;
- standard normals: Box-Muller on consecutive pairs (a, b) of raw draws,
  u1 = ((a >> 11) + 1) * 2**-53 in (0, 1], u2 = (b >> 11) * 2**-53,
  z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = sqrt(-2 ln u1) sin(2 pi u2);
- permutations: argsort of a fresh uniform draw.

Normals are made ``_CHUNK`` raws at a time: each pass mixes its counters in
place and writes its Box-Muller pairs into strided slices of the result, so
a draw holds its result and one chunk's temporaries, never raws for the
whole draw.  Chunking changes no bit and no stream position.

Uniforms inherit the cross-platform bit guarantee.  Normals additionally
depend on libm's log/cos/sin rounding; they are bit-stable across runs on a
given platform, which is what the reproducibility tests pin.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DERIVE = np.uint64(0xD6E8FEB86659FD93)
_U53 = 2.0**-53
# Raws per pass of ``standard_normal``.  On a 2-vCPU Xeon, drawn in one
# pass, the 2.4M normals of op-neocell56's input peaked at 4.5x their bytes
# (82.7 MB traced) and took a median 117 ms over 16 rounds; in passes of
# 2**16 raws they peak at 1.14x and take 82 ms.  2**14 and 2**15 timed the
# same, 2**13 and 2**17 about 5% slower.
_CHUNK = 1 << 16


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer applied to z in place; returns z."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _check_count(method: str, n: int) -> None:
    if n < 0:
        raise ParameterError(f"{method}: n must be >= 0, got {n}")


class Rng:
    """SplitMix64 stream with uniform/normal transforms.

    Same seed gives the same stream on every platform and run; the stream
    position advances only through the drawing methods.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def next_u64(self, n: int) -> np.ndarray:
        _check_count("next_u64", n)
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= _GOLDEN
        z += self._seed
        return _mix64(z)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        _check_count("uniform", n)
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _U53

    def standard_normal(self, n: int) -> np.ndarray:
        """n doubles from N(0, 1) via Box-Muller; draws ceil(n/2)*2 raws,
        _CHUNK at a time."""
        _check_count("standard_normal", n)
        size = (n + 1) // 2 * 2
        out = np.empty(size, dtype=np.float64)
        for start in range(0, size, _CHUNK):
            raw = self.next_u64(min(_CHUNK, size - start)) >> np.uint64(11)
            u1 = (raw[0::2].astype(np.float64) + 1.0) * _U53
            u2 = raw[1::2].astype(np.float64) * _U53
            r = np.sqrt(-2.0 * np.log(u1))
            theta = (2.0 * np.pi) * u2
            out[start : start + raw.size : 2] = r * np.cos(theta)
            out[start + 1 : start + raw.size : 2] = r * np.sin(theta)
        return out[:n]

    def normal(self, shape, sigma: float = 1.0) -> np.ndarray:
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ParameterError(f"normal: sigma must be finite and >= 0, got {sigma}")
        if (np.asarray(shape) < 0).any():
            raise ParameterError(f"normal: shape must have no negative dims, got {shape}")
        out = self.standard_normal(int(np.prod(shape)))
        out *= sigma
        return out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        _check_count("permutation", n)
        return np.argsort(self.uniform(n), kind="stable")

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform on [0, bound) via floor(u * bound)."""
        _check_count("integers", n)
        if bound < 1:
            raise ParameterError(f"integers: bound must be >= 1, got {bound}")
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)

    def derive(self, tag: int) -> "Rng":
        """Independent child stream; deterministic function of (seed, tag)."""
        base = np.array([self._seed ^ _DERIVE], dtype=np.uint64)
        z = _mix64(base + np.uint64(int(tag) & 0xFFFFFFFFFFFFFFFF))
        return Rng(int(z[0]))
