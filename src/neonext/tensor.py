"""Dense rank-4 tensors, small dense matrices, and their binary serialization.

Conventions, pinned for the whole package:

- element type is 64-bit IEEE float everywhere;
- ``Tensor4`` is laid out row-major over (n, c, h, w) with unit stride on
  the last axis, no broadcasting, no negative-stride views;
- every operation is pure: inputs are never mutated, and both ``Tensor4``
  and ``Matrix`` freeze their backing buffer at construction.

The module holds containers and their file format only; products live with
the operator (``neocell``), where the block-diagonal reference keeps the
ascending-k accumulation that matches a scalar loop bit for bit.

Serialization format (used by golden files, ``init-dump`` and checkpoints):
a 16-byte header of four little-endian uint32 dims (n, c, h, w) followed by
n*c*h*w little-endian float64 values in row-major order.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ShapeError

_HEADER_DTYPE = np.dtype("<u4")
_DATA_DTYPE = np.dtype("<f8")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out is arr or out.base is arr:
        out = out.copy()
    out.flags.writeable = False
    return out


class Tensor4:
    """Immutable dense (n, c, h, w) float64 tensor."""

    __slots__ = ("_array",)

    def __init__(self, array):
        arr = _freeze(np.asarray(array))
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 needs 4 dims, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"Tensor4 dims must be positive, got {arr.shape}")
        self._array = arr

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the data."""
        return self._array

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self._array.shape

    def __repr__(self):
        return f"Tensor4(dims={self.dims})"


class Matrix:
    """Immutable dense (rows, cols) float64 matrix."""

    __slots__ = ("_array",)

    def __init__(self, array):
        arr = _freeze(np.asarray(array))
        if arr.ndim != 2:
            raise ShapeError(f"Matrix needs 2 dims, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"Matrix dims must be positive, got {arr.shape}")
        self._array = arr

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def rows(self) -> int:
        return self._array.shape[0]

    @property
    def cols(self) -> int:
        return self._array.shape[1]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def write_tensor(path: str | os.PathLike, t: Tensor4) -> None:
    with open(path, "wb") as f:
        f.write(np.asarray(t.dims, dtype=_HEADER_DTYPE).tobytes())
        f.write(np.ascontiguousarray(t.array, dtype=_DATA_DTYPE).tobytes())


def read_tensor(path: str | os.PathLike) -> Tensor4:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise ShapeError(f"{path}: tensor file shorter than the 16-byte header")
    dims = np.frombuffer(raw[:16], dtype=_HEADER_DTYPE)
    n, c, h, w = (int(d) for d in dims)
    expected = 16 + n * c * h * w * 8
    if len(raw) != expected:
        raise ShapeError(
            f"{path}: expected {expected} bytes for dims {(n, c, h, w)}, "
            f"got {len(raw)}"
        )
    data = np.frombuffer(raw[16:], dtype=_DATA_DTYPE).reshape(n, c, h, w)
    return Tensor4(data)


def write_matrix(path: str | os.PathLike, m: Matrix) -> None:
    """Store a matrix as a (1, 1, rows, cols) tensor file."""
    write_tensor(path, Tensor4(m.array.reshape(1, 1, m.rows, m.cols)))


def read_matrix(path: str | os.PathLike) -> Matrix:
    t = read_tensor(path)
    n, c, h, w = t.dims
    if n != 1 or c != 1:
        raise ShapeError(f"{path}: not a matrix file, dims {t.dims}")
    return Matrix(t.array.reshape(h, w))
