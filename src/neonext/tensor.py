"""Dense rank-4 tensors, small dense matrices, and the binary file format
for plain arrays.

Conventions, pinned for the whole package:

- element type is 64-bit IEEE float everywhere;
- ``Tensor4`` is laid out row-major over (n, c, h, w) with unit stride on
  the last axis, no broadcasting, no negative-stride views;
- every operation is pure: inputs are never mutated, and the arrays that
  ``Tensor4`` and ``Matrix`` hold are read-only.  A C-contiguous float64
  array that is read-only, and views only read-only arrays down to the one
  that owns the memory, is held as it is; anything else is copied once into
  a read-only array.  So a caller that hands over a fresh array marks it
  read-only first and saves the copy, and must then never make that array
  (or any array it views) writable again.  ``Matrix`` serves the
  per-channel reference API only (``neocell.NeoCellParams``, ``equiv``).

The module holds containers and the file format only; products live with
the operator (``neocell``), where the block-diagonal reference keeps the
ascending-k accumulation that matches a scalar loop bit for bit.

File format (used by ``init-dump`` and checkpoints): a 16-byte header of
four little-endian uint32 dims (n, c, h, w) followed by n*c*h*w
little-endian float64 values in row-major order.  ``write_tensor`` takes an
array of 1 to 4 dims and pads its shape with leading 1s, so a (rows, cols)
matrix is stored as (1, 1, rows, cols); ``read_tensor`` returns the 4-dim
array the header names, read-only.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ShapeError

_HEADER_DTYPE = np.dtype("<u4")
_DATA_DTYPE = np.dtype("<f8")


def _read_only_throughout(arr: np.ndarray) -> bool:
    """Whether ``arr`` and every array it views are read-only, down to an
    array that owns its memory."""
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


def _freeze(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == np.float64 and arr.flags.c_contiguous and _read_only_throughout(arr):
        return arr
    out = np.array(arr, dtype=np.float64, order="C")
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


def write_tensor(path: str | os.PathLike, array: np.ndarray) -> None:
    """Store a 1- to 4-dim array, its shape padded to 4 dims with leading 1s."""
    a = np.asarray(array)
    if not 1 <= a.ndim <= 4:
        raise ShapeError(f"tensor files hold 1 to 4 dims, got shape {a.shape}")
    dims = (1,) * (4 - a.ndim) + a.shape
    with open(path, "wb") as f:
        f.write(np.asarray(dims, dtype=_HEADER_DTYPE).tobytes())
        f.write(np.ascontiguousarray(a, dtype=_DATA_DTYPE).tobytes())


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """The (n, c, h, w) array a tensor file holds, read-only."""
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
    return np.frombuffer(raw, dtype=_DATA_DTYPE, offset=16).reshape(n, c, h, w)
