import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neonext.errors import ShapeError
from neonext.neocell import blockdiag_product
from neonext.rng import Rng
from neonext.tensor import Tensor4, read_tensor, write_tensor


def triple_loop_matmul(a, b):
    """Independent oracle: the naive scalar triple loop."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestTensor4:
    def test_dims(self):
        t = Tensor4(np.zeros((2, 3, 4, 5)))
        assert t.dims == (2, 3, 4, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 0, 4, 5)))

    def test_data_is_frozen(self):
        t = Tensor4(np.ones((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            t.array[0, 0, 0, 0] = 5.0

    def test_does_not_mutate_source(self):
        src = np.ones((1, 1, 2, 2))
        Tensor4(src)
        src[0, 0, 0, 0] = 3.0  # still writable

    def test_keeps_a_read_only_array_without_a_copy(self):
        src = np.ones((3, 1, 2, 2))
        src.flags.writeable = False
        assert Tensor4(src).array is src
        view = src[1:]    # read-only, and so is the array it views
        t = Tensor4(view)
        assert t.array is view and np.shares_memory(t.array, src)

    def test_copies_a_writable_array(self):
        src = np.ones((1, 1, 2, 2))
        t = Tensor4(src)
        assert not np.shares_memory(t.array, src)
        src[0, 0, 0, 0] = 3.0
        assert t.array[0, 0, 0, 0] == 1.0

    def test_copies_a_read_only_view_of_a_writable_array(self):
        src = np.ones((3, 1, 2, 2))
        view = src[1:]
        view.flags.writeable = False
        t = Tensor4(view)
        assert not np.shares_memory(t.array, src)
        src[1, 0, 0, 0] = 3.0
        assert t.array[0, 0, 0, 0] == 1.0


class TestMatmul:
    """The package's one ascending-k product, run by the block-diagonal
    reference: (A @ X) @ B, each accumulated from 0.0 in ascending k."""

    @staticmethod
    def product(a, b):
        """a @ b as (a @ b) @ I through ``blockdiag_product``."""
        return blockdiag_product(a[None], b[None, None], np.eye(b.shape[1])[None])[0, 0]

    def test_identity(self):
        m = Rng(0).normal((3, 3), 1.0)
        assert np.array_equal(self.product(np.eye(3), m), m)

    def test_column_swap(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(self.product(a, b), [[2.0, 1.0], [4.0, 3.0]])

    def test_matches_triple_loop_bit_exactly(self):
        a = Rng(1).normal((5, 7), 1.0)
        b = Rng(2).normal((7, 3), 1.0)
        want = triple_loop_matmul(a, b)
        assert np.array_equal(self.product(a, b), want)
        # the right factor's product, with an identity on the left
        assert np.array_equal(blockdiag_product(np.eye(5)[None], a[None, None], b[None])[0, 0], want)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 5), st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))
    def test_associativity(self, seed, m, k1, k2, n):
        rng = Rng(seed)
        a = rng.normal((m, k1), 1.0)
        b = rng.normal((k1, k2), 1.0)
        c = rng.normal((k2, n), 1.0)
        left = self.product(self.product(a, b), c)
        right = self.product(a, self.product(b, c))
        assert np.abs(left - right).max() <= 1e-9


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        a = Rng(5).normal((2, 3, 4, 5), 1.0)
        path = tmp_path / "t.t4"
        write_tensor(path, a)
        back = read_tensor(path)
        assert back.shape == a.shape
        assert np.array_equal(back, a)

    @pytest.mark.parametrize("shape", [(5,), (3, 5), (2, 3, 5), (2, 3, 4, 5)])
    def test_roundtrip_pads_leading_ones(self, tmp_path, shape):
        a = Rng(6).normal(shape, 1.0)
        path = tmp_path / "t.t4"
        write_tensor(path, a)
        back = read_tensor(path)
        assert back.shape == (1,) * (4 - len(shape)) + shape
        assert np.array_equal(back.reshape(shape), a)

    def test_binary_layout(self, tmp_path):
        path = tmp_path / "t.t4"
        for a in (np.array([1.5, -2.0]), np.array([1.5, -2.0]).reshape(1, 1, 1, 2)):
            write_tensor(path, a)
            raw = path.read_bytes()
            assert len(raw) == 16 + 2 * 8
            assert raw[:16] == (1).to_bytes(4, "little") * 3 + (2).to_bytes(4, "little")
            assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.5, -2.0]

    def test_four_dim_bytes_are_header_then_row_major_values(self, tmp_path):
        a = Rng(7).normal((2, 3, 4, 5), 1.0)
        path = tmp_path / "t.t4"
        write_tensor(path, a)
        header = b"".join(d.to_bytes(4, "little") for d in (2, 3, 4, 5))
        assert path.read_bytes() == header + a.astype("<f8").tobytes()

    @pytest.mark.parametrize("shape", [(), (1, 1, 1, 1, 2)], ids=["0-dim", "5-dim"])
    def test_other_ranks_rejected(self, tmp_path, shape):
        path = tmp_path / "t.t4"
        with pytest.raises(ShapeError, match="1 to 4 dims"):
            write_tensor(path, np.zeros(shape))
        assert not path.exists()

    def test_read_is_read_only(self, tmp_path):
        path = tmp_path / "t.t4"
        write_tensor(path, np.ones((2, 2)))
        back = read_tensor(path)
        with pytest.raises(ValueError):
            back[0, 0, 0, 0] = 5.0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.t4"
        write_tensor(path, np.zeros((1, 1, 2, 2)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ShapeError):
            read_tensor(path)
