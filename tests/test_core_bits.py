"""Unit tests for the shared popcount helpers in :mod:`repro.core.bits`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bits
from repro.core.bits import popcount, popcount64


class TestPopcount:
    def test_known_values(self):
        values = np.array([0, 1, 2, 3, 255, 256, 2**63], dtype=np.uint64)
        expected = np.array([0, 1, 1, 2, 8, 1, 1])
        assert (popcount(values) == expected).all()

    def test_all_bits_set(self):
        assert popcount(np.uint64(2**64 - 1)) == 64

    def test_shape_and_dtype_preserved(self):
        words = np.arange(24, dtype=np.uint64).reshape(2, 3, 4)
        counts = popcount(words)
        assert counts.shape == words.shape
        assert counts.dtype == np.int64

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.int64]
    )
    def test_every_integer_width(self, dtype):
        values = np.array([0, 1, 5, np.iinfo(dtype).max], dtype=dtype)
        expected = [bin(int(v)).count("1") for v in values]
        assert popcount(values).tolist() == expected

    def test_non_contiguous_input(self):
        words = np.arange(64, dtype=np.uint64).reshape(8, 8)
        column = words[:, 3]
        expected = [bin(int(v)).count("1") for v in column]
        assert popcount(column).tolist() == expected

    def test_rejects_non_integer_dtype(self):
        with pytest.raises(TypeError):
            popcount(np.array([1.0, 2.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32))
    def test_matches_python_bit_count(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = [bin(v).count("1") for v in values]
        assert popcount(words).tolist() == expected

    @pytest.mark.parametrize("native", [True, False])
    def test_native_and_byte_lookup_paths_agree(self, native, monkeypatch):
        if not native:
            monkeypatch.setattr(bits, "_bitwise_count", None)
        elif bits._bitwise_count is None:
            pytest.skip("this numpy has no bitwise_count")
        values = np.array([0, -1, -2, 7, np.iinfo(np.int64).min],
                          dtype=np.int64).reshape(5, 1)
        counts = popcount(values)
        assert counts.dtype == np.int64 and counts.shape == (5, 1)
        assert counts.ravel().tolist() == [0, 64, 63, 3, 1]


class TestPopcount64:
    def test_known_values(self):
        assert popcount64(np.uint64(0)) == 0
        assert popcount64(np.uint64(1)) == 1
        assert popcount64(np.uint64(0b1011)) == 3
        assert popcount64(np.uint64(2**64 - 1)) == 64

    def test_stays_integral(self):
        # uint64 arithmetic with a signed literal promotes to float64 in
        # compiled code; the helper must never leave the integer domain.
        count = popcount64(np.uint64(2**63 + 1))
        assert count == 2
        assert isinstance(count, int)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_matches_vectorized_popcount(self, value):
        word = np.uint64(value)
        assert popcount64(word) == int(popcount(word))
