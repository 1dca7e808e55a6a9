"""Property-style round-trip tests for bit-packed columns.

The compression model stands on one invariant: packing is lossless for
any non-negative integer column at any bit width.  These tests hammer that
across random domains, the word-boundary widths (31/32/33 bits, where
values straddle 64-bit words in every alignment), the degenerate widths
(1-bit flags, single-value columns), columns longer than one packing
pass (:data:`~repro.storage.compression.PACK_CHUNK_VALUES`), and the
selective decode
(:meth:`~repro.storage.compression.BitPackedColumn.unpack_at`).
"""

import tracemalloc

import numpy as np
import pytest

from repro.storage.column import Column
from repro.storage.compression import PACK_CHUNK_VALUES, BitPackedColumn, bits_needed


class TestBitsNeeded:
    def test_boundaries(self):
        assert bits_needed(0) == 1
        assert bits_needed(1) == 1
        assert bits_needed(2) == 2
        assert bits_needed((1 << 31) - 1) == 31
        assert bits_needed(1 << 31) == 32
        assert bits_needed((1 << 32) - 1) == 32
        assert bits_needed(1 << 32) == 33

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            bits_needed(-1)


class TestRoundTrip:
    @pytest.mark.parametrize("high", [2, 11, 51, 255, 256, 65_535, 65_536, 10**6])
    def test_random_domains(self, rng, high):
        values = rng.integers(0, high, size=4_097)
        packed = BitPackedColumn.pack(values)
        assert packed.bit_width == bits_needed(int(values.max()))
        np.testing.assert_array_equal(packed.unpack(), values)

    @pytest.mark.parametrize("width", [1, 31, 32, 33])
    def test_word_boundary_widths(self, rng, width):
        """Widths around 32 straddle 64-bit words in every alignment."""
        high = 1 << width  # forces exactly `width` bits
        values = rng.integers(0, high, size=1_001)
        values[0] = high - 1  # pin the width even if the draw missed the top
        packed = BitPackedColumn.pack(values)
        assert packed.bit_width == width
        np.testing.assert_array_equal(packed.unpack(), values)

    def test_single_value_column(self):
        values = np.full(777, 13, dtype=np.int64)
        packed = BitPackedColumn.pack(values)
        assert packed.bit_width == 4
        np.testing.assert_array_equal(packed.unpack(), values)

    def test_all_zeros_still_one_bit(self):
        values = np.zeros(100, dtype=np.int64)
        packed = BitPackedColumn.pack(values)
        assert packed.bit_width == 1
        np.testing.assert_array_equal(packed.unpack(), values)

    def test_empty_column(self):
        packed = BitPackedColumn.pack(np.array([], dtype=np.int64))
        assert packed.num_values == 0
        assert packed.unpack().shape == (0,)

    def test_single_element(self):
        packed = BitPackedColumn.pack(np.array([2**40]))
        assert packed.bit_width == 41
        np.testing.assert_array_equal(packed.unpack(), [2**40])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BitPackedColumn.pack(np.array([3, -1, 5]))

    def test_odd_sizes_and_alignments(self, rng):
        """Value counts around word-capacity multiples (ragged final word)."""
        for width_source, n in [(7, 63), (7, 64), (7, 65), (127, 9), (1023, 13)]:
            values = rng.integers(0, width_source + 1, size=n)
            values[-1] = width_source
            packed = BitPackedColumn.pack(values)
            np.testing.assert_array_equal(packed.unpack(), values)


class TestChunkedPack:
    """:meth:`BitPackedColumn.pack` writes :data:`PACK_CHUNK_VALUES` values a pass."""

    @pytest.mark.parametrize("width", [1, 6, 31, 33])
    def test_round_trip_across_chunks(self, rng, width):
        """Two whole passes and a ragged third decode exactly, at both ends
        of every pass."""
        n = 2 * PACK_CHUNK_VALUES + 5
        values = rng.integers(0, 1 << width, size=n)
        values[-1] = (1 << width) - 1
        packed = BitPackedColumn.pack(values)
        assert packed.bit_width == width
        assert packed.packed.shape == ((n * width + 63) // 64 + 1,)
        np.testing.assert_array_equal(packed.unpack(), values)
        edges = np.array([0, PACK_CHUNK_VALUES - 1, PACK_CHUNK_VALUES, 2 * PACK_CHUNK_VALUES, n - 1])
        np.testing.assert_array_equal(packed.unpack_at(edges), values[edges])

    def test_scratch_is_chunk_sized(self, rng):
        """A 3 M-row column: one column-sized ``uint64`` temporary alone
        would be 23 MB, and packing it whole once held 130 MB."""
        values = rng.integers(0, 51, 3_000_000).astype(np.int32)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            packed = BitPackedColumn.pack(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packed.bit_width == 6
        assert peak < 24 * 2**20


class TestUnpackAt:
    @pytest.mark.parametrize("width", [1, 4, 13, 31, 32, 33])
    def test_matches_full_unpack(self, rng, width):
        values = rng.integers(0, 1 << width, size=10_000)
        values[0] = (1 << width) - 1
        packed = BitPackedColumn.pack(values)
        indices = np.flatnonzero(rng.random(10_000) < 0.1)
        np.testing.assert_array_equal(packed.unpack_at(indices), values[indices])

    def test_empty_indices(self, rng):
        packed = BitPackedColumn.pack(rng.integers(0, 100, size=50))
        assert packed.unpack_at(np.array([], dtype=np.int64)).shape == (0,)

    def test_unsorted_and_repeated_indices(self, rng):
        values = rng.integers(0, 1000, size=500)
        packed = BitPackedColumn.pack(values)
        indices = np.array([499, 0, 7, 7, 250, 1, 499])
        np.testing.assert_array_equal(packed.unpack_at(indices), values[indices])

    def test_last_index_uses_guard_word(self, rng):
        """The final value may spill into the guard word pack() reserves."""
        for width in (31, 33, 63):
            values = rng.integers(0, 1 << width, size=97)
            values[-1] = (1 << width) - 1
            packed = BitPackedColumn.pack(values)
            assert packed.unpack_at(np.array([96]))[0] == values[-1]


class TestSizeAccounting:
    def test_packed_bytes_formula(self, rng):
        values = rng.integers(0, 51, size=12_345)  # 6 bits
        packed = BitPackedColumn.pack(values)
        assert packed.packed_bytes == int(np.ceil(12_345 * 6 / 8))
        assert packed.uncompressed_bytes == 12_345 * 4
        assert packed.compression_ratio == pytest.approx(4 * 8 / 6, rel=0.01)

    def test_empty_column_ratio_is_one(self):
        packed = BitPackedColumn.pack(np.array([], dtype=np.int64))
        assert packed.packed_bytes == 0
        assert packed.compression_ratio == 1.0

    def test_decode_rate_caps_scan_speedup(self):
        """Free decode earns the whole bandwidth gain; a slow decoder earns
        less, and a decoder slower than the plain read loses time."""
        packed = BitPackedColumn.pack(np.arange(11))  # 4 bits of 32
        assert packed.scan_speedup() == packed.compression_ratio
        # decode = 4 ops / throughput * 1e9 bytes-equivalent per value
        assert packed.scan_speedup(compute_throughput=1e12) == pytest.approx(4 / 0.5)
        assert packed.scan_speedup(compute_throughput=4e9) == pytest.approx(4 / 1.0)
        assert packed.scan_speedup(compute_throughput=5e8) == pytest.approx(4 / 8.0)

    def test_packing_a_column_keeps_its_name(self):
        column = Column("lo_discount", np.arange(11, dtype=np.int32))
        assert BitPackedColumn.pack(column).name == "lo_discount"
        assert BitPackedColumn.pack(np.arange(3)).name == "column"
