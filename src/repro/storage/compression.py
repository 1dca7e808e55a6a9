"""Bit-packed column compression (Section 5.5, "Compression").

The paper keeps every column at 4 bytes for comparability but points out
that many SSB columns have tiny domains and that GPUs -- with their high
compute-to-bandwidth ratio -- are well placed to use non-byte-aligned
packing schemes to fit more data in HBM and to reduce scan traffic.

:class:`BitPackedColumn` implements that scheme: values are stored with just
enough bits to cover the column's domain, packed into a contiguous 64-bit
word array.  Decoding is exact (round-trips are tested); the
:func:`scan_speedup` helper quantifies the bandwidth saving a scan-heavy
query would see, which is what the compression ablation benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.column import Column


#: Values packed per pass of :meth:`BitPackedColumn._append`: 2 MB per
#: ``uint64`` scratch array, ~15 MB of scratch whatever the column, where
#: packing a 3 M-row column whole held 130 MB at once.  Pack time is flat
#: from 64 K to 512 K values per pass.
PACK_CHUNK_VALUES = 1 << 18


def bits_needed(max_value: int) -> int:
    """Bits required to represent values in ``[0, max_value]``."""
    if max_value < 0:
        raise ValueError("bit packing requires non-negative values")
    return max(1, int(max_value).bit_length())


@dataclass
class BitPackedColumn:
    """A column stored with ``bit_width`` bits per value."""

    name: str
    packed: np.ndarray
    bit_width: int
    num_values: int
    reference_bytes_per_value: int = 4

    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, column: Column | np.ndarray) -> "BitPackedColumn":
        """Pack a non-negative integer column into its minimal bit width."""
        if isinstance(column, Column):
            values = column.values
            name = column.name
        else:
            values = np.asarray(column)
            name = "column"
        if values.size and values.min() < 0:
            raise ValueError("bit packing requires non-negative values")
        width = bits_needed(int(values.max()) if values.size else 0)
        # A column is its empty prefix (one zeroed guard word) followed by
        # every value: the bit layout lives in :meth:`_append` alone.
        empty = cls(name=name, packed=np.zeros(1, dtype=np.uint64), bit_width=width, num_values=0)
        return empty._append(values)

    def _append(self, tail: np.ndarray) -> "BitPackedColumn":
        """This column followed by ``tail`` (which must fit ``bit_width``).

        Packs :data:`PACK_CHUNK_VALUES` values at a time, so the ``uint64``
        position / offset / shifted-value scratch is chunk-sized, never
        column-sized.  Every OR lands at its absolute word index, so a
        value straddling a chunk's last word simply spills into the next
        chunk's still-zero first word (or the trailing guard word).
        """
        width = np.uint64(self.bit_width)
        total = self.num_values + int(tail.shape[0])
        words = np.zeros((total * self.bit_width + 63) // 64 + 1, dtype=np.uint64)
        words[: self.packed.shape[0]] = self.packed
        for done in range(0, int(tail.shape[0]), PACK_CHUNK_VALUES):
            value_bits = tail[done : done + PACK_CHUNK_VALUES].astype(np.uint64)
            first = self.num_values + done
            positions = np.arange(first, first + value_bits.shape[0], dtype=np.uint64) * width
            word_index = (positions >> np.uint64(6)).astype(np.intp)
            bit_offset = positions & np.uint64(63)
            # Low part goes into the word the value starts in...
            np.bitwise_or.at(words, word_index, value_bits << bit_offset)
            # ...and whatever spills past bit 63 goes into the next word.
            spill = np.uint64(64) - bit_offset
            spilled = np.flatnonzero(spill < width)
            if spilled.size:
                np.bitwise_or.at(
                    words, word_index.take(spilled) + 1, value_bits.take(spilled) >> spill.take(spilled)
                )
        return BitPackedColumn(
            name=self.name,
            packed=words,
            bit_width=self.bit_width,
            num_values=total,
            reference_bytes_per_value=self.reference_bytes_per_value,
        )

    def unpack(self) -> np.ndarray:
        """Decode the column back into an int64 array."""
        return self.unpack_at(np.arange(self.num_values, dtype=np.int64))

    def unpack_at(self, indices: np.ndarray) -> np.ndarray:
        """Decode only the values at ``indices`` (word-aligned gather + shift/mask).

        The selection-vector counterpart of :meth:`unpack`: each requested
        value's bit position is located, its 64-bit word (and, when the value
        straddles a word boundary, the next word -- :meth:`pack` always
        leaves a guard word at the end) is gathered, and the value is
        shifted/masked out.  Touching ``ceil(k * bit_width / 8)`` packed
        bytes for ``k`` gathered values instead of ``4 * k`` is the scan
        saving the compressed scan path charges.
        """
        width = np.uint64(self.bit_width)
        positions = np.asarray(indices).astype(np.uint64) * width
        word_index = (positions >> np.uint64(6)).astype(np.int64)
        bit_offset = positions & np.uint64(63)
        mask = (np.uint64(1) << width) - np.uint64(1) if self.bit_width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)

        low = self.packed[word_index] >> bit_offset
        spill = np.uint64(64) - bit_offset
        has_spill = spill < width
        high = np.zeros_like(low)
        if np.any(has_spill):
            high[has_spill] = self.packed[word_index[has_spill] + 1] << spill[has_spill]
        return ((low | high) & mask).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def packed_bytes(self) -> int:
        """Bytes occupied by the packed representation."""
        return int(np.ceil(self.num_values * self.bit_width / 8))

    @property
    def uncompressed_bytes(self) -> int:
        """Bytes the column occupies in the benchmark's 4-byte layout."""
        return self.num_values * self.reference_bytes_per_value

    @property
    def compression_ratio(self) -> float:
        """Uncompressed size over packed size (>1 means the packing helps)."""
        if self.packed_bytes == 0:
            return 1.0
        return self.uncompressed_bytes / self.packed_bytes

    def scan_speedup(self, decode_ops_per_value: float = 4.0, compute_throughput: float = 0.0) -> float:
        """Speedup of a bandwidth-bound scan from reading the packed column.

        When ``compute_throughput`` (values/second the device can decode) is
        zero the decode is assumed free -- the right approximation for GPUs,
        whose compute-to-bandwidth ratio the paper highlights; otherwise the
        speedup is capped by the decode rate.
        """
        bandwidth_gain = self.compression_ratio
        if compute_throughput <= 0:
            return bandwidth_gain
        # Time per value: packed read vs decode, relative to uncompressed read.
        packed_read = self.bit_width / 8.0
        decode = decode_ops_per_value / compute_throughput * 1e9  # pseudo-bytes equivalent
        uncompressed_read = float(self.reference_bytes_per_value)
        return uncompressed_read / max(packed_read, decode)
