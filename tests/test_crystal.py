"""Tests for the Crystal block-wide functions and fused kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.crystal import (
    BlockContext,
    CrystalKernel,
    Tile,
    block_aggregate,
    block_load,
    block_load_sel,
    block_lookup,
    block_pred,
    block_pred_and,
    block_scan,
    block_shuffle,
    block_store,
)
from repro.ops.hash_table import LinearProbingHashTable


class TestTile:
    def test_defaults(self):
        tile = Tile(values=np.arange(8, dtype=np.int32))
        assert tile.size == 8
        assert tile.values.dtype.itemsize == 4
        assert tile.matched_values().size == 8

    def test_partial_tile(self):
        tile = Tile(values=np.arange(8), size=5)
        assert list(tile.valid_values()) == [0, 1, 2, 3, 4]

    def test_bitmap_matching(self):
        tile = Tile(values=np.arange(8), bitmap=np.arange(8) % 2 == 0)
        assert list(tile.matched_values()) == [0, 2, 4, 6]
        assert tile.matched_values().size == 4

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Tile(values=np.arange(4), size=10)

    def test_mismatched_bitmap_rejected(self):
        with pytest.raises(ValueError):
            Tile(values=np.arange(4), bitmap=np.ones(3, dtype=bool))

    def test_empty(self):
        assert Tile.empty().size == 0

    def test_with_bitmap_shares_values_and_size(self):
        tile = Tile(values=np.arange(8), size=6)
        masked = tile.with_bitmap(np.arange(8) >= 3)
        assert masked.values is tile.values and masked.size == 6
        assert list(masked.matched_values()) == [3, 4, 5]
        assert tile.bitmap is None  # the original tile is untouched


class TestLoadPredScan:
    def test_block_load_charges_read_traffic(self):
        ctx = BlockContext()
        column = np.arange(1024, dtype=np.int32)
        tile = block_load(ctx, column)
        assert np.array_equal(tile.values, column)
        assert ctx.traffic.sequential_read_bytes == column.nbytes
        assert ctx.items_processed == 1024

    def test_block_load_copies(self):
        ctx = BlockContext()
        column = np.arange(16, dtype=np.int32)
        tile = block_load(ctx, column)
        tile.values[0] = 99
        assert column[0] == 0

    def test_block_load_sel_reads_less_when_selective(self):
        column = np.arange(4096, dtype=np.int32)
        sparse_ctx, dense_ctx = BlockContext(), BlockContext()
        sparse_bitmap = np.zeros(4096, dtype=bool)
        sparse_bitmap[:10] = True
        block_load_sel(sparse_ctx, column, sparse_bitmap)
        block_load_sel(dense_ctx, column, np.ones(4096, dtype=bool))
        assert sparse_ctx.traffic.sequential_read_bytes < dense_ctx.traffic.sequential_read_bytes
        assert dense_ctx.traffic.sequential_read_bytes <= column.nbytes

    def test_block_load_sel_zeroes_unselected(self):
        ctx = BlockContext()
        column = np.arange(1, 9, dtype=np.int32)
        bitmap = np.array([True, False] * 4)
        tile = block_load_sel(ctx, column, bitmap)
        assert list(tile.values[~bitmap]) == [0, 0, 0, 0]
        assert list(tile.matched_values()) == [1, 3, 5, 7]

    def test_block_pred(self):
        ctx = BlockContext()
        tile = Tile(values=np.arange(10, dtype=np.int32))
        tile = block_pred(ctx, tile, lambda v: v >= 5)
        assert tile.matched_values().size == 5

    def test_block_pred_partial_tile_excludes_tail(self):
        ctx = BlockContext()
        tile = Tile(values=np.arange(10, dtype=np.int32), size=4)
        tile = block_pred(ctx, tile, lambda v: v >= 0)
        assert tile.matched_values().size == 4

    def test_block_pred_and(self):
        ctx = BlockContext()
        tile = Tile(values=np.arange(10, dtype=np.int32))
        tile = block_pred(ctx, tile, lambda v: v >= 2)
        tile = block_pred_and(ctx, tile, lambda v: v < 7)
        assert list(tile.matched_values()) == [2, 3, 4, 5, 6]

    def test_block_pred_rejects_bad_shape(self):
        ctx = BlockContext()
        tile = Tile(values=np.arange(4))
        with pytest.raises(ValueError):
            block_pred(ctx, tile, lambda v: np.array([True]))

    def test_block_scan_offsets_and_total(self):
        ctx = BlockContext()  # default tile size 512
        values = np.arange(8, dtype=np.int32)
        tile = Tile(values=values, bitmap=values % 2 == 0)
        offsets, tile_totals, total = block_scan(ctx, tile)
        assert total == 4
        assert list(offsets) == [0, 1, 1, 2, 2, 3, 3, 4]
        assert list(tile_totals) == [4]
        assert ctx.barriers_per_tile >= 2

    def test_block_scan_per_tile(self):
        from repro.sim.gpu import KernelLaunch
        ctx = BlockContext(launch=KernelLaunch(threads_per_block=2, items_per_thread=2))
        values = np.arange(8, dtype=np.int32)
        tile = Tile(values=values, bitmap=np.ones(8, dtype=bool))
        offsets, tile_totals, total = block_scan(ctx, tile)
        assert total == 8
        assert list(tile_totals) == [4, 4]
        # Offsets restart at each logical tile of 4 items.
        assert list(offsets) == [0, 1, 2, 3, 0, 1, 2, 3]


class TestShuffleStoreAggregate:
    def test_block_shuffle_compacts(self):
        ctx = BlockContext()
        values = np.array([5, 1, 7, 3], dtype=np.int32)
        tile = Tile(values=values, bitmap=np.array([True, False, True, False]))
        shuffled = block_shuffle(ctx, tile)
        assert shuffled.size == 2
        assert list(shuffled.valid_values()) == [5, 7]

    def test_block_store_writes_at_offset(self):
        ctx = BlockContext()
        out = np.zeros(10, dtype=np.int32)
        tile = Tile(values=np.array([4, 5, 6], dtype=np.int32))
        written = block_store(ctx, tile, out, offset=2)
        assert written == 3
        assert list(out[2:5]) == [4, 5, 6]
        assert ctx.traffic.sequential_write_bytes == 12

    def test_block_store_rejects_overflow(self):
        ctx = BlockContext()
        out = np.zeros(2, dtype=np.int32)
        with pytest.raises(ValueError):
            block_store(ctx, Tile(values=np.arange(4, dtype=np.int32)), out, 0)

    def test_block_aggregate_sum_and_counter(self):
        ctx = BlockContext()
        tile = Tile(values=np.arange(10, dtype=np.int64))
        total = block_aggregate(ctx, tile, op="sum")
        assert total == 45.0
        assert ctx.counters["aggregate"] == 45.0
        assert ctx.traffic.atomic_updates >= 1

    def test_block_aggregate_min_max_count(self):
        ctx = BlockContext()
        tile = Tile(values=np.array([3, 9, 1], dtype=np.int64))
        assert block_aggregate(ctx, tile, op="min", update_global=False) == 1.0
        assert block_aggregate(ctx, tile, op="max", update_global=False) == 9.0
        assert block_aggregate(ctx, tile, op="count", update_global=False) == 3.0

    def test_block_aggregate_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            block_aggregate(BlockContext(), Tile(values=np.arange(3)), op="median")

    def test_block_aggregate_respects_bitmap(self):
        ctx = BlockContext()
        tile = Tile(values=np.arange(10, dtype=np.int64), bitmap=np.arange(10) < 3)
        assert block_aggregate(ctx, tile, op="sum", update_global=False) == 3.0


class TestBlockLookup:
    def test_lookup_finds_matches(self):
        table = LinearProbingHashTable.build(np.arange(100), np.arange(100) * 10)
        ctx = BlockContext()
        keys = Tile(values=np.array([5, 200, 42], dtype=np.int64))
        found, values = block_lookup(ctx, keys, table)
        assert list(found) == [True, False, True]
        assert values[0] == 50 and values[2] == 420
        assert ctx.traffic.random_accesses == 3
        assert ctx.traffic.random_working_set_bytes == table.size_bytes

    def test_lookup_respects_bitmap(self):
        table = LinearProbingHashTable.build(np.arange(100), np.arange(100))
        ctx = BlockContext()
        keys = Tile(values=np.array([1, 2, 3], dtype=np.int64),
                    bitmap=np.array([True, False, True]))
        found, _ = block_lookup(ctx, keys, table)
        assert list(found) == [True, False, True]
        assert ctx.traffic.random_accesses == 2


class TestCrystalKernel:
    def _selection_kernel(self, column, threshold, **kwargs):
        def body(ctx):
            out = np.zeros_like(column)
            tile = block_load(ctx, column)
            tile = block_pred(ctx, tile, lambda v: v > threshold)
            offsets, _, total = block_scan(ctx, tile)
            cursor = ctx.atomic_add("out", total)
            shuffled = block_shuffle(ctx, tile, offsets)
            block_store(ctx, shuffled, out, cursor, total)
            return out[:total]

        return CrystalKernel(body, **kwargs).run()

    def test_docstring_example(self):
        column = np.arange(16, dtype=np.int32)
        result = self._selection_kernel(column, 7)
        assert list(result.value) == list(range(8, 16))
        assert result.milliseconds > 0
        assert result.traffic.sequential_read_bytes == column.nbytes

    def test_fused_kernel_reads_input_once(self):
        column = np.arange(4096, dtype=np.int32)
        result = self._selection_kernel(column, 0)
        assert result.traffic.sequential_read_bytes == pytest.approx(column.nbytes)

    @settings(max_examples=25, deadline=None)
    @given(
        values=hnp.arrays(np.int32, st.integers(min_value=1, max_value=2000),
                          elements=st.integers(min_value=-1000, max_value=1000)),
        threshold=st.integers(min_value=-1000, max_value=1000),
    )
    def test_selection_matches_numpy_for_any_input(self, values, threshold):
        result = self._selection_kernel(values, threshold)
        expected = values[values > threshold]
        assert np.array_equal(np.sort(result.value), np.sort(expected))

    def test_larger_tiles_issue_fewer_atomics(self):
        column = np.arange(1 << 16, dtype=np.int32)
        small = self._selection_kernel(column, 100, threads_per_block=32, items_per_thread=1)
        large = self._selection_kernel(column, 100, threads_per_block=256, items_per_thread=4)
        assert small.traffic.atomic_updates > large.traffic.atomic_updates
