"""Tests for the linear-probing hash table shared by the join implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.hash_table import EMPTY_KEY, FILL_FACTOR, LinearProbingHashTable


class TestBuild:
    def test_build_with_default_fill_factor(self):
        table = LinearProbingHashTable.build(np.arange(100), np.arange(100))
        assert table.num_keys == 100
        # 50% fill factor rounded up to a power of two.
        assert table.num_slots >= 200
        assert table.size_bytes == table.num_slots * 8

    def test_build_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            LinearProbingHashTable.build(np.array([-1, 2]), np.array([0, 0]))

    def test_build_rejects_misaligned_values(self):
        with pytest.raises(ValueError):
            LinearProbingHashTable.build(np.arange(4), np.arange(3))

    @pytest.mark.parametrize("num_keys", [0, 1, 3, 100, 1000])
    def test_build_sizes_the_table_at_the_fill_factor(self, num_keys):
        table = LinearProbingHashTable.build(np.arange(num_keys))
        wanted = max(1, int(np.ceil(num_keys / FILL_FACTOR)))
        # The smallest power of two that holds the keys at FILL_FACTOR.
        assert table.num_slots >= wanted > table.num_slots // 2
        assert table.build_stats.fill_factor <= FILL_FACTOR

    def test_insert_over_capacity(self):
        table = LinearProbingHashTable(num_slots=4)
        with pytest.raises(ValueError):
            table.insert(np.arange(10), np.arange(10))

    def test_duplicate_keys_last_write_wins(self):
        table = LinearProbingHashTable(num_slots=16)
        table.insert(np.array([3]), np.array([10]))
        table.insert(np.array([3]), np.array([20]))
        found, values = table.probe(np.array([3]))
        assert found[0] and values[0] == 20

    def test_slot_bytes(self):
        table = LinearProbingHashTable(num_slots=8)
        assert table.slot_bytes == 8


class TestProbe:
    def test_probe_hits_and_misses(self):
        keys = np.arange(0, 1000, 2)
        table = LinearProbingHashTable.build(keys, keys * 3)
        probe = np.array([0, 1, 2, 501, 998])
        found, values = table.probe(probe)
        assert list(found) == [True, False, True, False, True]
        assert values[0] == 0 and values[2] == 6 and values[4] == 998 * 3

    def test_probe_empty_input(self):
        table = LinearProbingHashTable.build(np.arange(10), np.arange(10))
        found, values = table.probe(np.array([], dtype=np.int64))
        assert found.shape == (0,) and values.shape == (0,)

    def test_empty_sentinel_never_collides_with_real_keys(self):
        assert EMPTY_KEY < 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           num_keys=st.integers(min_value=1, max_value=500))
    def test_probe_finds_exactly_the_inserted_keys(self, seed, num_keys):
        rng = np.random.default_rng(seed)
        keys = rng.choice(5000, size=num_keys, replace=False)
        values = rng.integers(0, 1000, num_keys)
        table = LinearProbingHashTable.build(keys, values)

        probes = rng.integers(0, 5000, 300)
        found, probed_values = table.probe(probes)
        lookup = dict(zip(keys.tolist(), values.tolist()))
        for key, was_found, value in zip(probes.tolist(), found.tolist(), probed_values.tolist()):
            assert was_found == (key in lookup)
            if was_found:
                assert value == lookup[key]
