"""Tests for the analytic and LRU cache models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import AnalyticCacheModel, SetAssociativeCache


class TestAnalyticCacheModel:
    def test_hit_ratio_when_working_set_fits(self):
        cache = AnalyticCacheModel(capacity_bytes=1024)
        assert cache.hit_ratio(512) == 1.0
        assert cache.fits(1024)

    def test_hit_ratio_partial(self):
        cache = AnalyticCacheModel(capacity_bytes=1024)
        assert cache.hit_ratio(4096) == pytest.approx(0.25)

    def test_hit_ratio_degenerate_working_set(self):
        cache = AnalyticCacheModel(capacity_bytes=1024)
        assert cache.hit_ratio(0) == 1.0

    @given(ws=st.floats(min_value=1.0, max_value=1e12))
    def test_hit_ratio_bounded(self, ws):
        cache = AnalyticCacheModel(capacity_bytes=6 * 1024 * 1024)
        ratio = cache.hit_ratio(ws)
        assert 0.0 <= ratio <= 1.0

    def test_paper_part_hash_table_example(self):
        """Section 5.3: pi = 5.7 MB / 8 MB for the part hash table in the GPU L2."""
        cache = AnalyticCacheModel(capacity_bytes=int(5.7 * 2**20))
        assert cache.hit_ratio(8 * 2**20) == pytest.approx(5.7 / 8, rel=1e-3)


class TestSetAssociativeCache:
    def test_repeat_access_hits(self):
        cache = SetAssociativeCache(capacity_bytes=4096, line_bytes=64, associativity=4)
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(63) is True  # same line
        assert cache.access(64) is False  # next line

    def test_lru_eviction_within_set(self):
        # Two-line direct-mapped-ish cache: 2 sets x 1 way.
        cache = SetAssociativeCache(capacity_bytes=128, line_bytes=64, associativity=1)
        cache.access(0)       # set 0
        cache.access(128)     # set 0, evicts line 0
        assert cache.access(0) is False  # was evicted

    def test_flush(self):
        cache = SetAssociativeCache(capacity_bytes=4096)
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_stats_accumulate(self):
        cache = SetAssociativeCache(capacity_bytes=4096)
        cache.access_many([0, 0, 64, 64])
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_warm_does_not_count(self):
        cache = SetAssociativeCache(capacity_bytes=4096)
        cache.warm([0, 64, 128])
        assert cache.stats.accesses == 0
        assert cache.access(0) is True

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_analytic_model_matches_lru_for_uniform_probes(self, seed):
        """Steady-state LRU hit ratio under uniform probing matches min(S/H, 1)."""
        rng = np.random.default_rng(seed)
        capacity = 16 * 1024
        working_set = 64 * 1024
        cache = SetAssociativeCache(capacity_bytes=capacity, line_bytes=64, associativity=8)
        addresses = rng.integers(0, working_set, 20_000)
        cache.warm(addresses[:5_000])
        stats = cache.access_many(addresses[5_000:])
        expected = AnalyticCacheModel(capacity, 64).hit_ratio(working_set)
        assert stats.hit_ratio == pytest.approx(expected, abs=0.08)
