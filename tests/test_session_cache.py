"""Tests for the Session's functional-execution memo and tolerant agreement."""

import asyncio
import time

import pytest

from repro.api import Q, Session, col, values_agree
from repro.engine.cache import ExecutionCache
from repro.engine.plan import execute_query
from repro.ssb.queries import QUERIES


class TestCompareCacheSharing:
    def test_compare_executes_once_and_replays(self, tiny_ssb):
        session = Session(tiny_ssb)
        comparison = session.compare(QUERIES["q2.1"], engines=["cpu", "gpu", "coprocessor"])
        info = session.cache_info()
        assert info.misses == 1
        assert info.hits == 2
        assert info.size == 1
        assert comparison.consistent

    def test_cached_answers_equal_uncached(self, tiny_ssb):
        cached = Session(tiny_ssb).run(QUERIES["q2.1"], engine="cpu")
        uncached = Session(tiny_ssb, cache=False).run(QUERIES["q2.1"], engine="cpu")
        assert cached.value == uncached.value
        assert cached.simulated_ms == uncached.simulated_ms

    def test_replayed_results_are_isolated_copies(self, tiny_ssb):
        session = Session(tiny_ssb)
        first = session.run(QUERIES["q2.1"], engine="cpu")
        first.value[next(iter(first.value))] = -1.0  # corrupt one engine's view
        second = session.run(QUERIES["q2.1"], engine="gpu")
        assert -1.0 not in second.value.values()

    def test_repeated_run_hits(self, tiny_ssb):
        session = Session(tiny_ssb)
        session.run(QUERIES["q1.1"], engine="cpu")
        session.run(QUERIES["q1.1"], engine="cpu")
        assert session.cache_info().hits == 1

    def test_distinct_queries_do_not_collide(self, tiny_ssb):
        session = Session(tiny_ssb)
        a = session.run(QUERIES["q1.1"], engine="cpu")
        b = session.run(QUERIES["q1.2"], engine="cpu")
        assert session.cache_info() == (0, 2, 2, 64)
        assert a.value != b.value


class TestOptOutAndLifecycle:
    def test_session_level_opt_out(self, tiny_ssb):
        session = Session(tiny_ssb, cache=False)
        session.compare(QUERIES["q1.1"], engines=["cpu", "gpu"])
        assert session.cache_info() == (0, 0, 0, 0)

    def test_per_call_opt_out(self, tiny_ssb):
        session = Session(tiny_ssb)
        session.run(QUERIES["q1.1"], engine="cpu", cache=False)
        session.run(QUERIES["q1.1"], engine="cpu", cache=False)
        assert session.cache_info() == (0, 0, 0, 64)

    def test_clear_cache(self, tiny_ssb):
        session = Session(tiny_ssb)
        session.run(QUERIES["q1.1"], engine="cpu")
        session.clear_caches()
        assert session.cache_info() == (0, 0, 0, 64)

    def test_lru_eviction_bounds_size(self, tiny_ssb):
        session = Session(tiny_ssb, cache_size=2)
        for name in ("q1.1", "q1.2", "q1.3"):
            session.run(QUERIES[name], engine="cpu")
        assert session.cache_info().size == 2

    def test_tiny_cache_rejected(self, tiny_ssb):
        with pytest.raises(ValueError, match="maxsize"):
            Session(tiny_ssb, cache_size=0)

    def test_cache_ignores_foreign_databases(self, tiny_ssb, small_ssb):
        cache = ExecutionCache(tiny_ssb)
        value, _ = cache.fetch(small_ssb, QUERIES["q1.1"], execute_query)
        assert cache.info() == (0, 0, 0, 64)
        direct, _ = execute_query(small_ssb, QUERIES["q1.1"])
        assert value == direct

    def test_builder_queries_are_cacheable(self, tiny_ssb):
        session = Session(tiny_ssb)
        query = Q().where(col("lo_quantity") < 25).agg("count")
        session.run(query, engine="cpu")
        session.run(query, engine="gpu")
        assert session.cache_info().hits == 1


class TestServedBuildsExactlyOnce:
    def test_racing_cold_queries_construct_each_artifact_once(self, tiny_ssb, monkeypatch):
        """Two service threads miss the same builds at the same moment; the
        build cache every execution now runs under arbitrates the race."""
        from repro.engine.physical import BuildLookup
        from repro.service.service import QueryService

        query = QUERIES["q2.1"]
        expected, _ = execute_query(tiny_ssb, query)
        constructed = []
        original = BuildLookup._build_from

        def slow_build(self, dimension):
            constructed.append(self.key)
            time.sleep(0.02)  # long enough for the other request to miss the same key
            return original(self, dimension)

        monkeypatch.setattr(BuildLookup, "_build_from", slow_build)

        async def serve():
            with Session(tiny_ssb, cache=False) as session:  # both requests really execute
                async with QueryService(session) as service:
                    outcomes = await asyncio.gather(service.submit(query), service.submit(query))
                return outcomes, session.cache_info("builds")

        outcomes, builds = asyncio.run(serve())
        assert [outcome.result.value for outcome in outcomes] == [expected, expected]
        assert len(constructed) == len(set(constructed)) == len(query.joins)
        assert (builds.hits, builds.misses) == (len(query.joins), len(query.joins))


class TestTolerantAgreement:
    def test_identical_values_agree(self):
        assert values_agree(1.5, 1.5)
        assert values_agree({(1,): 2.0}, {(1,): 2.0})
        assert values_agree(None, None)

    def test_float_noise_within_tolerance_agrees(self):
        a = {(1993,): 42534836369.0}
        b = {(1993,): 42534836369.0 * (1 + 1e-12)}
        assert a != b  # exact equality would report spurious disagreement
        assert values_agree(a, b)
        assert values_agree(1.0 / 3.0, (1.0 - 2.0 / 3.0))

    def test_real_disagreement_detected(self):
        assert not values_agree({(1993,): 1.0}, {(1993,): 2.0})
        assert not values_agree({(1993,): 1.0}, {(1994,): 1.0})
        assert not values_agree(1.0, None)

    def test_avg_aggregates_consistent_across_engines(self, tiny_ssb):
        """The motivating case: avg answers must not spuriously disagree."""
        session = Session(tiny_ssb)
        query = (
            Q()
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("avg", "lo_revenue")
        )
        comparison = session.compare(query, engines=["cpu", "gpu", "coprocessor"])
        assert comparison.consistent
        assert all(row.agrees for row in comparison.rows())
