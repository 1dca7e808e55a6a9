"""Tests for the Session's functional-execution memo and tolerant agreement."""

import asyncio
import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Q, ResultSet, Session, available_engines, col, values_agree
from repro.engine.cache import ExecutionCache
from repro.engine.plan import execute_query
from repro.ssb import generate_lineorder_batch, generate_ssb
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
        cache = ExecutionCache(tiny_ssb, maxsize=2)
        for name in ("q1.1", "q1.2", "q1.3"):
            cache.fetch(tiny_ssb, QUERIES[name], execute_query)
        assert cache.info().size == 2

    def test_tiny_cache_rejected(self, tiny_ssb):
        with pytest.raises(ValueError, match="maxsize"):
            ExecutionCache(tiny_ssb, maxsize=0)

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


# ----------------------------------------------------------------------
# A hit replays the finished result
# ----------------------------------------------------------------------

#: A builder query whose answer is a float average per group.
AVG_BY_YEAR = (
    Q()
    .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
    .group_by("d_year")
    .agg("avg", "lo_revenue")
)
REPLAYED = [QUERIES["q1.1"], QUERIES["q2.1"], QUERIES["q3.1"], QUERIES["q4.3"], AVG_BY_YEAR]


def _observed(result) -> tuple:
    """Everything a caller can read off a ResultSet."""
    return (
        result.value,
        result.simulated_ms,
        result.time.components,
        result.traffic,
        result.stats,
        result.columns,
        result.records,
    )


def _vandalize(result) -> None:
    """Mutate every container a result exposes."""
    key = next(iter(result.value))
    result.value[key] = -1.0
    result.value[("bogus",)] = 0.0
    result.time.components.clear()
    result.time.components["bogus"] = 1.0
    result.traffic.sequential_read_bytes = -1.0
    result.traffic.notes.append("bogus")
    result.stats.clear()
    result.stats["bogus"] = -1.0


class TestReplayEquivalence:
    def test_every_engine_replays_what_an_uncached_run_returns(self):
        """Six engines x five queries, at first run and on hits, after a
        fact append, after a dimension append, and through ``shards=2``."""
        db = generate_ssb(scale_factor=0.005, seed=31)  # private: the test appends
        engines = available_engines()
        assert len(engines) == 6
        with Session(db) as session:

            def check(shards=None):
                for query in REPLAYED:
                    for engine in engines:
                        expected = session.run(query, engine=engine, cache=False, shards=shards)
                        for _ in range(2):  # the first call stores, the second replays
                            got = session.run(query, engine=engine, shards=shards)
                            assert _observed(got) == _observed(expected), (query, engine, shards)
                            assert got.spec == expected.spec

            calls = 2 * len(REPLAYED) * len(engines)
            check()
            # Per query: one miss, then every other call hit (fetch or replay).
            assert session.cache_info()[:2] == (calls - len(REPLAYED), len(REPLAYED))
            fact = db.table("lineorder")
            session.ingest("lineorder", generate_lineorder_batch(db, 64, seed=5))
            check()
            supplier = db.table("supplier")
            row = {name: supplier[name][:1] for name in supplier.columns}
            row["s_suppkey"] = np.array([supplier.num_rows], dtype=supplier["s_suppkey"].dtype)
            session.ingest("supplier", row)
            check()
            check(shards=2)
            assert fact.version == supplier.version == 1


class TestReplayIsolation:
    def test_mutating_a_result_never_leaks(self, tiny_ssb):
        session = Session(tiny_ssb)
        query = QUERIES["q2.1"]
        engines = ("cpu", "gpu")
        pristine = {engine: _observed(session.run(query, engine=engine, cache=False)) for engine in engines}
        for _ in range(3):  # the storing run, then replays
            for engine in engines:
                result = session.run(query, engine=engine)
                assert _observed(result) == pristine[engine]
                _vandalize(result)
        assert session.cache_info()[:2] == (5, 1)


class TestReplayCounters:
    """``cache_info()`` and request traces count exactly what they did
    before a hit became a replay."""

    def test_compare_then_compare_again(self, tiny_ssb):
        session = Session(tiny_ssb)
        session.compare(QUERIES["q2.1"], engines=["cpu", "gpu", "coprocessor"])
        assert session.cache_info() == (2, 1, 1, 64)
        session.compare(QUERIES["q2.1"], engines=["cpu", "gpu", "coprocessor"])
        assert session.cache_info() == (5, 1, 1, 64)

    def test_repeated_run(self, tiny_ssb):
        session = Session(tiny_ssb)
        for _ in range(3):
            session.run(QUERIES["q3.1"], engine="cpu")
        session.run(QUERIES["q3.1"], engine="hyper")
        assert session.cache_info() == (3, 1, 1, 64)

    def test_run_many_on_two_workers(self, tiny_ssb):
        session = Session(tiny_ssb)
        queries = [QUERIES["q1.1"], QUERIES["q2.1"]]
        session.run_many(queries)
        assert session.cache_info() == (0, 2, 2, 64)
        session.run_many(queries * 3, workers=2)
        assert session.cache_info() == (6, 2, 2, 64)

    def test_service_traces(self, tiny_ssb):
        from repro.service.service import QueryService

        async def serve():
            with Session(tiny_ssb) as session:
                async with QueryService(session) as service:
                    outcomes = [await service.submit(QUERIES["q4.1"]) for _ in range(3)]
                return outcomes, session.cache_info()

        outcomes, info = asyncio.run(serve())
        assert [outcome.trace.execution_cached for outcome in outcomes] == [False, True, True]
        assert info == (2, 1, 1, 64)


class TestReplayCost:
    def test_stored_engine_hit_does_no_work(self, tiny_ssb, monkeypatch):
        """Clock-free: a replay neither computes, costs, decodes nor deep-copies."""
        import copy

        from repro.engine import plan

        session = Session(tiny_ssb)
        engines = available_engines()
        query = QUERIES["q2.1"]
        first = {engine: _observed(session.run(query, engine=engine)) for engine in engines}
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(plan, "_execute_query_uncached", counting("compute", plan._execute_query_uncached))
        monkeypatch.setattr(copy, "deepcopy", counting("deepcopy", copy.deepcopy))
        from_result = ResultSet.from_result.__func__
        monkeypatch.setattr(ResultSet, "from_result", classmethod(counting("decode", from_result)))
        for engine in engines:
            cls = type(session.engine(engine))
            monkeypatch.setattr(cls, "simulate", counting("simulate", cls.simulate))
        for engine in engines:
            assert _observed(session.run(query, engine=engine)) == first[engine]
        assert calls == []
        assert session.cache_info()[:2] == (2 * len(engines) - 1, 1)


class TestReplayEviction:
    def test_eviction_drops_the_engine_products(self, tiny_ssb):
        computed = []

        def compute(db, query):
            computed.append(query.name)
            return execute_query(db, query)

        cache = ExecutionCache(tiny_ssb, maxsize=1)
        key = cache.key(tiny_ssb, QUERIES["q1.1"])
        cache.fetch(tiny_ssb, QUERIES["q1.1"], compute)
        cache.record(key, "cpu", ("decoded",), "cpu product")
        cache.record(key, "gpu", ("decoded",), "gpu product")
        assert cache.replay(key, "gpu")[2] == "gpu product"
        cache.fetch(tiny_ssb, QUERIES["q1.2"], compute)  # evicts q1.1 with both products
        assert not cache.stores(key, "cpu") and cache.replay(key, "gpu") is None
        value, _ = cache.fetch(tiny_ssb, QUERIES["q1.1"], compute)
        assert computed == ["q1.1", "q1.2", "q1.1"]
        assert cache.info() == (1, 3, 1, 1)
        assert value == execute_query(tiny_ssb, QUERIES["q1.1"])[0]


class TestReplayRace:
    def test_threads_on_one_key_agree_and_every_call_counts_once(self, tiny_ssb):
        session = Session(tiny_ssb)
        query = QUERIES["q3.2"]
        engines = ("cpu", "monetdb")
        expected = {engine: _observed(session.run(query, engine=engine, cache=False)) for engine in engines}
        rounds = 5
        start = threading.Barrier(4)
        mismatches, errors = [], []

        def worker(index):
            try:
                start.wait(timeout=10)
                for i in range(rounds):
                    for engine in engines[index % 2 :] + engines[: index % 2]:
                        if _observed(session.run(query, engine=engine)) != expected[engine]:
                            mismatches.append((index, i, engine))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the lookup, store and replay steps finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not mismatches
        info = session.cache_info()
        assert info.hits + info.misses == 4 * rounds * len(engines)
        assert info.size == 1


class TestServedHitCounts:
    """What a served request does besides replaying, counted without a
    clock: memo-key builds, spec hashes and execution contexts built."""

    @staticmethod
    def serve(session, query, times):
        from repro.service.service import QueryService

        async def go():
            async with QueryService(session) as service:
                return [await service.submit(query) for _ in range(times)]

        return asyncio.run(go())

    def test_key_builds_per_served_miss_and_hit(self, tiny_ssb, monkeypatch):
        built = []
        key = ExecutionCache.key

        def counting(self, db, query):
            built.append(query)
            return key(self, db, query)

        monkeypatch.setattr(ExecutionCache, "key", counting)
        with Session(tiny_ssb) as session:
            counts = []
            for _ in range(3):
                before = len(built)
                (outcome,) = self.serve(session, QUERIES["q2.1"], 1)
                counts.append((outcome.trace.plane, len(built) - before))
        # A miss: the look on the loop, the worker's replay attempt, the
        # engine's fetch, and the version guard before storing the product.
        # A hit: the look, then the replay inside Session.run.
        assert counts == [("monolithic", 4), ("cache", 2), ("cache", 2)]

    def test_a_query_is_field_hashed_once_across_hits(self, tiny_ssb, monkeypatch):
        from repro.ssb import queries

        hashed = []
        field_hash = queries._field_hash
        monkeypatch.setattr(
            queries, "_field_hash", lambda query: hashed.append(query) or field_hash(query)
        )
        query = dataclasses.replace(QUERIES["q3.1"], name="fresh")
        with Session(tiny_ssb) as session:
            outcomes = self.serve(session, query, 4)
        assert [outcome.trace.plane for outcome in outcomes] == ["monolithic"] + ["cache"] * 3
        assert sum(1 for seen in hashed if seen is query) == 1

    def test_the_unsharded_context_is_built_once_per_fault_plan(self, tiny_ssb):
        from repro.faults import FaultPlan

        session = Session(tiny_ssb)
        first = session.context()
        assert session.context() is first and session.context(shards=1) is first
        uncached = session.context(cache=False)
        assert uncached is not first and uncached.cache is None
        assert session.context(cache=False) is uncached
        session.faults = FaultPlan([])
        rebuilt = session.context()
        assert rebuilt is not first and rebuilt.faults is session.faults
        assert session.context() is rebuilt
        session.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            session.context(shards=2)  # sharded contexts are built per call
