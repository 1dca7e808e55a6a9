"""Morsel-parallel batch execution and thread-safe caches.

``Session.run_many(workers=N)`` partitions a batch across a thread pool:
each query is one morsel, workers pull morsels as they free up, and every
worker shares the session's lock-protected caches.  The contract under
test: results identical to serial execution (values *and* simulated
times, in input order), and each distinct dimension build constructed
exactly once no matter how the batch lands on the workers.
"""

import dataclasses
import threading

import pytest

from repro.api import Session
from repro.engine.cache import BuildArtifactCache, ExecutionCache
from repro.engine.physical import lower_query
from repro.engine.plan import QueryProfile
from repro.ssb.queries import QUERIES, QUERY_ORDER, FilterSpec

#: A query that prepares fine but blows up at execution time (the column
#: only goes missing once the scan actually touches the fact table).
BROKEN = dataclasses.replace(
    QUERIES["q1.1"], name="q_broken", fact_filters=(FilterSpec("lo_nope", "eq", 1),)
)


def _distinct_builds(queries):
    return {b.key for q in queries for b in lower_query(q).builds}


class TestThreadedRunMany:
    def test_matches_serial_results(self, tiny_ssb):
        queries = [QUERIES[name] for name in QUERY_ORDER]
        serial = Session(tiny_ssb, cache=False).run_many(queries, engine="cpu")
        threaded = Session(tiny_ssb, cache=False).run_many(
            queries, engine="cpu", workers=4
        )
        assert len(threaded) == len(serial)
        for a, b in zip(serial, threaded):
            assert a.query == b.query  # input order preserved
            assert a.value == b.value
            assert a.simulated_ms == b.simulated_ms

    def test_matches_serial_with_shared_builds(self, tiny_ssb):
        queries = [QUERIES[name] for name in QUERY_ORDER] * 2
        serial = Session(tiny_ssb, cache=False).run_many(queries, engine="cpu")
        threaded = Session(tiny_ssb, cache=False).run_many(
            queries, engine="cpu", workers=4
        )
        for a, b in zip(serial, threaded):
            assert a.value == b.value
            assert a.simulated_ms == b.simulated_ms

    @pytest.mark.parametrize("round_", range(5))
    def test_hammer_exactly_once_builds(self, tiny_ssb, round_):
        """Repeated fresh 26-query batches: one miss per distinct artifact."""
        queries = [QUERIES[name] for name in QUERY_ORDER] * 2
        session = Session(tiny_ssb, cache=False)
        session.run_many(queries, engine="cpu", workers=4)
        info = session.cache_info("builds")
        distinct = _distinct_builds(queries)
        assert info.misses == len(distinct)
        assert info.size == len(distinct)
        total_joins = sum(len(q.joins) for q in queries)
        assert info.hits + info.misses == total_joins

    def test_workers_with_execution_cache(self, tiny_ssb):
        """Duplicate queries in a threaded batch still agree with serial."""
        queries = [QUERIES["q2.1"], QUERIES["q2.1"], QUERIES["q3.1"], QUERIES["q2.1"]]
        session = Session(tiny_ssb)
        results = session.run_many(queries, engine="cpu", workers=4)
        reference = Session(tiny_ssb).run(QUERIES["q2.1"], engine="cpu")
        for result in (results[0], results[1], results[3]):
            assert result.value == reference.value
            assert result.simulated_ms == reference.simulated_ms

    def test_invalid_workers_rejected(self, tiny_ssb):
        with pytest.raises(ValueError, match="workers"):
            Session(tiny_ssb).run_many([QUERIES["q1.1"]], engine="cpu", workers=0)

    def test_bad_engine_fails_fast(self, tiny_ssb):
        session = Session(tiny_ssb)
        with pytest.raises(KeyError, match="unknown engine"):
            session.run_many(
                [QUERIES["q1.1"]], engine="gpx", workers=4
            )
        assert session.cache_info("builds").size == 0

    def test_single_worker_equals_workers_kwarg_absent(self, tiny_ssb):
        queries = [QUERIES["q1.1"], QUERIES["q2.1"]]
        default = Session(tiny_ssb, cache=False).run_many(queries, engine="cpu")
        explicit = Session(tiny_ssb, cache=False).run_many(queries, engine="cpu", workers=1)
        for a, b in zip(default, explicit):
            assert a.value == b.value


class TestErrorPropagation:
    """A failing morsel must surface -- never hang the pool or scramble order."""

    BATCH = [QUERIES["q1.1"], BROKEN, QUERIES["q2.1"], QUERIES["q3.1"]]

    def test_threaded_failure_raises_without_deadlock(self, tiny_ssb):
        session = Session(tiny_ssb, cache=False)
        with pytest.raises(KeyError, match="lo_nope"):
            session.run_many(self.BATCH, engine="cpu", workers=4)
        # The pool drained cleanly: the same session keeps working.
        results = session.run_many([QUERIES["q1.1"]], engine="cpu", workers=4)
        assert results[0].value is not None

    def test_threaded_return_exceptions_keeps_survivors_in_order(self, tiny_ssb):
        serial = Session(tiny_ssb, cache=False).run_many(
            [q for q in self.BATCH if q.name != "q_broken"], engine="cpu"
        )
        mixed = Session(tiny_ssb, cache=False).run_many(
            self.BATCH, engine="cpu", workers=4, return_exceptions=True
        )
        assert isinstance(mixed[1], KeyError)
        survivors = [mixed[0], mixed[2], mixed[3]]
        for got, expected in zip(survivors, serial):
            assert got.query == expected.query  # input order preserved
            assert got.value == expected.value
            assert got.simulated_ms == expected.simulated_ms

    def test_serial_paths_honor_return_exceptions(self, tiny_ssb):
        session = Session(tiny_ssb, cache=False)
        with pytest.raises(KeyError, match="lo_nope"):
            session.run_many(self.BATCH, engine="cpu")
        mixed = session.run_many(self.BATCH, engine="cpu", return_exceptions=True)
        assert isinstance(mixed[1], KeyError)
        assert [r.query for i, r in enumerate(mixed) if i != 1] == ["q1.1", "q2.1", "q3.1"]

    def test_first_failure_in_input_order_is_what_raises(self, tiny_ssb):
        other = dataclasses.replace(BROKEN, name="q_broken2")
        batch = [BROKEN, QUERIES["q1.1"], other]
        mixed = Session(tiny_ssb, cache=False).run_many(
            batch, engine="cpu", workers=4, return_exceptions=True
        )
        assert isinstance(mixed[0], KeyError) and isinstance(mixed[2], KeyError)
        assert mixed[1].value is not None


class TestBuildArtifactCacheConcurrency:
    def test_racing_fetches_build_exactly_once(self, tiny_ssb):
        """N threads slam one key; the build body runs once."""
        cache = BuildArtifactCache(tiny_ssb)
        constructions = []
        barrier = threading.Barrier(8)
        release = threading.Event()

        def slow_build():
            constructions.append(threading.get_ident())
            release.wait(timeout=5)  # hold every waiter in the in-flight path
            return object()

        results = [None] * 8

        def worker(i):
            barrier.wait(timeout=5)
            if i == 0:
                results[i] = cache.fetch(tiny_ssb, "shared-key", slow_build)
            else:
                # Give the owner a head start, then pile on.
                results[i] = cache.fetch(tiny_ssb, "shared-key", slow_build)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert len(constructions) == 1
        assert all(r is results[0] for r in results)
        assert cache.info().misses == 1
        assert cache.info().hits == 7

    def test_failed_build_releases_waiters(self, tiny_ssb):
        cache = BuildArtifactCache(tiny_ssb)
        attempts = []

        def failing_then_ok():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("flaky build")
            return "artifact"

        with pytest.raises(RuntimeError, match="flaky build"):
            cache.fetch(tiny_ssb, "key", failing_then_ok)
        # The in-flight slot was cleaned up: the next fetch owns a new build.
        assert cache.fetch(tiny_ssb, "key", failing_then_ok) == "artifact"
        assert cache.info().misses == 2

    def test_distinct_keys_build_in_parallel(self, tiny_ssb):
        """The lock guards the LRU, not the build work itself."""
        cache = BuildArtifactCache(tiny_ssb)
        inside = threading.Barrier(2)

        def build():
            # Both builders must be inside their build() bodies at once; a
            # cache that held its lock across build() would deadlock here.
            inside.wait(timeout=5)
            return object()

        threads = [
            threading.Thread(target=cache.fetch, args=(tiny_ssb, key, build))
            for key in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert cache.info().misses == 2


class TestExecutionCacheConcurrency:
    def test_concurrent_fetches_stay_consistent(self, tiny_ssb):
        cache = ExecutionCache(tiny_ssb, maxsize=4)
        names = sorted(QUERIES)
        errors = []

        def worker():
            try:
                for name in names:
                    value, profile = cache.fetch(
                        tiny_ssb,
                        QUERIES[name],
                        lambda db, q: (("value", q.name), QueryProfile(q.name, 0, 1.0)),
                    )
                    assert value == ("value", name)
                    assert profile.query == name
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        info = cache.info()
        assert info.size <= 4
        assert info.hits + info.misses == 6 * len(names)
