"""Process-parallel sharded execution (the escape-the-GIL plane).

The sharded plane's contract is the same one every prior plane pinned:
splitting a query across worker processes may change *how* the work runs,
never *what* it computes.  The differential suites here hold ``shards=N``
byte-identical -- answers **and** profiles -- to the monolithic executor on
all 13 canonical queries plus OR-tree extras, at multiple shard counts,
under both the ``fork`` and ``spawn`` start methods.

Beyond the differential guarantee:

* property-style merge tests drive all five aggregate ops through
  adversarial shard splits (empty shards, single-row shards, groups that
  appear in only one shard) without paying for a process pool, and a
  generated one checks the partial-aggregate algebra's laws (exact,
  associative, commutative, empty range = identity) under cut points,
  orders and bracketings nobody hand-picked;
* leak-safety tests create and destroy sharded sessions in a loop and
  assert every segment is released at close time (end-of-run ``/dev/shm``
  hygiene is the session-scoped ``shm_leak_guard`` fixture's job);
* cache-keying tests pin the regression that ``shards=1`` and the
  morsel-threaded path share execution-cache entries while ``shards=N``
  keys separately (its pool dispatch is real work the memo must not elide
  into the single-process entry's accounting).
"""

import asyncio
import glob
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Q, Session, col
from repro.context import activate_context
from repro.engine.cache import BuildArtifactCache, ZoneMapCache, activate_builds, activate_zones
from repro.engine.plan import (
    combine_partials,
    execute_query,
    execute_query_monolithic,
    finalize_partial,
    fold_shard_profiles,
    merge_partial_aggregates,
)
from repro.engine.shard import ShardExecutor, partial_for_range, shard_ranges
from repro.ssb.queries import QUERIES
from repro.storage.zonemap import DEFAULT_ZONE_SIZE, cluster_by

START_METHODS = ("fork", "spawn")


def _shm_segments() -> list:
    return glob.glob("/dev/shm/repro-shm*")


# ----------------------------------------------------------------------
# Shard planner: zone-aligned range splits
# ----------------------------------------------------------------------


class TestShardRanges:
    @pytest.mark.parametrize(
        "num_rows,shards,zone_size",
        [
            (0, 1, 8), (0, 4, 8), (1, 1, 8), (1, 4, 8), (7, 2, 8), (8, 2, 8),
            (9, 2, 8), (64, 3, 8), (65, 3, 8), (1000, 7, 16), (1000, 1, 4096),
            (100_000, 5, 4096), (3, 10, 1),
        ],
    )
    def test_partitions_exactly(self, num_rows, shards, zone_size):
        ranges = shard_ranges(num_rows, shards, zone_size)
        assert len(ranges) == shards
        cursor = 0
        for start, stop in ranges:
            assert start == cursor  # contiguous, disjoint, ordered
            assert stop >= start
            cursor = stop
        assert cursor == num_rows  # covers [0, num_rows) exactly

    @pytest.mark.parametrize("num_rows,shards,zone_size", [(100, 3, 8), (1000, 7, 16)])
    def test_boundaries_zone_aligned(self, num_rows, shards, zone_size):
        for start, stop in shard_ranges(num_rows, shards, zone_size):
            assert start % zone_size == 0
            assert stop % zone_size == 0 or stop == num_rows

    def test_more_shards_than_zones_gives_empty_ranges(self):
        ranges = shard_ranges(10, 8, zone_size=8)  # 2 zones, 8 shards
        assert sum(1 for start, stop in ranges if stop > start) == 2
        assert sum(1 for start, stop in ranges if stop == start) == 6
        assert ranges[-1][1] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)
        with pytest.raises(ValueError):
            shard_ranges(10, 2, zone_size=0)


# ----------------------------------------------------------------------
# Merge properties: all five ops across adversarial splits (in-process)
# ----------------------------------------------------------------------

AGG_OPS = ("sum", "count", "min", "max", "avg")

#: Boundary lists, resolved against the fact row count at test time; each
#: one stresses a different adversarial shape.
def _adversarial_splits(n):
    return [
        [0, n],                                  # single shard == monolithic
        [0, 0, n],                               # leading empty shard
        [0, n, n],                               # trailing empty shard
        [0, 1, n],                               # single-row shard
        [0, 1, 2, 3, n],                         # several single-row shards
        [0, n // 3, n // 3, 2 * n // 3, n],      # empty middle shard
        [0, n // 2, n],                          # plain halves
    ]


def _query_for(op, db, grouped):
    builder = (
        Q("lineorder")
        .where(col("lo_discount").between(1, 3))
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
    )
    # ``count`` counts surviving rows, so it takes no measure column.
    builder = builder.agg(op) if op == "count" else builder.agg(op, "lo_revenue")
    if grouped:
        builder = builder.group_by("d_year")
    return builder.build(db)


def _bracketed(partials, draw):
    """Combine ``partials`` pairwise under a drawn parenthesization."""
    if len(partials) == 1:
        return partials[0]
    cut = draw(st.integers(1, len(partials) - 1))
    return combine_partials([_bracketed(partials[:cut], draw), _bracketed(partials[cut:], draw)])


@pytest.fixture(scope="module")
def algebra_cases(tiny_ssb):
    """Per ``(op, grouped)``: the query and its reference answer, plus one
    zone-map cache shared by every generated example (statistics build once)."""
    table = {}
    for op in AGG_OPS:
        for grouped in (False, True):
            query = _query_for(op, tiny_ssb, grouped)
            table[op, grouped] = (query, execute_query_monolithic(tiny_ssb, query)[0])
    return table, ZoneMapCache(tiny_ssb)


class TestPartialMerge:
    @pytest.mark.parametrize("grouped", [False, True], ids=["scalar", "grouped"])
    @pytest.mark.parametrize("op", AGG_OPS)
    def test_all_ops_all_splits(self, tiny_ssb, op, grouped):
        query = _query_for(op, tiny_ssb, grouped)
        expected_value, expected_profile = execute_query_monolithic(tiny_ssb, query)
        n = tiny_ssb.table("lineorder").num_rows
        for bounds in _adversarial_splits(n):
            parts = [
                partial_for_range(tiny_ssb, query, start, stop)
                for start, stop in zip(bounds, bounds[1:])
            ]
            value = merge_partial_aggregates([partial for partial, _ in parts])
            assert value == expected_value, f"op={op} bounds={bounds}"
            profile = fold_shard_profiles([profile for _, profile in parts], value)
            assert profile == expected_profile, f"op={op} bounds={bounds}"

    @pytest.mark.parametrize("op", AGG_OPS)
    def test_groups_present_in_only_one_shard(self, tiny_ssb, op):
        """Split on a group boundary so each group lives in exactly one shard.

        ``d_year`` correlates with ``lo_orderdate``, so sorting the split
        point by rows guarantees some groups are single-shard; merging must
        reproduce them bit-for-bit (no identity-element pollution from the
        shards that never saw the group).
        """
        query = _query_for(op, tiny_ssb, grouped=True)
        expected, _ = execute_query_monolithic(tiny_ssb, query)
        n = tiny_ssb.table("lineorder").num_rows
        for split in (1, n // 7, n // 2, n - 1):
            parts = [
                partial_for_range(tiny_ssb, query, start, stop)
                for start, stop in ((0, split), (split, n))
            ]
            merged = merge_partial_aggregates([partial for partial, _ in parts])
            assert merged == expected

    @pytest.mark.parametrize("grouped", [False, True], ids=["scalar", "grouped"])
    @pytest.mark.parametrize("op", AGG_OPS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_combine_is_an_exact_commutative_monoid(self, tiny_ssb, algebra_cases, op, grouped, data):
        """Generated cut points (duplicates give empty ranges; ones, zone
        edges and their neighbours give single-row and mid-zone ranges), a
        drawn order and a drawn bracketing, zone-pruned plane on."""
        table, zones = algebra_cases
        query, expected = table[op, grouped]
        n = tiny_ssb.table("lineorder").num_rows
        zone = DEFAULT_ZONE_SIZE
        edge = st.sampled_from([0, 1, zone - 1, zone, zone + 1, n - 1, n])
        cuts = sorted(data.draw(st.lists(st.integers(0, n) | edge, max_size=6), label="cuts"))
        bounds = [0, *cuts, n]
        with activate_zones(zones):
            partials = [partial_for_range(tiny_ssb, query, a, b)[0] for a, b in zip(bounds, bounds[1:])]
            empty, _ = partial_for_range(tiny_ssb, query, bounds[1], bounds[1])

        whole = combine_partials(partials)
        assert finalize_partial(whole) == expected
        assert merge_partial_aggregates(partials) == expected
        # Commutative and associative: any order, any bracketing, same partial
        # (dataclass equality: exact floats, dict order immaterial).
        shuffled = data.draw(st.permutations(partials), label="order")
        assert combine_partials(shuffled) == whole
        assert _bracketed(shuffled, data.draw) == whole
        # The partial over an empty range is the identity, on either side.
        assert combine_partials([whole, empty]) == whole
        assert combine_partials([empty, whole]) == whole
        assert combine_partials([empty, empty]) == empty

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_partial_aggregates([])
        with pytest.raises(ValueError):
            fold_shard_profiles([], None)


# ----------------------------------------------------------------------
# Span differential: ranges that ignore zone boundaries, zone plane on
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def clustered_ssb(tiny_ssb):
    """tiny_ssb with the fact table clustered by its date key (prunable)."""
    return cluster_by(tiny_ssb, "lineorder", "lo_orderdate")


def _span_splits(n):
    return [
        [0, n],                                   # the whole table as one span
        [0, 4095, 4097, 10_000, n],               # start and stop mid-zone, around a zone edge
        [0, 0, 5000, 5000, 5001, n, n],           # empty and single-row ranges, mid-zone
        [0, 1, 8192, n - 1, n],                   # single-row ranges at both ends, one aligned cut
    ]


class TestSpanDifferential:
    @pytest.mark.parametrize("zones", [True, False], ids=["zones", "plain"])
    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_all_13_queries_all_splits(self, request, name, layout, zones):
        db = request.getfixturevalue("tiny_ssb" if layout == "uniform" else "clustered_ssb")
        query = QUERIES[name]
        expected_value, expected_profile = execute_query_monolithic(db, query)
        n = db.table("lineorder").num_rows
        with activate_zones(ZoneMapCache(db) if zones else None):
            for bounds in _span_splits(n):
                parts = [partial_for_range(db, query, a, b) for a, b in zip(bounds, bounds[1:])]
                value = merge_partial_aggregates([partial for partial, _ in parts])
                assert value == expected_value, f"bounds={bounds}"
                profile = fold_shard_profiles([profile for _, profile in parts], value)
                assert profile == expected_profile, f"bounds={bounds}"

    @pytest.mark.parametrize("name", ["q1.1", "q2.1"])
    def test_partial_never_builds_a_span_wide_row_id_vector(self, small_ssb, name):
        """A guard that reads no clock: an ``int64`` row id per span row costs
        ``8 x (stop - start)`` bytes by itself, so a partial whose *peak* new
        allocation stays below that cannot have gathered the span."""
        n = small_ssb.table("lineorder").num_rows
        start, stop = shard_ranges(n, 2)[1]
        with activate_zones(ZoneMapCache(small_ssb)), activate_builds(BuildArtifactCache(small_ssb)):
            partial_for_range(small_ssb, QUERIES[name], start, stop)  # statistics and builds now cached
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                partial_for_range(small_ssb, QUERIES[name], start, stop)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak - before < 8 * (stop - start)


# ----------------------------------------------------------------------
# Pooled differential: real worker processes, fork and spawn
# ----------------------------------------------------------------------

OR_TREE_QUERIES = [
    lambda db: (
        Q("lineorder")
        .where(col("lo_discount").between(1, 3) | (col("lo_quantity") > 45))
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
        .group_by("d_year")
        .agg("sum", "lo_extendedprice", "lo_discount", combine="mul")
        .build(db)
    ),
    lambda db: (
        Q("lineorder")
        .where((col("lo_discount") <= 2) & ((col("lo_quantity") < 10) | (col("lo_quantity") > 40)))
        .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_region")
        .group_by("s_region")
        .agg("avg", "lo_revenue")
        .build(db)
    ),
]


@pytest.fixture(scope="module", params=START_METHODS)
def pooled(request, tiny_ssb):
    """One sharded session per start method, pool kept warm for the module."""
    session = Session(tiny_ssb, shard_start_method=request.param)
    yield session
    session.close()


class TestPooledDifferential:
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_all_13_queries(self, tiny_ssb, pooled, name, shards):
        query = QUERIES[name]
        expected_value, expected_profile = execute_query_monolithic(tiny_ssb, query)
        with activate_zones(pooled._zone_cache):
            value, profile, partials = pooled.shard_executor().execute(tiny_ssb, query, shards)
        assert value == expected_value
        assert profile == expected_profile
        # The partials handed back with the answer merge into it.
        assert len(partials) == shards
        assert merge_partial_aggregates(partials) == expected_value

    @pytest.mark.parametrize("index", range(len(OR_TREE_QUERIES)))
    def test_or_trees(self, tiny_ssb, pooled, index):
        query = OR_TREE_QUERIES[index](tiny_ssb)
        expected_value, expected_profile = execute_query_monolithic(tiny_ssb, query)
        with activate_zones(pooled._zone_cache):
            value, profile, _ = pooled.shard_executor().execute(tiny_ssb, query, 3)
        assert value == expected_value
        assert profile == expected_profile

    def test_session_run_matches_unsharded(self, tiny_ssb, pooled):
        sharded = pooled.run(QUERIES["q4.2"], shards=2, cache=False)
        plain = pooled.run(QUERIES["q4.2"], cache=False)
        assert sharded.records == plain.records
        assert sharded.result.stats == plain.result.stats
        assert sharded.result.time == plain.result.time

    def test_run_many_through_shard_pool(self, tiny_ssb, pooled):
        queries = [QUERIES[name] for name in sorted(QUERIES)[:4]]
        sharded = pooled.run_many(queries, shards=2, cache=False)
        plain = pooled.run_many(queries, cache=False)
        for a, b in zip(sharded, plain):
            assert a.records == b.records

    def test_counters_and_fallbacks(self, tiny_ssb, pooled):
        executor = pooled.shard_executor()
        before = pooled.counters()
        pooled.run(QUERIES["q1.1"], shards=2, cache=False)
        delta = pooled.counters() - before
        assert delta.shard_queries == 1
        assert delta.shard_tasks >= 2  # really dispatched: one task per shard
        assert delta.shard_fallbacks == 0
        # An off-database query cannot shard: it falls back, counted.
        from repro.ssb import generate_ssb

        foreign = generate_ssb(scale_factor=0.005, seed=3)
        value, _, _ = executor.execute(foreign, QUERIES["q1.1"], 2)
        expected, _ = execute_query_monolithic(foreign, QUERIES["q1.1"])
        assert value == expected
        assert executor.stats().fallbacks >= 1


class TestShardedZoneCounters:
    def test_counters_match_single_process_on_clustered_data(self, clustered_ssb):
        """Each zone is counted by the one shard whose range holds it, so
        ``shards=2`` reports the zones (and pruned rows) ``shards=1`` does."""
        def deltas(session):
            out = {}
            for name in sorted(QUERIES):
                before = session.cache_info("zones")
                session.run(QUERIES[name], cache=False)
                after = session.cache_info("zones")
                out[name] = tuple(
                    getattr(after, field) - getattr(before, field)
                    for field in ("zones_skipped", "zones_taken", "zones_evaluated", "rows_pruned")
                )
            return out

        with Session(clustered_ssb) as single, Session(clustered_ssb, shards=2) as sharded:
            expected, got = deltas(single), deltas(sharded)
            assert sharded.counters().shard_queries == len(QUERIES)
        assert got == expected
        assert any(skipped for skipped, _, _, _ in expected.values())  # the data really prunes


# ----------------------------------------------------------------------
# Satellite 1: execution-cache keying across execution strategies
# ----------------------------------------------------------------------


class TestCacheKeying:
    def test_shards_one_shares_entry_with_plain_and_threaded(self, tiny_ssb):
        with Session(tiny_ssb) as session:
            session.run(QUERIES["q1.1"])  # plain: miss, populates
            info = session.cache_info()
            assert (info.hits, info.misses) == (0, 1)
            session.run(QUERIES["q1.1"], shards=1)  # same key: hit
            info = session.cache_info()
            assert (info.hits, info.misses) == (1, 1)
            # The morsel-threaded path shares the same entries.
            session.run_many([QUERIES["q1.1"]] * 2, workers=2)
            info = session.cache_info()
            assert (info.hits, info.misses) == (3, 1)

    def test_sharded_entries_key_separately_but_agree(self, tiny_ssb):
        with Session(tiny_ssb) as session:
            plain = session.run(QUERIES["q2.1"])
            sharded = session.run(QUERIES["q2.1"], shards=2)
            info = session.cache_info()
            assert info.misses == 2  # distinct entries
            assert session.run(QUERIES["q2.1"], shards=2).records == sharded.records
            assert session.cache_info().hits == 1  # sharded entry replays
            # Truthful profiles: the sharded entry's accounting is the
            # byte-identical fold, so both entries answer identically.
            assert sharded.records == plain.records
            assert sharded.result.stats == plain.result.stats


# ----------------------------------------------------------------------
# Satellite 2: shared-memory leak safety
# ----------------------------------------------------------------------


class TestLeakSafety:
    """Eager-release behaviours the registry must localize per close.

    End-of-run ``/dev/shm`` hygiene is enforced globally by the
    session-scoped ``shm_leak_guard`` fixture in ``conftest.py`` (which
    also covers the chaos suite's worker kills and segment unlinks), so
    these tests no longer keep their own before/after baselines -- they
    pin that segments are released *at close time*, not merely by the end
    of the run.
    """

    @pytest.mark.parametrize("method", START_METHODS)
    def test_session_churn_releases_segments_at_close(self, tiny_ssb, method):
        for _ in range(3):
            with Session(tiny_ssb, shards=2, shard_start_method=method) as session:
                session.run(QUERIES["q1.2"], cache=False)
                executor = session.shard_executor()
                prefix = executor.registry._prefix
                assert executor.registry.num_segments > 0  # segments live
                assert any(prefix in path for path in _shm_segments())
            assert executor.registry.closed
            assert executor.registry.num_segments == 0
            assert not any(prefix in path for path in _shm_segments())

    def test_close_is_idempotent_and_unlinks(self, tiny_ssb):
        session = Session(tiny_ssb, shards=2)
        session.run(QUERIES["q1.1"], cache=False)
        executor = session.shard_executor()
        assert executor.registry.num_segments > 0
        session.close()
        session.close()
        assert executor.registry.closed
        assert executor.registry.num_segments == 0

    def test_closed_session_does_not_resurrect_its_pool(self, tiny_ssb):
        """A sharded run after ``close()`` used to build a fresh pool and
        fresh ``/dev/shm`` exports that nothing would ever close."""
        session = Session(tiny_ssb, shards=2)
        expected = session.run(QUERIES["q1.1"], cache=False).value
        prefix = session.shard_executor().registry._prefix
        session.close()
        segments = _shm_segments()
        assert not any(prefix in path for path in segments)
        with pytest.raises(RuntimeError, match="session is closed"):
            session.run(QUERIES["q1.1"], cache=False)
        with pytest.raises(RuntimeError, match="session is closed"):
            session.shard_executor()
        assert session._shards is None
        assert _shm_segments() == segments  # no leftover segment
        # Caches stay intact: unsharded runs keep working.
        assert session.run(QUERIES["q1.1"], cache=False, shards=1).value == expected

    def test_artifact_refs_stay_bounded(self, tiny_ssb, monkeypatch):
        """The parent used to table (and pin) one ref per join per query
        until ``close()`` -- with its ``/dev/shm`` segments, for artifacts
        too large to pickle inline.  Refs now live as long as their
        artifact can stay in the build cache, and no longer."""
        from repro.engine import shard

        monkeypatch.setattr(shard, "INLINE_ARTIFACT_BYTES", 0)  # ship every artifact through /dev/shm

        def cold(i):  # two joins whose dimension predicates never repeat
            return (
                Q("lineorder")
                .join("supplier", on=("lo_suppkey", "s_suppkey"), filters=[("s_suppkey", "gt", i)])
                .join("date", on=("lo_orderdate", "d_datekey"), filters=[("d_datekey", "gt", 19920101 + i)],
                      payload="d_year")
                .group_by("d_year")
                .agg("sum", "lo_revenue")
                .build(tiny_ssb)
            )

        with Session(tiny_ssb, shards=2, cache=False) as session:
            executor = session.shard_executor()
            prefix = executor.registry._prefix

            def footprint():
                return len(executor._artifact_refs), sum(prefix in path for path in _shm_segments())

            # The session's sharded context, with a 4-entry build cache.
            with activate_context(session.context(cache=False)):
                with activate_builds(BuildArtifactCache(tiny_ssb, maxsize=4)):
                    for i in range(30):
                        query = cold(i)
                        assert execute_query(tiny_ssb, query)[0] == execute_query_monolithic(tiny_ssb, query)[0]
                        refs, segments = footprint()
                        assert refs <= 4  # the build cache's size, not 2 per query so far
                    execute_query(tiny_ssb, QUERIES["q2.1"])
                    settled = footprint()
                    assert settled[1] <= segments  # the fact export plus two segments per tabled ref
                    expected = execute_query_monolithic(tiny_ssb, QUERIES["q2.1"])[0]
                    for _ in range(30):
                        assert execute_query(tiny_ssb, QUERIES["q2.1"])[0] == expected
                        assert footprint() == settled
        assert not any(prefix in path for path in _shm_segments())

    def test_no_process_outlives_an_interpreter_that_sharded(self):
        """``multiprocessing``'s resource tracker used to outlive a process
        that had used the shard plane by about a second."""
        script = textwrap.dedent(
            """
            from multiprocessing import resource_tracker
            from repro import QUERIES, Session, generate_ssb

            with Session(generate_ssb(scale_factor=0.005, seed=7), shards=2) as session:
                session.run(QUERIES["q1.1"])
            print(resource_tracker._resource_tracker._pid)
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        tracker = int(child.stdout.split()[-1])
        with pytest.raises(ProcessLookupError):  # no grace period: gone when the child is
            os.kill(tracker, 0)
        assert "leaked" not in child.stderr

    def test_registry_refuses_new_segments_after_close(self, tiny_ssb):
        import numpy as np

        from repro.storage.shm import SharedMemoryRegistry

        registry = SharedMemoryRegistry()
        spec = registry.share_array(np.arange(8))
        assert any(spec.segment in path for path in _shm_segments())
        registry.close()
        assert not any(spec.segment in path for path in _shm_segments())
        with pytest.raises(RuntimeError):
            registry.share_array(np.arange(8))


# ----------------------------------------------------------------------
# Validation and service integration
# ----------------------------------------------------------------------


class TestValidationAndService:
    def test_bad_shard_counts_rejected(self, tiny_ssb):
        with pytest.raises(ValueError):
            Session(tiny_ssb, shards=0)
        with Session(tiny_ssb) as session:
            with pytest.raises(ValueError):
                session.run(QUERIES["q1.1"], shards=0)

    def test_bad_start_method_rejected(self, tiny_ssb):
        with pytest.raises(ValueError):
            ShardExecutor(tiny_ssb, start_method="bogus")

    def test_bind_validates(self, tiny_ssb):
        executor = ShardExecutor(tiny_ssb)
        try:
            with pytest.raises(ValueError):
                executor.bind(0)
        finally:
            executor.close()

    def test_query_service_dispatches_sharded(self, tiny_ssb):
        from repro.service.service import QueryService

        async def serve():
            with Session(tiny_ssb) as session:
                async with QueryService(session, shards=2) as service:
                    return await service.submit(QUERIES["q3.1"])

        outcome = asyncio.run(serve())
        expected, _ = execute_query_monolithic(tiny_ssb, QUERIES["q3.1"])
        assert outcome.result.result.value == expected
        assert outcome.trace.counters.shard_queries == 1

    def test_query_service_rejects_bad_shards(self, tiny_ssb):
        from repro.service.service import QueryService

        with Session(tiny_ssb) as session:
            with pytest.raises(ValueError):
                QueryService(session, shards=0)
