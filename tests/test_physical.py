"""Differential tests for the staged physical pipeline.

The physical pipeline (ScanFilter / BuildLookup / ProbeJoin / Aggregate) is
held byte-identical to the seed monolithic executor: same answers, same
profiles, stage by stage.  On top of that sit the shared-build artifact
cache and the one ambient execution context.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Q, QueryValidationError, Session, col
from repro.context import ExecutionContext, activate_context, current
from repro.engine.cache import (
    BuildArtifactCache,
    ExecutionCache,
    ZoneMapCache,
    activate,
    activate_builds,
    activate_zones,
)
from repro.engine.physical import (
    PACKED_GATHER_DENOMINATOR,
    PipelineState,
    execute_physical,
    execute_physical_partial,
    lower_query,
)
from repro.engine.plan import (
    QueryProfile,
    execute_query,
    execute_query_monolithic,
    fold_shard_profiles,
    merge_partial_aggregates,
)
from repro.engine.planner import JoinOrderPlanner
from repro.faults import activate_faults
from repro.ssb import generate_ssb
from repro.ssb.queries import QUERIES, AggregateSpec, FilterSpec, JoinSpec, SSBQuery
from repro.storage import Database, Table
from repro.storage.zonemap import ZONE_EVALUATE, ZONE_SKIP, ZONE_TAKE, TableZoneMaps, cluster_by

# ----------------------------------------------------------------------
# Byte-identical parity with the seed executor
# ----------------------------------------------------------------------


class TestPipelineParity:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_canonical_queries_byte_identical(self, tiny_ssb, name):
        """All 13 canonical SSB queries: same answer, same profile."""
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, QUERIES[name])
        value_phys, profile_phys = execute_query(tiny_ssb, QUERIES[name])
        assert value_phys == value_mono
        assert profile_phys == profile_mono
        assert repr(profile_phys) == repr(profile_mono)

    def test_or_tree_query_parity(self, tiny_ssb):
        query = (
            Q("lineorder")
            .where(col("lo_discount").between(1, 3) | (col("lo_quantity") > 45))
            .join("date", on=("lo_orderdate", "d_datekey"),
                  filters=[("d_year", "eq", 1993)], payload="d_year")
            .group_by("d_year")
            .agg("sum", "lo_extendedprice", "lo_discount", combine="mul")
            .build(tiny_ssb)
        )
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, query)
        value_phys, profile_phys = execute_query(tiny_ssb, query)
        assert value_phys == value_mono
        assert profile_phys == profile_mono

    def test_parity_under_reordered_joins(self, tiny_ssb):
        reordered = JoinOrderPlanner(tiny_ssb).reorder(QUERIES["q2.1"])
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, reordered)
        value_phys, profile_phys = execute_query(tiny_ssb, reordered)
        assert value_phys == value_mono
        assert profile_phys == profile_mono

    def test_unhashable_join_predicate_still_executes(self, tiny_ssb):
        """Hand-built specs holding list constants run (uncached) on both paths."""
        query = SSBQuery(
            name="unhashable",
            flight=0,
            fact_filters=(FilterSpec("lo_quantity", "lt", 25),),
            joins=(
                JoinSpec("date", "lo_orderdate", "d_datekey",
                         (FilterSpec("d_year", "in", [1997, 1998]),), payload="d_year"),
            ),
            group_by=("d_year",),
            aggregate=QUERIES["q2.1"].aggregate,
        )
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, query)
        value_phys, profile_phys = execute_query(tiny_ssb, query)
        assert value_phys == value_mono
        assert profile_phys == profile_mono
        # And through a Session batch: it runs, it just never shares.
        session = Session(tiny_ssb)
        [result] = session.run_many([query], engine="cpu")
        assert result.value == value_mono
        assert session.cache_info("builds").size == 0

    def test_shared_builds_do_not_change_profiles(self, tiny_ssb):
        """A probe against a cached artifact emits the same profile slice."""
        cache = BuildArtifactCache(tiny_ssb)
        plan = lower_query(QUERIES["q2.1"])
        with activate_builds(cache):
            first = execute_physical(tiny_ssb, plan)
            second = execute_physical(tiny_ssb, plan)
        assert second[0] == first[0]
        assert second[1] == first[1]
        assert cache.hits > 0


# ----------------------------------------------------------------------
# Plan structure and lowering
# ----------------------------------------------------------------------


class TestLowering:
    def test_stages_mirror_the_query(self):
        plan = lower_query(QUERIES["q4.1"])
        assert len(plan.filters) == 0  # q4.1 has no fact filters
        assert len(plan.builds) == len(QUERIES["q4.1"].joins) == 4
        assert len(plan.probes) == 4
        operators = list(plan.operators())
        assert operators[-1] is plan.aggregate

    def test_one_scan_filter_per_conjunct(self):
        plan = lower_query(QUERIES["q1.1"])
        assert len(plan.filters) == 2  # discount band AND quantity bound

    def test_build_key_identity(self):
        plans = [lower_query(QUERIES[name]) for name in ("q2.1", "q2.2", "q2.3")]
        # All three flight-2 queries share the unfiltered date build ...
        date_keys = {
            build.key for plan in plans for build in plan.builds
            if build.join.dimension == "date"
        }
        assert len(date_keys) == 1
        # ... but their differently-filtered part builds stay distinct.
        part_keys = {
            build.key for plan in plans for build in plan.builds
            if build.join.dimension == "part"
        }
        assert len(part_keys) == 3

    def test_join_key_must_be_a_fact_column(self, tiny_ssb):
        """A probe-side key that lives on a dimension is rejected by name."""
        builder = Q("lineorder", db=tiny_ssb).join("date", on=("s_suppkey", "d_datekey")).agg("count")
        expected = "join fact-key column 's_suppkey' does not exist in table 'lineorder'.*lo_suppkey"
        with pytest.raises(QueryValidationError, match=expected):
            builder.build(tiny_ssb)


# ----------------------------------------------------------------------
# Shared builds under Session.run_many
# ----------------------------------------------------------------------


class TestSharedBuilds:
    def test_each_distinct_build_constructed_exactly_once(self, tiny_ssb):
        queries = [QUERIES[name] for name in sorted(QUERIES)]
        session = Session(tiny_ssb)
        batched = session.run_many(queries, engine="cpu")

        distinct = {b.key for q in queries for b in lower_query(q).builds}
        total_joins = sum(len(q.joins) for q in queries)
        info = session.cache_info("builds")
        assert info.misses == len(distinct)  # one construction per distinct build
        assert info.hits + info.misses == total_joins  # every other fetch shared
        assert info.size == len(distinct)

        serial = Session(tiny_ssb).run_many(queries, engine="cpu")
        for batch_result, serial_result in zip(batched, serial):
            assert batch_result.value == serial_result.value
            assert batch_result.simulated_ms == serial_result.simulated_ms

    def test_repeated_batches_keep_sharing(self, tiny_ssb):
        session = Session(tiny_ssb, cache=False)  # isolate the build cache
        queries = [QUERIES["q2.1"], QUERIES["q2.2"]]
        session.run_many(queries, engine="cpu")
        misses_after_first = session.cache_info("builds").misses
        session.run_many(queries, engine="cpu")
        assert session.cache_info("builds").misses == misses_after_first

    def test_memoized_queries_skip_prebuild(self, tiny_ssb):
        """Replayed queries never probe, so they move no build counter."""
        session = Session(tiny_ssb)
        session.run(QUERIES["q2.1"], engine="cpu")  # memoize the whole pass
        built = session.cache_info("builds")
        assert built == (0, 3, 3, 128)  # the cold run constructed its three lookups
        session.run(QUERIES["q2.1"], engine="cpu")
        session.run_many([QUERIES["q2.1"]], engine="cpu")
        assert session.cache_info("builds") == built

    def test_bad_engine_fails_before_building(self, tiny_ssb):
        session = Session(tiny_ssb)
        with pytest.raises(KeyError, match="unknown engine"):
            session.run_many([QUERIES["q2.1"]], engine="gpx")
        assert session.cache_info("builds") == (0, 0, 0, 128)

    def test_serial_run_many_untouched(self, tiny_ssb):
        """Builds are cached on every path: a serial batch pays each once."""
        session = Session(tiny_ssb, cache=False)  # isolate the build cache
        session.run_many([QUERIES["q2.1"]], engine="cpu")
        assert session.cache_info("builds") == (0, 3, 3, 128)
        session.run_many([QUERIES["q2.1"]], engine="cpu")
        assert session.cache_info("builds") == (3, 3, 3, 128)
        session.clear_caches()
        assert session.cache_info("builds") == (0, 0, 0, 128)

    def test_append_misses_exactly_the_appended_dimension(self, tiny_ssb):
        """Entries key on ``(build_key, dimension.version)``: a dimension
        append misses that dimension's entries only, a fact append none."""
        db = generate_ssb(scale_factor=0.005, seed=21)  # private: the test appends
        session = Session(db, cache=False)
        session.run(QUERIES["q2.1"], engine="cpu")
        assert session.cache_info("builds") == (0, 3, 3, 128)
        fact = db.table("lineorder")
        session.ingest("lineorder", {name: fact[name][:8] for name in fact.columns})
        session.run(QUERIES["q2.1"], engine="cpu")
        assert session.cache_info("builds") == (3, 3, 3, 128)
        supplier = db.table("supplier")
        row = {name: supplier[name][:1] for name in supplier.columns}
        row["s_suppkey"] = np.array([supplier.num_rows], dtype=supplier["s_suppkey"].dtype)  # a fresh key
        session.ingest("supplier", row)
        result = session.run(QUERIES["q2.1"], engine="cpu")
        assert session.cache_info("builds") == (5, 4, 4, 128)
        assert result.value == execute_query_monolithic(db, QUERIES["q2.1"])[0]

    def test_clear_cache_resets_build_counters(self, tiny_ssb):
        session = Session(tiny_ssb)
        session.run_many([QUERIES["q1.1"]], engine="cpu")
        assert session.cache_info("builds").size > 0
        session.clear_caches()
        assert session.cache_info("builds") == (0, 0, 0, 128)

    @pytest.mark.parametrize("name", ["bogus", "build", "zone"])
    def test_unknown_cache_name_rejected(self, tiny_ssb, name):
        with pytest.raises(ValueError, match="unknown cache"):
            Session(tiny_ssb).cache_info(name)

    def test_artifacts_are_immutable(self, tiny_ssb):
        cache = BuildArtifactCache(tiny_ssb)
        plan = lower_query(QUERIES["q2.1"])
        with activate_builds(cache):
            execute_physical(tiny_ssb, plan)
        artifact = next(iter(cache._entries.values()))
        with pytest.raises(ValueError):
            artifact.lookup[0] = 99
        with pytest.raises(ValueError):
            artifact.present[0] = True


class TestBuildArtifactCacheUnit:
    def test_ignores_foreign_database(self, tiny_ssb, small_ssb):
        cache = BuildArtifactCache(tiny_ssb)
        build = lower_query(QUERIES["q1.1"]).builds[0]
        cache.fetch(small_ssb, build.key, lambda: build.build(small_ssb))
        assert cache.info() == (0, 0, 0, 128)

    def test_lru_eviction(self, tiny_ssb):
        cache = BuildArtifactCache(tiny_ssb, maxsize=1)
        builds = [b for name in ("q2.1", "q3.1") for b in lower_query(QUERIES[name]).builds]
        for build in builds:
            cache.fetch(tiny_ssb, build.key, lambda: build.build(tiny_ssb))
        assert len(cache) == 1

    def test_tiny_maxsize_rejected(self, tiny_ssb):
        with pytest.raises(ValueError, match="maxsize"):
            BuildArtifactCache(tiny_ssb, maxsize=0)

    def test_unhashable_key_falls_through(self, tiny_ssb):
        cache = BuildArtifactCache(tiny_ssb)
        sentinel = object()
        assert cache.fetch(tiny_ssb, ["not", "hashable"], lambda: sentinel) is sentinel
        assert cache.info() == (0, 0, 0, 128)


# ----------------------------------------------------------------------
# The one ambient execution context
# ----------------------------------------------------------------------


class TestContextScopes:
    def test_nested_activation_restores_previous(self, tiny_ssb):
        outer = ExecutionCache(tiny_ssb)
        inner = ExecutionCache(tiny_ssb)
        assert current().cache is None
        with activate(outer):
            assert current().cache is outer
            with activate(inner):
                assert current().cache is inner
            assert current().cache is outer
        assert current().cache is None

    def test_nested_build_scopes(self, tiny_ssb):
        outer = BuildArtifactCache(tiny_ssb)
        inner = BuildArtifactCache(tiny_ssb)
        with activate_builds(outer):
            with activate_builds(inner):
                assert current().builds is inner
            assert current().builds is outer
        assert current().builds is None

    def test_threads_do_not_clobber_each_other(self, tiny_ssb):
        import threading

        observed = {}
        ready = threading.Barrier(2)

        def worker(name):
            cache = ExecutionCache(tiny_ssb)
            with activate(cache):
                ready.wait(timeout=5)
                observed[name] = current().cache is cache

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert observed == {0: True, 1: True}

    @pytest.mark.parametrize(
        "scope, field",
        [
            (activate, "cache"),
            (activate_builds, "builds"),
            (activate_zones, "zones"),
            (activate_faults, "faults"),
        ],
    )
    def test_field_scope_changes_only_its_field(self, scope, field):
        """Each ``activate_*`` replaces one field of the enclosing context
        (and yields the value it installed); exits restore, nested or not."""
        base = ExecutionContext(cache="c", builds="b", zones="z", shards="s", faults="f")
        assert current() == ExecutionContext()
        with activate_context(base):
            with scope("outer") as installed:
                assert installed == "outer"
                assert current() == replace(base, **{field: "outer"})
                with scope("inner"):
                    assert current() == replace(base, **{field: "inner"})
                assert current() == replace(base, **{field: "outer"})
            assert current() is base
        assert current() == ExecutionContext()

    def test_activate_context_replaces_rather_than_merges(self):
        with activate_zones("z"):
            with activate_context(ExecutionContext(builds="b")):
                assert current() == ExecutionContext(builds="b")
            assert current() == ExecutionContext(zones="z")

    def test_pool_thread_starts_from_the_empty_context(self, tiny_ssb):
        """Why ``Session._execute`` installs the context on the executing
        thread: a pool thread inherits nothing from its submitter."""
        with activate_context(ExecutionContext(builds=BuildArtifactCache(tiny_ssb))):
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(current).result() == ExecutionContext()


# ----------------------------------------------------------------------
# Filter-stage profile slices (the OR-pushdown satellite)
# ----------------------------------------------------------------------


class TestFilterStages:
    def test_conjunctive_query_records_fused_stages(self, tiny_ssb):
        _, profile = execute_query(tiny_ssb, QUERIES["q1.1"])
        assert len(profile.filter_stages) == 2
        assert profile.filter_or_branches() == 0
        assert profile.filter_leaf_count() == 2
        first, second = profile.filter_stages
        assert first.rows_in == profile.fact_rows
        assert second.rows_in == first.rows_out
        assert second.rows_out / profile.fact_rows == pytest.approx(
            profile.fact_filter_selectivity
        )

    def test_or_tree_records_branches(self, tiny_ssb):
        query = (
            Q("lineorder")
            .where((col("lo_discount") == 1) | (col("lo_discount") == 2) | (col("lo_quantity") < 10))
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("count")
            .build(tiny_ssb)
        )
        _, profile = execute_query(tiny_ssb, query)
        assert len(profile.filter_stages) == 1
        stage = profile.filter_stages[0]
        assert stage.leaf_count == 3
        assert stage.or_branches == 2
        assert stage.columns == ("lo_discount", "lo_quantity")

    def test_branchy_or_costs_more_on_branch_sensitive_engines(self, tiny_ssb):
        session = Session(tiny_ssb)

        def query(pred):
            return (
                Q("lineorder").where(pred)
                .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
                .group_by("d_year")
                .agg("sum", "lo_revenue")
            )

        band = query(col("lo_discount").between(1, 3))
        branchy = query(
            (col("lo_discount") == 1) | (col("lo_discount") == 2) | (col("lo_discount") == 3)
        )
        for engine in ("hyper", "monetdb", "omnisci"):
            fused = session.run(band, engine=engine)
            disjunctive = session.run(branchy, engine=engine)
            assert disjunctive.value == fused.value
            assert disjunctive.simulated_ms > fused.simulated_ms, engine
        # The fused single-pass engines shrug: predicated lanes hide behind
        # the streaming scan (the Section 3.3 asymmetry).
        for engine in ("cpu", "gpu"):
            fused = session.run(band, engine=engine)
            disjunctive = session.run(branchy, engine=engine)
            assert disjunctive.value == fused.value
            assert disjunctive.simulated_ms <= fused.simulated_ms * 1.5, engine


# ----------------------------------------------------------------------
# The span plane: "[lo, hi) is alive" as a state, scanned as slices
# ----------------------------------------------------------------------


def _span_state(table, lo, hi, zone_size):
    return PipelineState(
        db=None, fact=table, query_name="t", profile=QueryProfile("t", hi - lo, 1.0),
        rows_alive=float(hi - lo), lo=lo, hi=hi, zones=TableZoneMaps(table, zone_size=zone_size),
    )


def _run_in_pieces(db, query, bounds, zone_size=None):
    """Merge the partials over consecutive ``bounds``, zone plane on."""
    with activate_zones(ZoneMapCache(db, zone_size=zone_size)) as zones:
        plan = lower_query(query, db)
        parts = [execute_physical_partial(db, plan, a, b) for a, b in zip(bounds, bounds[1:])]
    value = merge_partial_aggregates([partial for partial, _ in parts])
    return value, fold_shard_profiles([profile for _, profile in parts], value), zones.info()


class TestSpanPlane:
    @pytest.fixture(scope="class")
    def clustered(self, tiny_ssb):
        return cluster_by(tiny_ssb, "lineorder", "lo_orderdate")

    def test_zone_runs_clip_to_the_span(self):
        table = Table.from_arrays("t", {"x": np.arange(40, dtype=np.int32)})
        cls = np.array([ZONE_SKIP, ZONE_SKIP, ZONE_TAKE, ZONE_EVALUATE, ZONE_EVALUATE], dtype=np.int8)

        def runs(lo, hi, c=cls):
            return [tuple(map(int, run)) for run in _span_state(table, lo, hi, 8).zone_runs(c)]

        assert runs(0, 40) == [(-1, 0, 16), (1, 16, 24), (0, 24, 40)]
        assert runs(3, 21) == [(-1, 3, 16), (1, 16, 21)]  # starts and stops mid-zone
        assert runs(17, 18) == [(1, 17, 18)]  # a single row
        assert runs(24, 24) == []  # an empty span has no runs
        assert runs(5, 30, None) == [(0, 5, 30)]  # no classification: one evaluate run

    def test_seed_materializes_only_when_rows_drop(self):
        table = Table.from_arrays("t", {"x": np.arange(40, dtype=np.int32)})
        state = _span_state(table, 8, 32, 8)
        state.group_columns["code"] = np.arange(24)
        state.seed([(8, 16, None), (16, 32, None)])  # every row of the span survives
        assert state.sel is None and state.rows_alive == 24.0
        state.seed([(8, 16, None), (20, 32, np.array([0, 3, 11]))])  # rows 16-19 and most of the rest drop
        np.testing.assert_array_equal(state.sel, [8, 9, 10, 11, 12, 13, 14, 15, 20, 23, 31])
        np.testing.assert_array_equal(state.group_columns["code"], state.sel - 8)
        assert state.rows_alive == 11.0

    @pytest.mark.parametrize("band", [(19930101, 19941231), (19920101, 19921231), (19970601, 19981231)])
    def test_mixed_skip_take_evaluate_runs(self, clustered, band):
        """A date band on date-clustered data: skip, take-all and evaluate
        zones in one classification, over whole-table and mid-zone spans."""
        query = (
            Q("lineorder")
            .where(col("lo_orderdate").between(*band), col("lo_quantity") < 30)
            .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_region")
            .group_by("s_region")
            .agg("sum", "lo_revenue")
            .build(clustered)
        )
        expected = execute_query_monolithic(clustered, query)
        n = clustered.table("lineorder").num_rows
        value, profile, info = _run_in_pieces(clustered, query, [0, n], zone_size=256)
        assert (value, profile) == expected
        assert info.zones_skipped and info.zones_taken and info.zones_evaluated
        for bounds in ([0, 1000, 1001, 30_001, n], [0, n // 3, n // 3, n - 1, n]):
            assert _run_in_pieces(clustered, query, bounds, zone_size=256)[:2] == expected

    def test_strictly_alternating_classes(self):
        """Every zone differs from its neighbour: the worst-case run count."""
        zone, zones = 16, 60
        pattern = np.array([0, 9, 5], dtype=np.int32)  # x < 5: take, skip, (mixed) evaluate
        x = np.repeat(pattern[np.arange(zones) % 3], zone)
        x[2 * zone :: 3 * zone] = 0  # first row of each "5" zone passes: undecidable
        rng = np.random.default_rng(3)
        db = Database(name="alt")
        db.add_table(Table.from_arrays("t", {"x": x, "v": rng.integers(1, 100, x.size).astype(np.int32)}))
        query = SSBQuery(
            name="alt", flight=0, fact="t", fact_filters=(FilterSpec("x", "lt", 5),), joins=(),
            group_by=(), aggregate=AggregateSpec(columns=("v",)),
        )
        expected = execute_query_monolithic(db, query)
        n = x.size
        value, profile, info = _run_in_pieces(db, query, [0, n], zone_size=zone)
        assert (value, profile) == expected
        assert (info.zones_skipped, info.zones_taken, info.zones_evaluated) == (20, 20, 20)
        assert info.rows_pruned == 20 * zone
        for bounds in ([0, 7, 8, 100, 501, n], [0, 0, n // 2, n, n]):
            assert _run_in_pieces(db, query, bounds, zone_size=zone)[:2] == expected

    def test_nothing_dropped_stays_in_span_state(self, tiny_ssb):
        """An unfiltered join keeps every row: no selection vector is built,
        and its payload (carried at span width) compacts when a later
        operator finally drops rows."""
        query = (
            Q("lineorder")
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .join("supplier", on=("lo_suppkey", "s_suppkey"),
                  filters=[("s_region", "eq", "ASIA")], payload="s_nation")
            .group_by("d_year", "s_nation")
            .agg("sum", "lo_revenue")
            .build(tiny_ssb)
        )
        expected = execute_query_monolithic(tiny_ssb, query)
        n = tiny_ssb.table("lineorder").num_rows
        for bounds in ([0, n], [0, 5000, 5001, n]):
            assert _run_in_pieces(tiny_ssb, query, bounds)[:2] == expected
        ungrouped = Q("lineorder").join("date", on=("lo_orderdate", "d_datekey")).agg("sum", "lo_revenue")
        ungrouped = ungrouped.build(tiny_ssb)
        expected = execute_query_monolithic(tiny_ssb, ungrouped)
        assert _run_in_pieces(tiny_ssb, ungrouped, [0, 4097, n])[:2] == expected

    def test_range_outside_the_table_rejected(self, tiny_ssb):
        plan = lower_query(QUERIES["q1.1"], tiny_ssb)
        n = tiny_ssb.table("lineorder").num_rows
        for start, stop in ((-1, 10), (10, 5), (0, n + 1)):
            with pytest.raises(ValueError, match="row range"):
                execute_physical_partial(tiny_ssb, plan, start, stop)


# ----------------------------------------------------------------------
# Packed twins serve sparse gathers only
# ----------------------------------------------------------------------


class TestPackedGatherChoice:
    """:meth:`PipelineState.packed_for`: when a gather reads packed words."""

    COLUMNS = ("lo_quantity", "lo_discount")

    @staticmethod
    def _state(fact, lo, hi, zones):
        return PipelineState(
            db=None, fact=fact, query_name="t", profile=QueryProfile("t", hi - lo, 1.0),
            rows_alive=float(hi - lo), lo=lo, hi=hi, zones=zones,
        )

    @pytest.mark.parametrize(
        "width,served",
        [(lambda n: 1, True), (lambda n: n // PACKED_GATHER_DENOMINATOR, True),
         (lambda n: n // PACKED_GATHER_DENOMINATOR + 1, False), (lambda n: n, False)],
        ids=["one-row", "at-threshold", "past-threshold", "full-width"],
    )
    def test_width_threshold(self, tiny_ssb, width, served):
        fact = tiny_ssb.table("lineorder")
        assert fact.num_rows % PACKED_GATHER_DENOMINATOR == 0  # the threshold is exact
        state = self._state(fact, 0, fact.num_rows, TableZoneMaps(fact))
        twins = state.packed_for(self.COLUMNS, width(fact.num_rows))
        assert (twins is not None) == served
        if served:
            assert set(twins) == set(self.COLUMNS)

    def test_no_zone_plane_reads_plain_columns(self, tiny_ssb):
        fact = tiny_ssb.table("lineorder")
        assert self._state(fact, 0, fact.num_rows, None).packed_for(self.COLUMNS, 1) is None

    def test_wide_domains_have_no_twin(self, tiny_ssb):
        fact = tiny_ssb.table("lineorder")
        state = self._state(fact, 0, fact.num_rows, TableZoneMaps(fact))
        assert state.packed_for(("lo_orderdate",), 1) is None
        assert set(state.packed_for(("lo_orderdate", "lo_quantity"), 1)) == {"lo_quantity"}

    def test_ranged_state_decodes_only_twins_already_packed(self, tiny_ssb):
        """Packing reads the whole column, so only a whole-table span packs."""
        fact = tiny_ssb.table("lineorder")
        zones = TableZoneMaps(fact)
        ranged = self._state(fact, 100, fact.num_rows, zones)
        assert ranged.packed_for(self.COLUMNS, 1) is None
        whole = self._state(fact, 0, fact.num_rows, zones)
        assert set(whole.packed_for(("lo_quantity",), 1)) == {"lo_quantity"}
        assert set(ranged.packed_for(self.COLUMNS, 1)) == {"lo_quantity"}
