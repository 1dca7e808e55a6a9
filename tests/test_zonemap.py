"""The pruned, compression-aware scan plane (zone maps + packed gathers).

Zone-map data skipping may only ever *remove work*, never change results:
the differential suites here hold the pruned plane byte-identical (answers
and profiles) to both the PR 4 selection-vector plane and the seed
monolithic executor, on uniform and on date-clustered data.  The folding
logic is additionally property-tested for soundness: a zone classified
take-all must contain only satisfying rows, a skipped zone none.
"""

import tracemalloc

import numpy as np
import pytest

from repro.api import Q, Session, col
from repro.context import ExecutionContext, activate_context
from repro.engine.cache import BuildArtifactCache, ZoneMapCache, activate_zones
from repro.engine.physical import BuildLookup, lower_query
from repro.engine.plan import build_dimension_lookup, execute_query, execute_query_monolithic
from repro.ssb import generate_lineorder_batch, generate_ssb
from repro.ssb.queries import QUERIES, FilterSpec, SSBQuery
from repro.storage import Table
from repro.storage.compression import PACK_CHUNK_VALUES
from repro.storage.zonemap import (
    ZONE_EVALUATE,
    ZONE_SKIP,
    ZONE_TAKE,
    ColumnZoneStats,
    TableZoneMaps,
    cluster_by,
)


@pytest.fixture(scope="module")
def clustered_ssb(tiny_ssb):
    """tiny_ssb with the fact table clustered by its date key."""
    return cluster_by(tiny_ssb, "lineorder", "lo_orderdate")


OR_TREES = [
    col("lo_discount").between(1, 3) | (col("lo_quantity") > 45),
    (col("lo_discount") == 1) | (col("lo_discount") == 2) | (col("lo_quantity") < 5),
    ~(col("lo_quantity") < 25) & (col("lo_discount") >= 2),
    (col("lo_discount") <= 2) & ((col("lo_quantity") < 10) | (col("lo_quantity") > 40)),
]


def _assert_identical(db, query):
    value_mono, profile_mono = execute_query_monolithic(db, query)
    value_plain, profile_plain = execute_query(db, query)
    with activate_zones(ZoneMapCache(db)):
        value_zone, profile_zone = execute_query(db, query)
    assert value_plain == value_mono
    assert profile_plain == profile_mono
    assert value_zone == value_mono
    assert profile_zone == profile_mono


# ----------------------------------------------------------------------
# Differential: pruned plane vs selection vectors vs monolithic reference
# ----------------------------------------------------------------------


class TestZonePlaneParity:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_all_13_queries_uniform(self, tiny_ssb, name):
        _assert_identical(tiny_ssb, QUERIES[name])

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_all_13_queries_date_clustered(self, clustered_ssb, name):
        _assert_identical(clustered_ssb, QUERIES[name])

    @pytest.mark.parametrize("index", range(len(OR_TREES)))
    def test_or_trees(self, clustered_ssb, index):
        query = (
            Q("lineorder")
            .where(OR_TREES[index])
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("sum", "lo_extendedprice", "lo_discount", combine="mul")
            .build(clustered_ssb)
        )
        _assert_identical(clustered_ssb, query)

    def test_clustered_date_band_prunes_and_matches(self, clustered_ssb):
        """A fact-local date band is the classic zone-map case: most zones skip."""
        query = (
            Q("lineorder")
            .where(col("lo_orderdate").between(19940101, 19940301))
            .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_region")
            .group_by("s_region")
            .agg("sum", "lo_revenue")
            .build(clustered_ssb)
        )
        cache = ZoneMapCache(clustered_ssb)
        with activate_zones(cache):
            value_zone, profile_zone = execute_query(clustered_ssb, query)
        value_mono, profile_mono = execute_query_monolithic(clustered_ssb, query)
        assert value_zone == value_mono
        assert profile_zone == profile_mono
        info = cache.info()
        assert info.zones_skipped > 0
        assert info.rows_pruned > 0

    def test_empty_selection(self, clustered_ssb):
        query = (
            Q("lineorder")
            .where(col("lo_quantity") > 10_000)
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("sum", "lo_revenue")
            .build(clustered_ssb)
        )
        with activate_zones(ZoneMapCache(clustered_ssb)):
            value, _ = execute_query(clustered_ssb, query)
        assert value == {}

    def test_empty_dimension_build_skips_everything(self, tiny_ssb):
        """A dimension predicate selecting no rows prunes the whole probe."""
        query = (
            Q("lineorder")
            .join(
                "date",
                on=("lo_orderdate", "d_datekey"),
                filters=col("d_year") == 1890,  # no such year
                payload="d_year",
            )
            .group_by("d_year")
            .agg("sum", "lo_revenue")
            .build(tiny_ssb)
        )
        cache = ZoneMapCache(tiny_ssb)
        with activate_zones(cache):
            value_zone, profile_zone = execute_query(tiny_ssb, query)
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, query)
        assert value_zone == value_mono == {}
        assert profile_zone == profile_mono
        assert cache.info().rows_pruned == tiny_ssb.table("lineorder").num_rows

    @pytest.mark.parametrize("op", ["sum", "count", "min", "max", "avg"])
    def test_every_aggregate_op(self, clustered_ssb, op):
        builder = (
            Q("lineorder")
            .where(col("lo_orderdate") < 19930601)
            .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_region")
            .group_by("s_region")
        )
        builder = builder.agg(op) if op == "count" else builder.agg(op, "lo_revenue")
        _assert_identical(clustered_ssb, builder.build(clustered_ssb))

    def test_type_error_parity(self, tiny_ssb):
        """A bad constant raises identically -- folding must not hide it."""
        query = (
            Q("lineorder")
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("sum", "lo_revenue")
            .build(tiny_ssb)
        )
        bad = SSBQuery(
            name="bad-constant",
            flight=0,
            fact_filters=(FilterSpec("lo_quantity", "lt", "twenty"),),
            joins=query.joins,
            group_by=query.group_by,
            aggregate=query.aggregate,
        )
        with pytest.raises(TypeError, match="string constant"):
            execute_query_monolithic(tiny_ssb, bad)
        with activate_zones(ZoneMapCache(tiny_ssb)):
            with pytest.raises(TypeError, match="string constant"):
                execute_query(tiny_ssb, bad)


# ----------------------------------------------------------------------
# Fold soundness: classifications must be provable, never speculative
# ----------------------------------------------------------------------


class TestFoldSoundness:
    @pytest.fixture(scope="class")
    def skewed(self):
        rng = np.random.default_rng(42)
        n = 40_000
        ramp = np.sort(rng.integers(0, 500, n))  # clustered: zones have tight ranges
        tiny = rng.integers(0, 9, n)  # bitset domain
        wide = rng.integers(-1000, 1000, n)
        return Table.from_arrays(
            "skewed",
            {
                "ramp": ramp.astype(np.int32),
                "tiny": tiny.astype(np.int32),
                "wide": wide.astype(np.int32),
            },
        )

    PREDS = [
        col("ramp") < 100,
        col("ramp") >= 250,
        col("ramp").between(100, 120),
        col("ramp") == 0,
        col("ramp") != 0,
        col("tiny").isin([0, 3, 7]),
        col("tiny") == 4,
        ~(col("tiny") == 4),
        (col("ramp") < 50) | (col("ramp") > 450),
        (col("ramp").between(0, 200)) & (col("tiny") != 2),
        ~(col("ramp").between(100, 400)),
        (col("wide") < 0) | (col("tiny").isin([1, 2])),
    ]

    @pytest.mark.parametrize("index", range(len(PREDS)))
    def test_classification_is_sound(self, skewed, index):
        from repro.engine.expr import evaluate_pred

        pred = self.PREDS[index]
        maps = TableZoneMaps(skewed, zone_size=1024)
        cls = maps.classify(pred)
        mask = evaluate_pred(skewed, pred)
        if cls is None:
            return  # statistics silent: always sound
        for zone in range(maps.num_zones):
            lo = zone * 1024
            hi = min(lo + 1024, skewed.num_rows)
            if cls[zone] == ZONE_TAKE:
                assert mask[lo:hi].all(), f"take-all zone {zone} has a non-matching row"
            elif cls[zone] == ZONE_SKIP:
                assert not mask[lo:hi].any(), f"skipped zone {zone} has a matching row"

    def test_take_and_skip_actually_fire(self, skewed):
        maps = TableZoneMaps(skewed, zone_size=1024)
        cls = maps.classify(col("ramp") < 250)
        assert cls is not None
        assert (cls == ZONE_TAKE).any()
        assert (cls == ZONE_SKIP).any()
        assert (cls == ZONE_EVALUATE).any()

    def test_empty_and_or_identities(self, skewed):
        from repro.ssb.queries import And, Or

        maps = TableZoneMaps(skewed, zone_size=1024)
        all_true = maps.classify(And())
        assert all_true is not None and (all_true == ZONE_TAKE).all()
        none_true = maps.classify(Or())
        assert none_true is not None and (none_true == ZONE_SKIP).all()

    def test_non_integer_column_is_silent(self):
        table = Table.from_arrays("floats", {"f": np.linspace(0.0, 1.0, 5000)})
        maps = TableZoneMaps(table, zone_size=1024)
        assert maps.stats("f") is None
        assert maps.classify(col("f") < 0.5) is None

    def test_encoded_constants_resolve_before_folding(self, tiny_ssb):
        date = tiny_ssb.table("date")
        maps = TableZoneMaps(date, zone_size=64)
        spec = FilterSpec("d_yearmonth", "eq", "Dec1997", encoded=True)
        cls = maps.classify(spec)
        from repro.engine.expr import evaluate_pred

        mask = evaluate_pred(date, spec)
        if cls is not None:
            for zone in range(maps.num_zones):
                lo, hi = zone * 64, min(zone * 64 + 64, date.num_rows)
                if cls[zone] == ZONE_SKIP:
                    assert not mask[lo:hi].any()
                elif cls[zone] == ZONE_TAKE:
                    assert mask[lo:hi].all()


# ----------------------------------------------------------------------
# Zone statistics and geometry helpers
# ----------------------------------------------------------------------


class TestZoneStats:
    def test_min_max_match_brute_force(self, rng):
        values = rng.integers(-500, 500, 10_000).astype(np.int32)
        stats = ColumnZoneStats.build("v", values, 256)
        for zone in range(stats.num_zones):
            chunk = values[zone * 256 : (zone + 1) * 256]
            assert stats.mins[zone] == chunk.min()
            assert stats.maxs[zone] == chunk.max()

    def test_bitsets_exact_for_tiny_domain(self, rng):
        values = rng.integers(3, 20, 5_000).astype(np.int32)
        stats = ColumnZoneStats.build("v", values, 512)
        assert stats.bitsets is not None
        for zone in range(stats.num_zones):
            chunk = values[zone * 512 : (zone + 1) * 512]
            expected = np.uint64(0)
            for v in np.unique(chunk):
                expected |= np.uint64(1) << np.uint64(int(v) - stats.low)
            assert stats.bitsets[zone] == expected

    def test_wide_domain_has_no_bitsets(self, rng):
        values = rng.integers(0, 100_000, 5_000).astype(np.int32)
        stats = ColumnZoneStats.build("v", values, 512)
        assert stats.bitsets is None

    @pytest.mark.parametrize("zone_size", [4096, 2 * PACK_CHUNK_VALUES])
    def test_chunked_bitsets_equal_one_shot(self, rng, zone_size):
        """Several chunks plus a ragged tail (and zones wider than a chunk)
        reduce to the bitsets one whole-column pass gives."""
        n = 3 * PACK_CHUNK_VALUES + 2 * zone_size + 123
        values = rng.integers(3, 60, n).astype(np.int32)
        stats = ColumnZoneStats.build("v", values, zone_size)
        bits = np.uint64(1) << (values.astype(np.int64) - stats.low).astype(np.uint64)
        one_shot = np.bitwise_or.reduceat(bits, np.arange(0, n, zone_size))
        assert stats.bitsets.dtype == np.uint64
        np.testing.assert_array_equal(stats.bitsets, one_shot)
        grown = ColumnZoneStats.build("v", values[: n // 3], zone_size).extend(values)
        np.testing.assert_array_equal(grown.bitsets, one_shot)

    def test_bitset_scratch_is_chunk_sized(self, rng):
        """A 3 M-row small-domain column: whole-column int64 + uint64
        temporaries alone would be 48 MB."""
        values = rng.integers(0, 50, 3_000_000).astype(np.int32)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            stats = ColumnZoneStats.build("v", values, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.bitsets is not None
        assert peak < 8 * 2**20

    def test_zone_size_must_be_power_of_two(self, tiny_ssb):
        with pytest.raises(ValueError, match="power of two"):
            TableZoneMaps(tiny_ssb.table("lineorder"), zone_size=1000)

    def test_packed_twins_only_for_small_domains(self, tiny_ssb):
        maps = TableZoneMaps(tiny_ssb.table("lineorder"))
        assert maps.packed("lo_discount") is not None  # 0..10: 4 bits
        assert maps.packed("lo_quantity") is not None  # 1..50: 6 bits
        assert maps.packed("lo_orderdate") is None  # ~25 bits
        twin = maps.packed("lo_quantity")
        np.testing.assert_array_equal(twin.unpack(), tiny_ssb.table("lineorder")["lo_quantity"])


# ----------------------------------------------------------------------
# One lookup layout (based at the key minimum) and probe fast paths
# ----------------------------------------------------------------------


class TestCompactBuilds:
    @pytest.mark.parametrize("plane", ["zones", "no-zones", "bare"])
    def test_date_lookup_spans_the_key_range_on_every_plane(self, tiny_ssb, plane):
        """No plane builds a zero-based ``date`` lookup (19 981 232 slots for
        61 131 keys), and every plane matches the reference on all 13."""
        if plane == "bare":  # execute_query with no session and no zones
            context = ExecutionContext(builds=BuildArtifactCache(tiny_ssb))
        else:
            context = Session(tiny_ssb, zones=plane == "zones").context(cache=False)
        with activate_context(context):
            for name, query in QUERIES.items():
                assert execute_query(tiny_ssb, query) == execute_query_monolithic(tiny_ssb, query), name
        datekeys = tiny_ssb.table("date")["d_datekey"]
        low, high = int(datekeys.min()), int(datekeys.max())
        dates = [a for a in context.builds._entries.values() if a.dimension == "date"]
        assert dates
        for artifact in dates:
            assert artifact.key_base == low
            assert artifact.lookup.shape[0] == artifact.present.shape[0] == high - low + 1

    def test_membership_matches_the_reference_layout(self, tiny_ssb):
        """Same keys present as in the monolithic reference's zero-based
        arrays, shifted by the base -- with no context installed at all."""
        plan = lower_query(QUERIES["q2.1"])
        date_build = next(b for b in plan.builds if b.join.dimension == "date")
        artifact = date_build.build(tiny_ssb)
        date = tiny_ssb.table("date")
        _, present = build_dimension_lookup(date, "d_datekey", np.ones(date.num_rows, dtype=bool), "d_year")
        assert artifact.key_base == int(date["d_datekey"].min())
        np.testing.assert_array_equal(
            np.flatnonzero(present), np.flatnonzero(artifact.present) + artifact.key_base
        )

    def test_key_range_recorded(self, tiny_ssb):
        join = lower_query(QUERIES["q1.1"]).logical.joins[0]
        artifact = BuildLookup(join).build(tiny_ssb)
        date = tiny_ssb.table("date")
        selected = date["d_datekey"][date["d_year"] == 1993]
        assert artifact.key_low == int(selected.min())
        assert artifact.key_high == int(selected.max())

    def test_probes_agree_with_and_without_zone_statistics(self, tiny_ssb):
        """Without statistics the probe range-checks every slot itself."""
        session_dense = Session(tiny_ssb, zones=False, cache=False)
        session_zones = Session(tiny_ssb, cache=False)
        for name in ("q2.1", "q3.2", "q4.1"):
            dense = session_dense.run(QUERIES[name])
            pruned = session_zones.run(QUERIES[name])
            assert dense.value == pruned.value
            assert dense.simulated_ms == pruned.simulated_ms


# ----------------------------------------------------------------------
# Session integration: default plane, counters, opt-out, threads
# ----------------------------------------------------------------------


class TestSessionZones:
    def test_zone_plane_is_default_and_counts(self, tiny_ssb):
        session = Session(tiny_ssb)
        session.run(QUERIES["q1.1"])
        info = session.cache_info("zones")
        assert info.misses >= 1  # fact (and dimension) statistics built
        assert info.tables >= 1

    def test_opt_out_reports_zeroes(self, tiny_ssb):
        session = Session(tiny_ssb, zones=False)
        session.run(QUERIES["q1.1"])
        info = session.cache_info("zones")
        assert info == (0, 0, 0, 0, 0, 0, 0, 0)

    def test_unknown_cache_name_still_rejected(self, tiny_ssb):
        with pytest.raises(ValueError, match="unknown cache"):
            Session(tiny_ssb).cache_info("bogus")

    def test_clear_cache_resets_zone_counters(self, tiny_ssb):
        session = Session(tiny_ssb)
        session.run(QUERIES["q1.1"])
        session.clear_caches()
        assert session.cache_info("zones") == (0, 0, 0, 0, 0, 0, 0, 0)

    def test_run_many_with_zones(self, tiny_ssb):
        queries = [QUERIES[name] for name in ("q1.1", "q2.1", "q3.1", "q4.1")]
        plain = Session(tiny_ssb, zones=False, cache=False).run_many(queries)
        shared = Session(tiny_ssb, cache=False).run_many(queries)
        for a, b in zip(plain, shared):
            assert a.value == b.value
            assert a.simulated_ms == b.simulated_ms

    def test_threaded_run_many_with_zones(self, tiny_ssb):
        queries = [QUERIES[name] for name in sorted(QUERIES)] * 2
        serial = Session(tiny_ssb, zones=False, cache=False).run_many(queries)
        threaded = Session(tiny_ssb, cache=False).run_many(queries, workers=4)
        for a, b in zip(serial, threaded):
            assert a.value == b.value
            assert a.simulated_ms == b.simulated_ms


# ----------------------------------------------------------------------
# cluster_by + appended tail: the contract in its docstring, pinned
# ----------------------------------------------------------------------


class TestClusteredAppendedTail:
    """cluster_by is a one-shot physical-design decision, not an invariant.

    Rows appended after clustering land in arrival order at the tail.  The
    ``cluster_by`` docstring promises two things about that state: answers
    stay byte-identical (the unclustered tail zones classify as *evaluate*
    rather than being mis-skipped), and the sorted prefix keeps pruning at
    full strength.  Re-clustering restores full pruning over the tail.
    """

    def grown_clustered(self):
        db = generate_ssb(scale_factor=0.01, seed=33)
        clustered = cluster_by(db, "lineorder", "lo_orderdate")
        band = (
            Q("lineorder", db=clustered)
            .filter("lo_orderdate", "lt", 19930101)
            .agg("sum", "lo_revenue")
            .build(clustered)
        )
        return clustered, band

    def test_tail_zones_evaluate_prefix_keeps_pruning(self):
        clustered, band = self.grown_clustered()
        session = Session(clustered)
        session.run(band)
        before = session.cache_info("zones")
        assert before.zones_skipped > 0  # clustering made the band prunable

        # The appended batch is in arrival order: its dates span the whole
        # domain, so its zones straddle the band predicate.
        clustered.table("lineorder").append(
            generate_lineorder_batch(clustered, 4096, seed=34)
        )
        # Uncached: a cached read would extend its answer over the appended
        # rows only, and never classify the prefix again.
        session.run(band, cache=False)
        after = session.cache_info("zones")
        delta_skipped = after.zones_skipped - before.zones_skipped
        # Prefix at full strength: of the zones skipped before, only the
        # shared partial tail zone (which now also holds appended rows and
        # so straddles the band) may degrade to evaluate.
        assert delta_skipped >= before.zones_skipped - 1
        # The unclustered tail was never mis-skipped: it was evaluated.
        assert after.zones_evaluated > before.zones_evaluated
        # And the statistics got there by extension, not a rebuild.
        assert after.extended == 1 and after.misses == before.misses

    def test_grown_table_answers_stay_identical_on_all_planes(self):
        clustered, band = self.grown_clustered()
        clustered.table("lineorder").append(
            generate_lineorder_batch(clustered, 4096, seed=34)
        )
        _assert_identical(clustered, band)
        for name in ("q1.1", "q2.1", "q3.1", "q4.1"):
            _assert_identical(clustered, QUERIES[name])

    def test_reclustering_restores_full_pruning(self):
        clustered, band = self.grown_clustered()
        session = Session(clustered)
        session.run(band)
        prefix_zones = session.cache_info("zones").zones_skipped

        clustered.table("lineorder").append(
            generate_lineorder_batch(clustered, 4096, seed=34)
        )
        recl = cluster_by(clustered, "lineorder", "lo_orderdate")
        fresh = Session(recl)
        assert fresh.run(band).value == execute_query_monolithic(recl, band)[0]
        # One more zone of data, same (or better) skip rate as before: the
        # compaction step recovers pruning strength over the whole table.
        assert fresh.cache_info("zones").zones_skipped >= prefix_zones
