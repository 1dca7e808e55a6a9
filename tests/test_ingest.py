"""Streaming ingest: versioned appends, incremental maintenance, differentials.

The headline acceptance suite of the ingest subsystem is differential, in
two directions:

* **Across planes** -- after every ingest step, all 13 SSB queries answer
  byte-identically on the monolithic reference executor, the unpruned
  selection-vector plane, and the zone-pruned plane, and identically to a
  from-scratch session built over the grown database.

* **Across time** -- a :class:`~repro.ingest.StandingQuery`'s answer,
  folded on read, equals a full re-evaluation at every version, while the
  cache counters prove the work was delta-proportional: appends do no view
  work, zone maps extend instead of rebuilding, unchanged dimensions' build
  artifacts report hits, and an append to one dimension invalidates exactly
  one artifact.
"""

import asyncio
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Q, Session
from repro.engine.plan import execute_query_monolithic, fold_shard_profiles
from repro.engine.physical import lower_query
from repro.engine.shard import partial_for_range
from repro.ingest import IngestBuffer
from repro.service import IngestResult, QueryService
from repro.ssb import QUERIES, QUERY_ORDER, generate_lineorder_batch, generate_ssb, schema
from repro.storage.zonemap import DEFAULT_ZONE_SIZE, ColumnZoneStats, TableZoneMaps

GUARD_S = 30.0


def run(coro):
    async def guarded():
        return await asyncio.wait_for(coro, timeout=GUARD_S)

    return asyncio.run(guarded())


@pytest.fixture()
def ssb():
    """A function-scoped SSB database: ingest tests mutate their data."""
    return generate_ssb(scale_factor=0.01, seed=21)


def supplier_batch(db, rows=50, seed=3):
    """Append-ready rows for the supplier dimension (fresh, unused keys)."""
    rng = np.random.default_rng(seed)
    supplier = db.table("supplier")
    regions = ["ASIA", "AMERICA", "EUROPE", "AFRICA", "MIDDLE EAST"]
    nation = {"ASIA": "CHINA", "AMERICA": "BRAZIL", "EUROPE": "FRANCE",
              "AFRICA": "KENYA", "MIDDLE EAST": "IRAN"}
    chosen = [regions[i] for i in rng.integers(0, len(regions), rows)]
    return {
        "s_suppkey": np.arange(rows, dtype=np.int32) + supplier.num_rows,
        "s_region": np.array(chosen),
        "s_nation": np.array([nation[r] for r in chosen]),
        "s_city": np.array([schema.city_name(nation[r], rng.integers(0, 10)) for r in chosen]),
    }


# ----------------------------------------------------------------------
# Table.append: validation and atomic seal-then-publish
# ----------------------------------------------------------------------


class TestTableAppend:
    def test_append_bumps_version_and_grows_rows(self, ssb):
        fact = ssb.table("lineorder")
        base = fact.num_rows
        assert fact.version == 0
        batch = generate_lineorder_batch(ssb, 100, seed=1)
        assert fact.append(batch) == 1
        assert fact.version == 1
        assert fact.num_rows == base + 100
        np.testing.assert_array_equal(fact["lo_quantity"][base:], batch["lo_quantity"])

    def test_snapshot_pins_the_pre_append_state(self, ssb):
        fact = ssb.table("lineorder")
        snap = fact.snapshot()
        rows_before = snap.num_rows
        fact.append(generate_lineorder_batch(ssb, 64, seed=2))
        assert snap.num_rows == rows_before
        assert snap.version == 0
        assert fact.snapshot().num_rows == rows_before + 64
        # A snapshot of a snapshot is itself (no copy chain).
        assert snap.snapshot() is snap

    def test_snapshot_refuses_append(self, ssb):
        snap = ssb.table("lineorder").snapshot()
        with pytest.raises(ValueError, match="frozen snapshot"):
            snap.append(generate_lineorder_batch(ssb, 8, seed=3))

    def test_empty_batch_publishes_nothing(self, ssb):
        fact = ssb.table("lineorder")
        empty = {name: np.empty(0, dtype=np.int32) for name in fact.columns}
        assert fact.append(empty) == 0
        assert fact.version == 0

    def test_missing_and_unknown_columns_raise(self, ssb):
        fact = ssb.table("lineorder")
        batch = generate_lineorder_batch(ssb, 8, seed=4)
        missing = {k: v for k, v in batch.items() if k != "lo_revenue"}
        with pytest.raises(ValueError, match="missing \\['lo_revenue'\\]"):
            fact.append(missing)
        extra = dict(batch, lo_bogus=np.zeros(8, dtype=np.int32))
        with pytest.raises(ValueError, match="unknown \\['lo_bogus'\\]"):
            fact.append(extra)

    def test_ragged_batch_raises(self, ssb):
        fact = ssb.table("lineorder")
        batch = generate_lineorder_batch(ssb, 8, seed=5)
        batch["lo_quantity"] = batch["lo_quantity"][:4]
        with pytest.raises(ValueError, match="ragged"):
            fact.append(batch)

    def test_lossy_dtype_cast_raises(self, ssb):
        fact = ssb.table("lineorder")
        batch = generate_lineorder_batch(ssb, 2, seed=6)
        batch["lo_quantity"] = np.array([1.0, 2.5])  # 2.5 does not fit int32
        with pytest.raises(ValueError, match="losslessly"):
            fact.append(batch)

    def test_string_values_encode_through_the_dictionary(self, ssb):
        supplier = ssb.table("supplier")
        base = supplier.num_rows
        batch = supplier_batch(ssb, rows=10)
        assert supplier.append(batch) == 1
        decoded = supplier.dictionaries["s_region"].decode(supplier["s_region"][base:])
        np.testing.assert_array_equal(decoded, batch["s_region"])

    def test_unknown_dictionary_label_raises(self, ssb):
        supplier = ssb.table("supplier")
        batch = supplier_batch(ssb, rows=1)
        batch["s_region"] = np.array(["ATLANTIS"])
        with pytest.raises(KeyError):
            supplier.append(batch)


# ----------------------------------------------------------------------
# Incremental statistics: zone maps extend exactly
# ----------------------------------------------------------------------


class TestZoneStatsExtend:
    def equal_stats(self, a: ColumnZoneStats, b: ColumnZoneStats):
        assert a.num_rows == b.num_rows
        assert (a.low, a.high) == (b.low, b.high)
        np.testing.assert_array_equal(a.mins, b.mins)
        np.testing.assert_array_equal(a.maxs, b.maxs)
        if a.bitsets is None:
            assert b.bitsets is None
        else:
            np.testing.assert_array_equal(a.bitsets, b.bitsets)

    @pytest.mark.parametrize("head_rows, tail_rows", [
        (4096 * 2, 100),          # sealed zones + new partial zone
        (4096 * 2 + 50, 100),     # partial tail re-reduced in place
        (4096 * 2 + 50, 4096 * 3),  # tail spans several new zones
        (10, 5),                  # single partial zone grows
    ])
    def test_extend_matches_fresh_build(self, rng, head_rows, tail_rows):
        head = rng.integers(0, 50, head_rows)
        tail = rng.integers(0, 50, tail_rows)
        grown = np.concatenate([head, tail])
        extended = ColumnZoneStats.build("x", head, 4096).extend(grown)
        self.equal_stats(extended, ColumnZoneStats.build("x", grown, 4096))

    def test_extend_rebases_bitsets_when_low_drops(self, rng):
        head = rng.integers(10, 40, 4096 * 2)      # low = 10
        tail = rng.integers(0, 40, 300)            # low drops to 0; span still <= 64
        grown = np.concatenate([head, tail])
        extended = ColumnZoneStats.build("x", head, 4096).extend(grown)
        fresh = ColumnZoneStats.build("x", grown, 4096)
        assert fresh.bitsets is not None
        self.equal_stats(extended, fresh)

    def test_extend_drops_bitsets_when_domain_widens_past_64(self, rng):
        head = rng.integers(0, 50, 4096)
        grown = np.concatenate([head, np.array([500])])
        extended = ColumnZoneStats.build("x", head, 4096).extend(grown)
        self.equal_stats(extended, ColumnZoneStats.build("x", grown, 4096))
        assert extended.bitsets is None

    def test_shrunk_column_raises(self, rng):
        stats = ColumnZoneStats.build("x", rng.integers(0, 50, 100), 4096)
        with pytest.raises(ValueError, match="shrank"):
            stats.extend(np.arange(10))

    def test_extended_to_matches_fresh_maps(self, ssb):
        fact = ssb.table("lineorder")
        maps = TableZoneMaps(fact.snapshot())
        # Touch two stats columns so there is state to carry.
        assert maps.stats("lo_quantity") is not None
        assert maps.stats("lo_orderdate") is not None
        fact.append(generate_lineorder_batch(ssb, 5000, seed=9))
        grown = fact.snapshot()
        ext = maps.extended_to(grown)
        fresh = TableZoneMaps(grown)
        for column in ("lo_quantity", "lo_orderdate"):
            TestZoneStatsExtend().equal_stats(ext.stats(column), fresh.stats(column))
        # Never-touched columns stay lazy in the extended instance too.
        assert "lo_revenue" not in ext._stats

    def test_extended_to_carries_no_packed_copy(self, ssb):
        """Growth re-derives statistics only: a packed copy is never carried."""
        fact = ssb.table("lineorder")
        maps = TableZoneMaps(fact.snapshot())
        assert maps.packed("lo_quantity") is not None
        fact.append(generate_lineorder_batch(ssb, 5000, seed=9))
        ext = maps.extended_to(fact.snapshot())
        assert "lo_quantity" in ext._stats  # the statistics carry forward
        assert ext._packed == {}


# ----------------------------------------------------------------------
# The differential acceptance suite: 13 queries x 3 ingest steps x 3 planes
# ----------------------------------------------------------------------


class TestDifferentialIngest:
    def test_all_queries_all_planes_all_versions(self, ssb):
        pruned = Session(ssb)            # zone-pruned plane, caches versioned
        unpruned = Session(ssb, zones=False)  # selection-vector plane
        standing = {name: pruned.register_standing(QUERIES[name]) for name in QUERY_ORDER}
        # Standing queries fetch through the session's one build cache:
        # registration built each distinct lookup of the 13 queries once.
        distinct = {b.key for name in QUERY_ORDER for b in lower_query(QUERIES[name]).builds}
        total_joins = sum(len(QUERIES[name].joins) for name in QUERY_ORDER)
        registered = pruned.cache_info("builds")
        assert (registered.misses, registered.hits) == (len(distinct), total_joins - len(distinct))

        for step in range(3):
            before = pruned.counters()
            version = pruned.ingest(
                "lineorder", generate_lineorder_batch(ssb, DEFAULT_ZONE_SIZE, seed=30 + step)
            )
            assert version == step + 1
            # An append does no standing-query work ...
            ingested = pruned.counters() - before
            assert (ingested.build_misses, ingested.build_hits) == (0, 0)
            # ... the fold happens on read, and is delta-proportional: a
            # read of all 13 hits every dimension artifact and builds none.
            for name in QUERY_ORDER:
                standing[name].answer()
            folded = pruned.counters() - before
            assert (folded.build_misses, folded.build_hits) == (0, total_joins)
            fresh = Session(ssb)  # from-scratch reference at this version
            for name in QUERY_ORDER:
                query = QUERIES[name]
                reference, _ = execute_query_monolithic(ssb, query)
                assert pruned.run(query).value == reference, (name, "pruned plane")
                assert unpruned.run(query).value == reference, (name, "unpruned plane")
                assert fresh.run(query).value == reference, (name, "fresh session")
                assert standing[name].answer() == reference, (name, "standing query")
            delta = pruned.counters() - before
            # Zone maps were extended, not rebuilt: after the first step
            # builds them, appends cost extension events and zero misses.
            if step > 0:
                assert delta.zone_extensions >= 1
                assert delta.zone_misses == 0

        for name in QUERY_ORDER:
            assert standing[name].ticks == 4  # registration + 3 folds on read
            assert standing[name].full_refreshes == 1

    def test_standing_scalar_and_avg_ops(self, ssb):
        session = Session(ssb)
        count_q = Q("lineorder", db=ssb).agg("count").build(ssb)
        avg_q = (
            Q("lineorder", db=ssb)
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("avg", "lo_quantity")
            .build(ssb)
        )
        minmax_q = Q("lineorder", db=ssb).filter("lo_discount", "ge", 9).agg("max", "lo_revenue").build(ssb)
        handles = [
            session.register_standing(q, name=f"sq{i}")
            for i, q in enumerate((count_q, avg_q, minmax_q))
        ]
        for step in range(3):
            session.ingest("lineorder", generate_lineorder_batch(ssb, 1000, seed=60 + step))
            fresh = Session(ssb, cache=False)
            for handle, query in zip(handles, (count_q, avg_q, minmax_q)):
                assert handle.answer() == fresh.run(query).value, query.name
        # avg is one (sum, count) partial per fold, so it probes its one
        # build once per fold like any other op -- not once per half.
        # (The other two queries join nothing, and nothing else ran here.)
        builds = session.cache_info("builds")
        assert (builds.misses, builds.hits) == (1, 3)

    def test_dimension_append_triggers_one_full_refresh(self, ssb):
        session = Session(ssb)
        handle = session.register_standing(QUERIES["q2.1"])
        session.ingest("lineorder", generate_lineorder_batch(ssb, 500, seed=70))
        handle.answer()
        assert handle.full_refreshes == 1
        built = session.cache_info("builds").misses
        ssb.table("supplier").append(supplier_batch(ssb))
        session.ingest("lineorder", generate_lineorder_batch(ssb, 500, seed=71))
        assert handle.full_refreshes == 1  # counted on read, not on append
        reference, _ = execute_query_monolithic(ssb, QUERIES["q2.1"])
        assert handle.answer() == reference
        assert handle.full_refreshes == 2  # the dimension change forced one
        assert session.cache_info("builds").misses == built + 1  # and rebuilt only itself

    def test_noop_refresh_does_no_work(self, ssb):
        session = Session(ssb)
        handle = session.register_standing(QUERIES["q1.1"])
        ticks = handle.ticks
        builds = session.cache_info("builds")
        assert handle.refresh() == execute_query_monolithic(ssb, QUERIES["q1.1"])[0]
        assert handle.ticks == ticks
        assert session.cache_info("builds") == builds

    def test_answer_is_current_without_a_push(self, ssb):
        session = Session(ssb)
        handle = session.register_standing(QUERIES["q2.1"])
        ssb.table("lineorder").append(generate_lineorder_batch(ssb, 700, seed=74))
        # An out-of-band append, and no refresh() call: the read folds it.
        assert handle.answer() == execute_query_monolithic(ssb, QUERIES["q2.1"])[0]
        assert (handle.ticks, handle.full_refreshes) == (2, 1)

    def test_ingest_runs_no_pipeline(self, ssb, monkeypatch):
        from repro.engine import physical

        session = Session(ssb)
        handles = [session.register_standing(QUERIES[name]) for name in ("q1.1", "q2.1", "q4.1")]
        calls = []
        partial = physical.execute_physical_partial
        monkeypatch.setattr(
            physical, "execute_physical_partial", lambda *a, **k: calls.append(a) or partial(*a, **k)
        )
        builds = session.cache_info("builds")
        for seed in (75, 76):
            session.ingest("lineorder", generate_lineorder_batch(ssb, DEFAULT_ZONE_SIZE, seed=seed))
        assert calls == []
        assert session.cache_info("builds") == builds
        # Each read then folds both batches in one ranged pass.
        for handle in handles:
            assert handle.answer() == execute_query_monolithic(ssb, handle.query)[0]
        assert len(calls) == len(handles)

    def test_failed_registration_leaves_nothing_registered(self, ssb):
        session = Session(ssb)
        bad = replace(QUERIES["q2.1"], name="bad", group_by=("d_year", "nope"))
        with pytest.raises(ValueError, match="nope"):
            session.register_standing(bad)
        assert session.standing_queries() == {}
        # The next ingest publishes and returns normally (no poisoned handle).
        assert session.ingest("lineorder", generate_lineorder_batch(ssb, 100, seed=72)) == 1
        handle = session.register_standing(QUERIES["q2.1"], name="bad")
        reference, _ = execute_query_monolithic(ssb, QUERIES["q2.1"])
        assert handle.answer() == reference
        with pytest.raises(ValueError, match="already registered"):
            session.register_standing(QUERIES["q2.1"], name="bad")

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_generated_ingest_sequences_match_recomputation(self, data):
        """Any update sequence leaves the maintained answer == recomputation.

        Batch sizes are drawn; every sequence also holds one 0-row batch and
        one supplier append at drawn positions.  Only queries joining
        ``supplier`` may pay a second full refresh, and only for that append.
        """
        db = generate_ssb(scale_factor=0.005, seed=21)
        session = Session(db)
        by_region = (
            Q("lineorder", db=db)
            .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_region")
            .group_by("s_region")
        )
        queries = [
            QUERIES["q1.1"],
            QUERIES["q2.1"],
            by_region.agg("avg", "lo_quantity").build(db),
            by_region.agg("min", "lo_revenue").build(db),
            Q("lineorder", db=db).filter("lo_discount", "ge", 9).agg("max", "lo_revenue").build(db),
        ]
        handles = [session.register_standing(q, name=f"sq{i}") for i, q in enumerate(queries)]
        sizes = data.draw(st.lists(st.integers(1, 2 * DEFAULT_ZONE_SIZE), min_size=1, max_size=3), label="sizes")
        steps = data.draw(st.permutations([*sizes, 0, "supplier"]), label="steps")
        supplier_grew = False
        for i, step in enumerate(steps):
            if step == "supplier":
                db.table("supplier").append(supplier_batch(db, seed=i))
                supplier_grew = True
            else:
                session.ingest("lineorder", generate_lineorder_batch(db, step, seed=100 + i))
            for handle, query in zip(handles, queries):
                reference, _ = execute_query_monolithic(db, query)
                assert handle.answer() == reference, (query.name, steps[: i + 1])
                joins_supplier = any(join.dimension == "supplier" for join in query.joins)
                assert handle.full_refreshes == 1 + (supplier_grew and joins_supplier)

    def test_fold_is_proportional_to_the_batch_not_the_table(self):
        """Clock-free: a fold on read may allocate O(batch), never O(table),
        with the session's zone maps on (their extension is O(batch) too)."""
        db = generate_ssb(scale_factor=0.05, seed=21)
        fact = db.table("lineorder")
        assert fact.num_rows >= 300_000
        session = Session(db)
        handles = [session.register_standing(QUERIES[name]) for name in ("q1.1", "q2.1", "q4.1")]
        batch = DEFAULT_ZONE_SIZE
        fact.append(generate_lineorder_batch(db, batch, seed=73))
        built = session.cache_info("builds").misses
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for handle in handles:
                handle.answer()
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        # Measured ~22 B per batch row; a rescan peaks above 2 MB.  The bound
        # sits far below one 4-byte fact column (>= 1.2 MB): no rescan, no
        # row-id vector over the prefix, no rebuilt dimension lookup.
        assert peak < 128 * batch < 2 * fact.num_rows
        for handle in handles:
            assert (handle.ticks, handle.full_refreshes) == (2, 1)  # one fold each
        assert session.cache_info("builds").misses == built

    def test_registration_builds_range_sized_lookups(self, ssb):
        """Clock-free: registering q2.1 (60 000 fact rows) allocates its
        scan temporaries and three small lookups -- not a ``date`` lookup
        zero-based over ``d_datekey`` (19 981 232 slots, ~60 MB pinned per
        standing query), which a tick run outside the session's scopes
        used to build."""
        session = Session(ssb)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            handle = session.register_standing(QUERIES["q2.1"])
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert handle.answer() == execute_query_monolithic(ssb, QUERIES["q2.1"])[0]


# ----------------------------------------------------------------------
# Versioned cache invalidation: only what changed rebuilds
# ----------------------------------------------------------------------


class TestVersionedInvalidation:
    def test_execution_memo_extends_the_previous_version_entry(self, ssb):
        session = Session(ssb)
        old = session.run(QUERIES["q1.1"]).value
        session.ingest("lineorder", generate_lineorder_batch(ssb, 2000, seed=80))
        new = session.run(QUERIES["q1.1"]).value  # miss: version changed
        assert new != old
        assert new == execute_query_monolithic(ssb, QUERIES["q1.1"])[0]
        info = session.cache_info()
        # The miss folded the 2000 appended rows into the old entry, which
        # the extended one replaced: no read can hit the old version again.
        assert info.misses == 2 and info.size == 1
        assert session.counters().execution_extensions == 1
        session.run(QUERIES["q1.1"])
        assert session.cache_info().hits == 1  # current version replays

    def test_dimension_append_invalidates_exactly_one_artifact(self, ssb):
        session = Session(ssb, cache=False)  # force execution; isolate builds
        queries = [QUERIES["q2.1"]] * 4
        session.run_many(queries)
        before = session.cache_info("builds")
        ssb.table("part").append({
            "p_partkey": np.array([ssb.table("part").num_rows], dtype=np.int32),
            "p_mfgr": np.array(["MFGR#1"]),
            "p_category": np.array(["MFGR#11"]),
            "p_brand1": np.array(["MFGR#1111"]),
        })
        session.run_many(queries, workers=4)
        delta_misses = session.cache_info("builds").misses - before.misses
        assert delta_misses == 1  # the part build, exactly once, despite 4 workers
        reference, _ = execute_query_monolithic(ssb, QUERIES["q2.1"])
        assert session.run(QUERIES["q2.1"]).value == reference

    def test_unchanged_tables_keep_hitting_after_other_table_grows(self, ssb):
        session = Session(ssb)
        date_count = Q("date", db=ssb).agg("count").build(ssb)
        session.run(date_count)
        session.ingest("lineorder", generate_lineorder_batch(ssb, 100, seed=81))
        session.run(date_count)  # lineorder's version is irrelevant to this key
        assert session.cache_info().hits == 1


# ----------------------------------------------------------------------
# Extended answers: a cached read after an append folds only the new rows
# ----------------------------------------------------------------------


def op_queries(db) -> dict:
    """One builder query per aggregate op, grouped and scalar, some selective."""
    by_year = Q("lineorder", db=db).join("date", on=("lo_orderdate", "d_datekey"), payload="d_year").group_by("d_year")
    return {
        "count": Q("lineorder", db=db).filter("lo_discount", "ge", 9).agg("count").build(db),
        "sum": by_year.agg("sum", "lo_revenue").build(db),
        "min": by_year.agg("min", "lo_revenue").build(db),
        "max": Q("lineorder", db=db).filter("lo_quantity", "lt", 3).agg("max", "lo_revenue").build(db),
        "avg": by_year.agg("avg", "lo_quantity").build(db),
    }


class TestExtendedAnswers:
    @pytest.mark.parametrize("name", ["q1.2", "q2.2", "q3.1", "q4.2"])
    def test_fold_takes_column_sizes_from_the_newest_slice(self, ssb, name):
        query = QUERIES[name]
        _, old = execute_query_monolithic(ssb, query)
        ssb.table("lineorder").append(generate_lineorder_batch(ssb, 2 * DEFAULT_ZONE_SIZE, seed=95))
        _, fresh = partial_for_range(ssb, query, old.fact_rows, ssb.table("lineorder").num_rows)
        value, expected = execute_query_monolithic(ssb, query)
        assert fold_shard_profiles([fresh, old], value) == expected
        # The other order charges the columns as they were before the append.
        assert fold_shard_profiles([old, fresh], value) != expected

    def test_extending_read_is_proportional_to_the_batch_not_the_table(self):
        """Clock-free: an extending read may allocate O(batch), never O(table)
        (no rescan of the whole column)."""
        db = generate_ssb(scale_factor=0.05, seed=21)
        fact = db.table("lineorder")
        session = Session(db)
        names = ("q1.2", "q2.2", "q3.1", "q4.2")
        for name in names:
            session.run(QUERIES[name])
        batch = DEFAULT_ZONE_SIZE
        session.ingest("lineorder", generate_lineorder_batch(db, batch, seed=98))
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for name in names:
                session.run(QUERIES[name])
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert session.counters().execution_extensions == len(names)
        assert peak < 128 * batch < 2 * fact.num_rows

    def test_dimension_append_recomputes_instead(self, ssb):
        session = Session(ssb)
        session.run(QUERIES["q2.1"])
        ssb.table("supplier").append(supplier_batch(ssb))
        session.ingest("lineorder", generate_lineorder_batch(ssb, 500, seed=96))
        assert session.run(QUERIES["q2.1"]).value == execute_query_monolithic(ssb, QUERIES["q2.1"])[0]
        assert session.counters().execution_extensions == 0

    def test_failed_extension_keeps_its_predecessor(self, ssb, monkeypatch):
        from repro.engine import physical

        session = Session(ssb)
        session.run(QUERIES["q1.1"])
        session.ingest("lineorder", generate_lineorder_batch(ssb, 500, seed=97))

        def broken(*args, **kwargs):
            raise RuntimeError("slice failed")

        with monkeypatch.context() as patch:
            patch.setattr(physical, "execute_physical_partial", broken)
            with pytest.raises(RuntimeError, match="slice failed"):
                session.run(QUERIES["q1.1"])
        assert session.cache_info().size == 1  # the predecessor, still extendable
        assert session.run(QUERIES["q1.1"]).value == execute_query_monolithic(ssb, QUERIES["q1.1"])[0]
        assert session.counters().execution_extensions == 1

    def test_a_stale_insert_keeps_the_newer_entry_of_its_lineage(self, ssb, monkeypatch):
        """Reader A folds v0 into v1; before A stores, reader B appends and
        folds v0 into v2.  A's insert under the older key must not evict
        B's entry from a one-entry memo, or the next read recomputes."""
        from repro.engine import plan

        session = Session(ssb)
        handle = session.register_standing(QUERIES["q1.1"])
        fold = plan._extend_answer
        raced = []

        def racing(*args):
            if not raced:
                raced.append(True)
                session.ingest("lineorder", generate_lineorder_batch(ssb, 300, seed=91))
                handle.answer()  # reader B
            return fold(*args)

        session.ingest("lineorder", generate_lineorder_batch(ssb, 300, seed=92))
        with monkeypatch.context() as patch:
            patch.setattr(plan, "_extend_answer", racing)
            handle.answer()  # reader A
        assert raced
        assert (handle.ticks, handle.full_refreshes) == (3, 1)
        session.ingest("lineorder", generate_lineorder_batch(ssb, 300, seed=93))
        assert handle.answer() == execute_query_monolithic(ssb, QUERIES["q1.1"])[0]
        assert (handle.ticks, handle.full_refreshes) == (4, 1)  # a fold, not a re-evaluation

    def test_a_stale_full_evaluation_is_not_stored(self, ssb, monkeypatch):
        """The same race on the full-evaluation path: after a dimension
        append, reader A evaluates at fact v0 while reader B appends and
        evaluates at v1; A's result must not displace B's entry."""
        from repro.engine import plan

        session = Session(ssb)
        handle = session.register_standing(QUERIES["q2.1"])
        evaluate = plan._execute_query_uncached
        raced = []

        def racing(*args):
            if not raced:
                raced.append(True)
                session.ingest("lineorder", generate_lineorder_batch(ssb, 300, seed=94))
                handle.answer()  # reader B
            return evaluate(*args)

        ssb.table("supplier").append(supplier_batch(ssb))
        with monkeypatch.context() as patch:
            patch.setattr(plan, "_execute_query_uncached", racing)
            handle.answer()  # reader A
        assert raced
        assert (handle.ticks, handle.full_refreshes) == (3, 3)
        session.ingest("lineorder", generate_lineorder_batch(ssb, 300, seed=95))
        assert handle.answer() == execute_query_monolithic(ssb, QUERIES["q2.1"])[0]
        assert (handle.ticks, handle.full_refreshes) == (4, 3)  # a fold, not a re-evaluation

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_generated_appends_and_cached_reads_match_uncached_runs(self, data):
        """Each cached read -- a hit, or an extension -- equals a
        ``cache=False`` run in value, stats and simulated time, and so does
        each standing read, whatever appends came since its last one.

        Every sequence ends in two fact appends with no read between them
        and then a ``supplier`` append, each followed by a standing read of
        every query: folds of several batches, and full re-evaluations.
        """
        db = generate_ssb(scale_factor=0.005, seed=23)
        queries = {**{name: QUERIES[name] for name in QUERY_ORDER}, **op_queries(db)}
        shards = data.draw(st.sampled_from([1, 2]), label="shards")
        engine = data.draw(st.sampled_from(["cpu", "gpu", "hyper"]), label="engine")
        names = data.draw(st.lists(st.sampled_from(sorted(queries)), min_size=1, max_size=3, unique=True))
        read = st.sampled_from(names)
        standing_read = read.map(lambda name: ("standing", name))
        append = st.integers(0, 2 * DEFAULT_ZONE_SIZE)
        steps = data.draw(
            st.lists(st.one_of(read, standing_read, append, st.just("supplier")), min_size=2, max_size=8),
            label="steps",
        )
        every = [("standing", name) for name in names]
        tail = data.draw(st.lists(st.integers(1, 2 * DEFAULT_ZONE_SIZE), min_size=2, max_size=2), label="tail")
        steps = [*steps, *every, *tail, *every, "supplier", *every]
        joins_supplier = {name: any(j.dimension == "supplier" for j in queries[name].joins) for name in names}

        def after(pending: dict, step) -> dict:
            """Each query's next read: ``"fold"`` new fact rows, ``"full"``
            re-evaluation (a joined dimension grew), or ``None`` (a hit)."""
            if step == "supplier":
                return {name: "full" if joins_supplier[name] else work for name, work in pending.items()}
            return {name: work or "fold" for name, work in pending.items()} if step else pending

        extensions = 0
        stale: dict = {}  # session memo: query -> its next cached read's work
        with Session(db, shards=shards) as session:
            handles = {name: session.register_standing(queries[name], name=name) for name in names}
            pending = dict.fromkeys(names)  # standing memos, likewise
            ticks, full = dict.fromkeys(names, 1), dict.fromkeys(names, 1)
            for i, step in enumerate(steps):
                if step == "supplier":
                    db.table("supplier").append(supplier_batch(db, seed=i))
                elif isinstance(step, int):
                    session.ingest("lineorder", generate_lineorder_batch(db, step, seed=200 + i))
                elif isinstance(step, tuple):
                    name = step[1]
                    ticks[name] += pending[name] is not None
                    full[name] += pending[name] == "full"
                    pending[name] = None
                    fresh = session.run(queries[name], engine=engine, cache=False)
                    assert handles[name].answer() == fresh.value, (step, steps[: i + 1])
                    continue
                else:
                    extensions += stale.get(step) == "fold"
                    stale[step] = None
                    cached = session.run(queries[step], engine=engine)
                    fresh = session.run(queries[step], engine=engine, cache=False)
                    assert cached.value == fresh.value, (step, steps[: i + 1])
                    assert cached.stats == fresh.stats, (step, steps[: i + 1])
                    assert cached.simulated_ms == fresh.simulated_ms, (step, steps[: i + 1])
                    continue
                stale, pending = after(stale, step), after(pending, step)
            assert session.counters().execution_extensions == extensions
            for name, handle in handles.items():
                assert (handle.ticks, handle.full_refreshes) == (ticks[name], full[name]), name


class TestClearCaches:
    def test_clear_caches_drops_everything_and_zeroes_counters(self, ssb):
        session = Session(ssb)
        session.run_many([QUERIES["q2.1"], QUERIES["q1.1"]])
        assert session.cache_info().size > 0
        assert session.cache_info("builds").size > 0
        assert session.cache_info("zones").misses > 0
        session.clear_caches()
        for kind in ("execution", "builds"):
            info = session.cache_info(kind)
            assert (info.hits, info.misses, info.size) == (0, 0, 0)
        assert session.cache_info("zones") == (0, 0, 0, 0, 0, 0, 0, 0)


# ----------------------------------------------------------------------
# Partial-tail zone accounting stays exact under appends (regression)
# ----------------------------------------------------------------------


class TestPartialTailPruneCounters:
    def test_rows_pruned_counts_actual_rows_not_zone_width(self, ssb):
        # 60 000 rows is not a zone multiple, so the tail zone is partial
        # from the start; a predicate no row satisfies skips every zone and
        # must report exactly the actual row count, not zones * 4096.
        session = Session(ssb)
        nothing = Q("lineorder", db=ssb).filter("lo_quantity", "lt", 1).agg("count").build(ssb)
        assert session.run(nothing).value == 0.0
        assert session.cache_info("zones").rows_pruned == ssb.table("lineorder").num_rows

    def test_rows_pruned_stays_exact_after_partial_tail_append(self, ssb):
        session = Session(ssb)
        nothing = Q("lineorder", db=ssb).filter("lo_quantity", "lt", 1).agg("count").build(ssb)
        session.run(nothing)
        session.ingest("lineorder", generate_lineorder_batch(ssb, 100, seed=90))
        before = session.cache_info("zones").rows_pruned
        session.run(nothing, cache=False)
        grown = ssb.table("lineorder").num_rows
        assert session.cache_info("zones").rows_pruned - before == grown
        delta = session.counters()
        assert delta.zone_extensions == 1  # maps extended, not rebuilt
        # A cached read extends its answer: it prunes the appended rows only.
        before = session.cache_info("zones").rows_pruned
        assert session.run(nothing).value == 0.0
        assert session.cache_info("zones").rows_pruned - before == 100
        assert session.counters().execution_extensions == 1


# ----------------------------------------------------------------------
# IngestBuffer: zone-aligned sealing
# ----------------------------------------------------------------------


class TestIngestBuffer:
    def test_seals_exactly_at_zone_boundaries(self, ssb):
        fact = ssb.table("lineorder")
        base = fact.num_rows
        buffer = IngestBuffer(fact)
        chunk = generate_lineorder_batch(ssb, 1500, seed=40)
        assert buffer.add(chunk) == []           # 1500 staged
        assert buffer.staged_rows == 1500
        chunk2 = generate_lineorder_batch(ssb, 3000, seed=41)
        versions = buffer.add(chunk2)            # 4500 staged -> one batch
        assert versions == [1]
        assert buffer.staged_rows == 4500 - DEFAULT_ZONE_SIZE
        assert fact.num_rows == base + DEFAULT_ZONE_SIZE

    def test_large_chunk_seals_multiple_batches(self, ssb):
        fact = ssb.table("lineorder")
        buffer = IngestBuffer(fact)
        versions = buffer.add(generate_lineorder_batch(ssb, 3 * DEFAULT_ZONE_SIZE + 500, seed=42))
        assert versions == [1, 2, 3]
        assert buffer.staged_rows == 500
        assert buffer.sealed_rows == 3 * DEFAULT_ZONE_SIZE

    def test_flush_seals_the_partial_remainder(self, ssb):
        fact = ssb.table("lineorder")
        base = fact.num_rows
        buffer = IngestBuffer(fact)
        buffer.add(generate_lineorder_batch(ssb, 700, seed=43))
        assert buffer.flush() == 1
        assert fact.num_rows == base + 700
        assert buffer.flush() is None  # nothing left

    def test_bad_chunks_fail_fast(self, ssb):
        buffer = IngestBuffer(ssb.table("lineorder"))
        with pytest.raises(ValueError, match="missing"):
            buffer.add({"lo_quantity": np.arange(4)})
        chunk = generate_lineorder_batch(ssb, 8, seed=45)
        chunk["lo_quantity"] = chunk["lo_quantity"][:4]
        with pytest.raises(ValueError, match="ragged"):
            buffer.add(chunk)
        assert buffer.staged_rows == 0  # nothing half-staged


# ----------------------------------------------------------------------
# Service integration: reads interleaved with ingest, never a torn batch
# ----------------------------------------------------------------------


class TestServiceIngest:
    def test_interleaved_ingest_and_reads(self, ssb):
        session = Session(ssb)
        base = ssb.table("lineorder").num_rows
        count_q = Q("lineorder", db=ssb).agg("count").build(ssb)
        batch = 512

        async def go():
            async with QueryService(session, max_inflight=2) as svc:
                results = await asyncio.gather(*(
                    svc.ingest("lineorder", generate_lineorder_batch(ssb, batch, seed=50 + i))
                    if i % 2 == 0
                    else svc.submit(count_q)
                    for i in range(8)
                ))
                await svc.drain()
                return results

        results = run(go())
        ingests = [r for r in results if isinstance(r, IngestResult)]
        assert sorted(r.version for r in ingests) == [1, 2, 3, 4]
        assert all(r.table == "lineorder" and r.rows == batch for r in ingests)
        for r in results:
            versions = r.trace.table_versions
            assert versions is not None and 0 <= versions["lineorder"] <= 4
            if not isinstance(r, IngestResult):
                # Admitted reads see whole sealed batches, never a torn one.
                assert (r.result.value - base) % batch == 0
        assert ssb.table("lineorder").num_rows == base + 4 * batch

    def test_ingest_validates_the_table_name_at_admission(self, ssb):
        session = Session(ssb)

        async def go():
            async with QueryService(session) as svc:
                with pytest.raises(KeyError, match="nope"):
                    await svc.ingest("nope", {"x": np.arange(3)})

        run(go())


# ----------------------------------------------------------------------
# The hammer: concurrent ingest vs morsel-parallel reads
# ----------------------------------------------------------------------


class TestConcurrentIngestHammer:
    def test_readers_only_ever_see_fully_sealed_versions(self, ssb):
        session = Session(ssb, cache=False)  # force real executions
        fact = ssb.table("lineorder")
        base = fact.num_rows
        batch, num_batches = 1000, 12
        count_q = Q("lineorder", db=ssb).agg("count").build(ssb)
        stop = threading.Event()

        def writer():
            for i in range(num_batches):
                fact.append(generate_lineorder_batch(ssb, batch, seed=200 + i))
            stop.set()

        thread = threading.Thread(target=writer)
        thread.start()
        observed = []
        try:
            while not stop.is_set():
                results = session.run_many([count_q] * 4, workers=4)
                observed.extend(result.value for result in results)
        finally:
            thread.join()
        observed.append(session.run(count_q).value)
        for value in observed:
            k, remainder = divmod(value - base, batch)
            assert remainder == 0, f"torn read: saw {value} rows"
            assert 0 <= k <= num_batches
        assert observed[-1] == base + num_batches * batch

    def test_racing_workers_rebuild_an_invalidated_artifact_exactly_once(self, ssb):
        session = Session(ssb, cache=False)
        queries = [QUERIES["q3.1"]] * 8
        session.run_many(queries, workers=4)
        baseline = session.cache_info("builds")
        # Grow one dimension, hammer again: its artifact misses exactly once
        # (the in-flight arbitration), everything else keeps hitting.
        ssb.table("supplier").append(supplier_batch(ssb))
        session.run_many(queries, workers=4)
        info = session.cache_info("builds")
        assert info.misses - baseline.misses == 1
        reference, _ = execute_query_monolithic(ssb, QUERIES["q3.1"])
        assert session.run(QUERIES["q3.1"]).value == reference

    def test_concurrent_ingest_and_standing_refresh(self, ssb):
        """Readers fold while writers seal: every answer a reader sees is
        the answer at some sealed version, and the last one is current."""
        session = Session(ssb)
        count_q = Q("lineorder", db=ssb).agg("count").build(ssb)
        handles = [session.register_standing(QUERIES["q1.1"]), session.register_standing(count_q)]
        base = ssb.table("lineorder").num_rows
        buffer = IngestBuffer(ssb.table("lineorder"))
        writers = [
            threading.Thread(
                target=lambda i=i: buffer.add(
                    generate_lineorder_batch(ssb, DEFAULT_ZONE_SIZE // 2, seed=300 + i)
                )
            )
            for i in range(8)
        ]
        done = threading.Event()
        counts: list = []

        def reader():
            while not done.is_set():
                handles[0].answer()
                counts.append(handles[1].answer())

        readers = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(GUARD_S)
            done.set()
            for t in readers:
                t.join(GUARD_S)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        buffer.flush()
        for count in counts:
            assert (count - base) % DEFAULT_ZONE_SIZE == 0, count
            assert base <= count <= base + 4 * DEFAULT_ZONE_SIZE, count
        reference, _ = execute_query_monolithic(ssb, QUERIES["q1.1"])
        assert handles[0].answer() == reference
        assert handles[1].answer() == base + 4 * DEFAULT_ZONE_SIZE
