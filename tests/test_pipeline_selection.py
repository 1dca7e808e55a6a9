"""The late-materialization selection-vector data plane.

The physical pipeline no longer carries full-fact-width boolean masks:
operators compact survivors into a selection vector once and work at
selection-vector width from then on, payload codes ride along in narrow
dtypes, and the grouped aggregate factorizes packed-radix keys.  None of
that may show: these tests hold answers and profiles byte-identical to the
full-width mask reference executor on all 13 SSB queries (plus OR-trees),
and pin down the new helpers individually.
"""

import ast
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Q, Session, col
from repro.engine import physical
from repro.engine.cache import BuildArtifactCache, ZoneMapCache, activate_builds, activate_zones
from repro.engine.expr import evaluate_pred, evaluate_pred_at
from repro.engine.physical import BuildArtifact, BuildLookup, ProbeJoin, lower_query
from repro.engine.plan import (
    execute_query,
    execute_query_monolithic,
    factorize_group_keys,
    fold_shard_profiles,
    grouped_aggregate,
    grouped_aggregate_values,
    merge_partial_aggregates,
    narrowest_signed_dtype,
    scalar_aggregate,
    scalar_aggregate_values,
)
from repro.engine.shard import partial_for_range
from repro.ssb.queries import QUERIES, And, FilterSpec, JoinSpec, Leaf, Not, Or, SSBQuery
from repro.storage.compression import PACK_CHUNK_VALUES, BitPackedColumn
from repro.storage.zonemap import ZONE_EVALUATE, ZONE_SKIP, ZONE_TAKE, cluster_by

# ----------------------------------------------------------------------
# Differential: selection vectors vs the full-width mask reference
# ----------------------------------------------------------------------


class TestSelectionVectorParity:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_all_13_queries_answers_and_profiles(self, tiny_ssb, name):
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, QUERIES[name])
        value_sel, profile_sel = execute_query(tiny_ssb, QUERIES[name])
        assert value_sel == value_mono
        assert profile_sel == profile_mono

    @pytest.mark.parametrize(
        "pred",
        [
            col("lo_discount").between(1, 3) | (col("lo_quantity") > 45),
            (col("lo_discount") == 1) | (col("lo_discount") == 2) | (col("lo_quantity") < 5),
            ~(col("lo_quantity") < 25) & (col("lo_discount") >= 2),
            (col("lo_discount") <= 2) & ((col("lo_quantity") < 10) | (col("lo_quantity") > 40)),
        ],
        ids=["or-band", "triple-or", "not-and", "nested-or"],
    )
    def test_or_tree_predicates(self, tiny_ssb, pred):
        query = (
            Q("lineorder")
            .where(pred)
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("sum", "lo_extendedprice", "lo_discount", combine="mul")
            .build(tiny_ssb)
        )
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, query)
        value_sel, profile_sel = execute_query(tiny_ssb, query)
        assert value_sel == value_mono
        assert profile_sel == profile_mono

    @pytest.mark.parametrize("op", ["sum", "count", "min", "max", "avg"])
    def test_every_aggregate_op(self, tiny_ssb, op):
        builder = (
            Q("lineorder")
            .where(col("lo_quantity") < 20)
            .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_region")
            .group_by("s_region")
        )
        builder = builder.agg(op) if op == "count" else builder.agg(op, "lo_revenue")
        query = builder.build(tiny_ssb)
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, query)
        value_sel, profile_sel = execute_query(tiny_ssb, query)
        assert value_sel == value_mono
        assert profile_sel == profile_mono

    def test_empty_selection(self, tiny_ssb):
        query = (
            Q("lineorder")
            .where(col("lo_quantity") > 10_000)  # nothing survives
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("sum", "lo_revenue")
            .build(tiny_ssb)
        )
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, query)
        value_sel, profile_sel = execute_query(tiny_ssb, query)
        assert value_sel == value_mono == {}
        assert profile_sel == profile_mono


# ----------------------------------------------------------------------
# evaluate_pred_at: predicate evaluation at selection-vector width
# ----------------------------------------------------------------------


class TestEvaluatePredAt:
    @pytest.mark.parametrize(
        "spec",
        [
            FilterSpec("lo_quantity", "eq", 25),
            FilterSpec("lo_quantity", "ne", 25),
            FilterSpec("lo_quantity", "lt", 25),
            FilterSpec("lo_quantity", "le", 25),
            FilterSpec("lo_quantity", "gt", 25),
            FilterSpec("lo_quantity", "ge", 25),
            FilterSpec("lo_discount", "between", (2, 5)),
            FilterSpec("lo_discount", "in", (1, 4, 9)),
        ],
        ids=lambda spec: spec.op,
    )
    def test_leaf_ops_match_full_width(self, tiny_ssb, rng, spec):
        fact = tiny_ssb.table("lineorder")
        sel = np.flatnonzero(rng.random(fact.num_rows) < 0.3)
        full = evaluate_pred(fact, spec)
        at = evaluate_pred_at(fact, spec, sel)
        np.testing.assert_array_equal(at, full[sel])

    def test_trees_match_full_width(self, tiny_ssb, rng):
        fact = tiny_ssb.table("lineorder")
        pred = (col("lo_discount").between(1, 3) | ~(col("lo_quantity") < 30)) & (
            col("lo_orderdate") > 19920601
        )
        sel = np.flatnonzero(rng.random(fact.num_rows) < 0.1)
        full = evaluate_pred(fact, pred)
        at = evaluate_pred_at(fact, pred, sel)
        np.testing.assert_array_equal(at, full[sel])

    def test_empty_selection_vector(self, tiny_ssb):
        fact = tiny_ssb.table("lineorder")
        sel = np.array([], dtype=np.int64)
        at = evaluate_pred_at(fact, FilterSpec("lo_quantity", "lt", 25), sel)
        assert at.shape == (0,)

    def test_refined_selection_composes(self, tiny_ssb):
        fact = tiny_ssb.table("lineorder")
        first = FilterSpec("lo_discount", "between", (1, 3))
        second = FilterSpec("lo_quantity", "lt", 25)
        sel = np.flatnonzero(evaluate_pred(fact, first))
        refined = sel[evaluate_pred_at(fact, second, sel)]
        both = np.flatnonzero(evaluate_pred(fact, first) & evaluate_pred(fact, second))
        np.testing.assert_array_equal(refined, both)

    @pytest.mark.parametrize(
        "second",
        [
            col("lo_quantity").between(10, 30),
            (col("lo_quantity") == 10) | (col("lo_quantity") == 20) | (col("lo_quantity") == 30),
            ((col("lo_quantity") < 10) | (col("lo_discount") > 8)) & (col("lo_quantity") >= 2),
        ],
        ids=["band", "branchy", "mixed"],
    )
    def test_refinement_matches_conjunction(self, tiny_ssb, second):
        """A late conjunct refines survivors to exactly the conjunction's rows."""
        fact = tiny_ssb.table("lineorder")
        first = col("lo_orderdate") > 19940101
        sel = np.flatnonzero(evaluate_pred(fact, first))
        refined = sel[evaluate_pred_at(fact, second, sel)]
        both = np.flatnonzero(evaluate_pred(fact, first) & evaluate_pred(fact, second))
        np.testing.assert_array_equal(refined, both)

    # A ``slice`` names contiguous rows: the span plane's sequential scan.
    SLICE_PREDS = [
        Leaf(FilterSpec("lo_discount", "between", (2, 5))),
        Leaf(FilterSpec("lo_discount", "in", (1, 4, 9))),
        And(FilterSpec("lo_discount", "le", 3), FilterSpec("lo_quantity", "lt", 25)),
        Or(FilterSpec("lo_discount", "eq", 1), FilterSpec("lo_quantity", "gt", 45)),
        Not(FilterSpec("lo_quantity", "lt", 30)),
        And(Or(FilterSpec("lo_discount", "le", 2), Not(FilterSpec("lo_quantity", "ge", 10))),
            FilterSpec("lo_orderdate", "gt", 19920601)),
        And(),  # vacuously true
        Or(),  # vacuously false
    ]

    @pytest.mark.parametrize("pred", SLICE_PREDS, ids=str)
    @pytest.mark.parametrize("bounds", [(0, None), (0, 1), (4097, 9001), (777, 777), (59_000, None)])
    def test_slice_matches_full_width(self, tiny_ssb, pred, bounds):
        fact = tiny_ssb.table("lineorder")
        a, b = bounds[0], fact.num_rows if bounds[1] is None else bounds[1]
        at = evaluate_pred_at(fact, pred, slice(a, b))
        assert at.dtype == bool and at.shape == (b - a,)
        np.testing.assert_array_equal(at, evaluate_pred(fact, pred)[a:b])

    @pytest.mark.parametrize("sel", [slice(10, 20), slice(5, 5), np.arange(10, 20)], ids=repr)
    def test_string_against_numeric_column_raises(self, tiny_ssb, sel):
        fact = tiny_ssb.table("lineorder")
        with pytest.raises(TypeError, match="string constant"):
            evaluate_pred_at(fact, FilterSpec("lo_quantity", "eq", "25"), sel)


# ----------------------------------------------------------------------
# Packed-radix group keys
# ----------------------------------------------------------------------


class TestFactorizeGroupKeys:
    def _reference(self, key_arrays):
        stacked = np.stack([a.astype(np.int64) for a in key_arrays], axis=1)
        return np.unique(stacked, axis=0, return_inverse=True)

    @pytest.mark.parametrize("num_columns", [1, 2, 3])
    def test_matches_np_unique(self, rng, num_columns):
        key_arrays = [rng.integers(0, 40, size=5000) for _ in range(num_columns)]
        unique, inverse = factorize_group_keys(key_arrays)
        ref_unique, ref_inverse = self._reference(key_arrays)
        np.testing.assert_array_equal(unique, ref_unique)
        np.testing.assert_array_equal(np.asarray(inverse).ravel(), np.asarray(ref_inverse).ravel())

    def test_negative_codes(self, rng):
        key_arrays = [rng.integers(-7, 7, size=2000), rng.integers(-100, 3, size=2000)]
        unique, inverse = factorize_group_keys(key_arrays)
        ref_unique, ref_inverse = self._reference(key_arrays)
        np.testing.assert_array_equal(unique, ref_unique)
        np.testing.assert_array_equal(np.asarray(inverse).ravel(), np.asarray(ref_inverse).ravel())

    def test_sparse_domain_falls_back_to_sorted_unique(self, rng):
        # Wide per-column ranges force the packed domain over the dense
        # bincount limit while still fitting int64.
        key_arrays = [rng.integers(0, 2**21, size=300), rng.integers(0, 2**21, size=300)]
        unique, inverse = factorize_group_keys(key_arrays)
        ref_unique, ref_inverse = self._reference(key_arrays)
        np.testing.assert_array_equal(unique, ref_unique)
        np.testing.assert_array_equal(np.asarray(inverse).ravel(), np.asarray(ref_inverse).ravel())

    def test_overflowing_domain_falls_back_to_axis_unique(self, rng):
        key_arrays = [
            rng.integers(0, 2**40, size=100),
            rng.integers(0, 2**40, size=100),
        ]
        unique, inverse = factorize_group_keys(key_arrays)
        ref_unique, ref_inverse = self._reference(key_arrays)
        np.testing.assert_array_equal(unique, ref_unique)
        np.testing.assert_array_equal(np.asarray(inverse).ravel(), np.asarray(ref_inverse).ravel())

    def test_single_group(self):
        key_arrays = [np.full(10, 3), np.full(10, -2)]
        unique, inverse = factorize_group_keys(key_arrays)
        np.testing.assert_array_equal(unique, [[3, -2]])
        np.testing.assert_array_equal(inverse, np.zeros(10, dtype=np.int64))

    def test_lexicographic_order_preserved(self, rng):
        """Result-dict iteration order must match the old axis=0 unique."""
        key_arrays = [rng.integers(0, 5, size=1000), rng.integers(0, 9, size=1000)]
        unique, _ = factorize_group_keys(key_arrays)
        as_tuples = [tuple(row) for row in unique]
        assert as_tuples == sorted(as_tuples)


# ----------------------------------------------------------------------
# Gathered-width aggregate helpers
# ----------------------------------------------------------------------


class TestAggregateValueHelpers:
    @pytest.mark.parametrize("op", ["sum", "count", "min", "max", "avg"])
    def test_scalar_parity(self, rng, op):
        measure = rng.random(500)
        selected = np.flatnonzero(rng.random(500) < 0.4)
        full = scalar_aggregate(op, measure, selected)
        values = None if op == "count" else measure[selected]
        gathered = scalar_aggregate_values(op, values, int(selected.size))
        assert gathered == full

    @pytest.mark.parametrize("op", ["sum", "count", "min", "max", "avg"])
    def test_scalar_empty_selection(self, op):
        empty = np.array([], dtype=np.int64)
        full = scalar_aggregate(op, np.arange(5, dtype=np.float64), empty)
        gathered = scalar_aggregate_values(op, None if op == "count" else np.array([]), 0)
        assert gathered == full

    @pytest.mark.parametrize("op", ["sum", "count", "min", "max", "avg"])
    def test_grouped_parity(self, rng, op):
        measure = rng.random(800)
        selected = np.flatnonzero(rng.random(800) < 0.5)
        inverse = rng.integers(0, 6, size=selected.size)
        full = grouped_aggregate(op, measure, selected, inverse, 6)
        values = None if op == "count" else measure[selected]
        gathered = grouped_aggregate_values(op, values, inverse, 6)
        np.testing.assert_array_equal(gathered, full)


    @pytest.mark.parametrize("op", ["sum", "count", "min", "max", "avg"])
    def test_grouped_composite_keys_match_python_reference(self, rng, op):
        years = rng.integers(1992, 1999, size=600)
        brands = rng.integers(0, 40, size=600)
        measure = rng.integers(0, 1000, size=600).astype(np.float64)
        unique, inverse = factorize_group_keys([years, brands])
        out = grouped_aggregate_values(op, None if op == "count" else measure, inverse, len(unique))
        groups: dict[tuple, list] = {}
        for year, brand, value in zip(years.tolist(), brands.tolist(), measure.tolist()):
            groups.setdefault((year, brand), []).append(value)
        reduce = {"sum": sum, "count": len, "min": min, "max": max}.get(op, lambda v: sum(v) / len(v))
        expected = {key: float(reduce(values)) for key, values in groups.items()}
        assert dict(zip(map(tuple, unique.tolist()), out.tolist())) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Narrow payload dtypes
# ----------------------------------------------------------------------


class TestNarrowPayloads:
    def test_narrowest_signed_dtype(self):
        assert narrowest_signed_dtype(0, 100) == np.int8
        assert narrowest_signed_dtype(-1, 300) == np.int16
        assert narrowest_signed_dtype(0, 2**20) == np.int32
        assert narrowest_signed_dtype(0, 2**40) == np.int64
        with pytest.raises(OverflowError):
            narrowest_signed_dtype(0, 2**70)

    def test_year_payload_is_two_bytes(self, tiny_ssb):
        plan = lower_query(QUERIES["q2.1"])
        date_build = next(b for b in plan.builds if b.join.dimension == "date")
        artifact = date_build.build(tiny_ssb)
        assert artifact.lookup.dtype == np.int16  # years ~1992..1998
        assert artifact.lookup.itemsize < 8

    def test_payload_free_build_is_one_byte(self, tiny_ssb):
        join = lower_query(QUERIES["q1.1"]).logical.joins[0]
        assert join.payload is None
        artifact = BuildLookup(join).build(tiny_ssb)
        assert artifact.lookup.dtype == np.int8

    def test_probe_carries_narrow_codes(self, tiny_ssb):
        from repro.engine.physical import execute_physical

        plan = lower_query(QUERIES["q2.1"])
        value, profile = execute_physical(tiny_ssb, plan)
        # Decoded answers are plain ints regardless of carried dtype.
        assert all(isinstance(k, int) for key in value for k in key)
        value_mono, profile_mono = execute_query_monolithic(tiny_ssb, QUERIES["q2.1"])
        assert value == value_mono
        assert profile == profile_mono


# ----------------------------------------------------------------------
# Plan-time payload validation
# ----------------------------------------------------------------------


class TestPayloadValidationAtLowerTime:
    def _duplicate_payload_query(self):
        return SSBQuery(
            name="dup-payload",
            flight=0,
            fact_filters=(),
            joins=(
                JoinSpec("date", "lo_orderdate", "d_datekey", (), payload="d_year"),
                JoinSpec("date", "lo_commitdate", "d_datekey", (), payload="d_year"),
            ),
            group_by=("d_year",),
            aggregate=QUERIES["q2.1"].aggregate,
        )

    def test_rejected_before_any_execution(self, tiny_ssb):
        """lower() raises; no operator ever touches the pipeline state."""
        with pytest.raises(ValueError, match="more than one join"):
            lower_query(self._duplicate_payload_query())

    def test_rejected_through_execute_query(self, tiny_ssb):
        with pytest.raises(ValueError, match="more than one join"):
            execute_query(tiny_ssb, self._duplicate_payload_query())

    def test_rejected_without_building_artifacts(self, tiny_ssb):
        session = Session(tiny_ssb)
        with pytest.raises(ValueError, match="more than one join"):
            session.run_many([self._duplicate_payload_query()], engine="cpu")
        assert session.cache_info("builds").size == 0


# ----------------------------------------------------------------------
# The tiled probe: keys widen to ``intp`` slots one tile at a time
# ----------------------------------------------------------------------

TILE_SIZES = [4096, 3 * 4096, 1 << 30]  # one zone, a few zones, wider than any input
KEY_DTYPES = [np.int8, np.int16, np.int32, np.int64]


def _artifact(present, lookup, key_base):
    held = np.flatnonzero(present) + key_base
    return BuildArtifact(
        dimension="d", dimension_rows=present.size, build_rows=held.size, hash_table_bytes=0.0,
        build_scan_bytes=0.0, lookup=lookup, present=present, key_base=key_base,
        key_low=int(held.min()) if held.size else 0, key_high=int(held.max()) if held.size else -1,
    )


@st.composite
def probe_cases(draw):
    """A lookup, a key column that strays off both of its ends, and a span."""
    dtype = np.dtype(draw(st.sampled_from(KEY_DTYPES)))
    size = draw(st.integers(1, 40))
    key_base = draw(st.sampled_from([0, 0, 3, 60]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    present = rng.random(size) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    lookup = rng.integers(-100, 100, size=size).astype(np.int8)
    info = np.iinfo(dtype)
    low, high = max(info.min, key_base - 5), min(info.max, key_base + size + 4)
    n = draw(st.sampled_from([0, 1, 5000, 13_000]))
    keys = rng.integers(low, high + 1, size=n).astype(dtype)
    # The edges themselves, wherever the dtype can hold them.
    edges = [k for k in (key_base - 1, key_base, key_base + size - 1, key_base + size) if low <= k <= high]
    keys[: len(edges)] = edges[: n]
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    if draw(st.booleans()):  # a column that does stay in range, for the proven path
        keys = np.clip(keys, key_base, key_base + size - 1)
    return _artifact(present, lookup, key_base), keys, lo, hi


@pytest.fixture(scope="module")
def span_zones(tiny_ssb):
    """One zone-map cache for every generated span example (statistics build once)."""
    return ZoneMapCache(tiny_ssb)


class TestTiledProbe:
    @pytest.mark.parametrize("tile", TILE_SIZES)
    @settings(max_examples=40, deadline=None)
    @given(case=probe_cases())
    def test_hits_and_payload_match_a_membership_oracle(self, tile, case):
        artifact, keys, lo, hi = case
        span = keys[lo:hi]
        held = {int(k) for k in np.flatnonzero(artifact.present) + artifact.key_base}
        oracle = [int(k) in held for k in span]
        stays = all(artifact.key_base <= int(k) < artifact.key_base + artifact.present.size for k in span)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(physical, "PROBE_TILE_ROWS", tile)
            for in_range in {False, stays}:  # the proven path only where it *is* proven
                hit = ProbeJoin._hits(artifact, span, in_range)
                assert hit.dtype == bool and hit.tolist() == oracle
            survivors = span.take(np.flatnonzero(hit))
            codes = ProbeJoin._payload(artifact, survivors)
        assert codes.dtype == artifact.lookup.dtype
        assert codes.tolist() == [int(artifact.lookup[int(k) - artifact.key_base]) for k in survivors]

    @pytest.mark.parametrize("tile", TILE_SIZES)
    @pytest.mark.parametrize("zones", [True, False], ids=["zones", "plain"])
    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    def test_all_13_queries_at_every_tile_size(self, tiny_ssb, monkeypatch, layout, zones, tile):
        """Value and profile, every plane: clustered data walks the zone
        plane's skip / undecided branches, ``plain`` the range-validity mask."""
        db = tiny_ssb if layout == "uniform" else cluster_by(tiny_ssb, "lineorder", "lo_orderdate")
        monkeypatch.setattr(physical, "PROBE_TILE_ROWS", tile)
        with activate_zones(ZoneMapCache(db) if zones else None):
            for name in sorted(QUERIES):
                assert execute_query(db, QUERIES[name]) == execute_query_monolithic(db, QUERIES[name]), name

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), tile=st.sampled_from(TILE_SIZES), name=st.sampled_from(["q2.1", "q3.1", "q4.2"]))
    def test_spans_cut_mid_tile_and_mid_zone(self, tiny_ssb, span_zones, data, tile, name):
        n = tiny_ssb.table("lineorder").num_rows
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=1, max_size=3)))
        bounds = [0, *cuts, n]
        expected_value, expected_profile = execute_query_monolithic(tiny_ssb, QUERIES[name])
        with pytest.MonkeyPatch.context() as patch, activate_zones(span_zones):
            patch.setattr(physical, "PROBE_TILE_ROWS", tile)
            parts = [partial_for_range(tiny_ssb, QUERIES[name], a, b) for a, b in zip(bounds, bounds[1:])]
        value = merge_partial_aggregates([partial for partial, _ in parts])
        assert value == expected_value
        assert fold_shard_profiles([profile for _, profile in parts], value) == expected_profile


# ----------------------------------------------------------------------
# The scan: survivors as a span mask while dense, as row ids once sparse
# ----------------------------------------------------------------------

SCAN_TERMS = {
    "dense": col("lo_quantity") < 46,  # ~90 % survive: the mask stays
    "band": col("lo_discount").between(4, 6),  # ~27 %
    "rare": col("lo_quantity") < 3,  # ~4 %: below one in eight, row ids from here
    "dates": col("lo_orderdate").between(19930601, 19951231),  # skip, take and evaluate zones
}
SCAN_ORDERS = [
    ("dense", "band", "rare"),
    ("dates", "dense", "band"),
    ("rare", "dates", "band"),
    ("band", "rare", "dates", "dense"),
    ("dense", "dates"),
]
SCAN_SPANS = [(0, None), (1000, -777), (3 * 4096 + 5, 9 * 4096 - 1)]  # (lo, hi); hi < 0 counts from the end


@pytest.fixture(scope="module")
def clustered_tiny(tiny_ssb):
    return cluster_by(tiny_ssb, "lineorder", "lo_orderdate")


def _scan_query(db, order, join):
    pred = SCAN_TERMS[order[0]]
    for name in order[1:]:
        pred = pred & SCAN_TERMS[name]
    builder = Q("lineorder").where(pred)
    if join == "none":
        return builder.agg("sum", "lo_revenue").build(db), list(pred.children) if len(order) > 1 else [pred]
    fact_dates = db.table("lineorder")["lo_orderdate"]
    # Last date of zone 1 when zone 2 starts on a later day: every fact zone
    # past it is skipped by the probe, and every key before it hits.
    filters = {"all-hit": [], "prefix": [("d_datekey", "le", int(fact_dates[2 * 4096 - 1]))]}[join]
    assert join == "all-hit" or fact_dates[2 * 4096] > fact_dates[2 * 4096 - 1]
    query = (
        builder.join("date", on=("lo_orderdate", "d_datekey"), filters=filters, payload="d_year")
        .group_by("d_year")
        .agg("count")
        .build(db)
    )
    return query, list(pred.children) if len(order) > 1 else [pred]


def _expected_zone_counts(db, maps, terms, lo, hi):
    """The scan's zone counters by definition: each conjunct counts its
    classes over the span's zones, and prunes the rows still alive before
    it that sit in its skip zones."""
    fact = db.table("lineorder")
    zones = maps.zone_of(np.arange(lo, hi))
    span_zones = np.unique(zones)
    alive = np.ones(hi - lo, dtype=bool)
    counts = np.zeros(4, dtype=np.int64)  # skipped, taken, evaluated, rows pruned
    for term in terms:
        cls = maps.classify(term)
        if cls is not None:
            counts += [
                np.count_nonzero(cls[span_zones] == ZONE_SKIP),
                np.count_nonzero(cls[span_zones] == ZONE_TAKE),
                np.count_nonzero(cls[span_zones] == ZONE_EVALUATE),
                np.count_nonzero(alive & (cls[zones] == ZONE_SKIP)),
            ]
        alive &= evaluate_pred(fact, term)[lo:hi]
    return counts.tolist()


class TestScanRepresentations:
    """The filter conjuncts hold the survivors as a span mask while dense
    and as row ids once sparse; answers, profiles and zone counters must not
    show which, in any order of conjuncts, over any span."""

    @pytest.mark.parametrize("span", SCAN_SPANS, ids=["whole", "cut", "mid-zone"])
    @pytest.mark.parametrize("join", ["none", "all-hit", "prefix"])
    @pytest.mark.parametrize("order", SCAN_ORDERS, ids=["-".join(order) for order in SCAN_ORDERS])
    def test_value_profile_and_zone_counters(self, clustered_tiny, order, join, span):
        db = clustered_tiny
        n = db.table("lineorder").num_rows
        lo, end = span
        hi = n if end is None else end if end > 0 else n + end
        query, terms = _scan_query(db, order, join)
        zones = ZoneMapCache(db)
        with activate_zones(zones):
            maps = zones.maps(db, db.table("lineorder"))
            if (lo, hi) == (0, n):
                value, profile = execute_query(db, query)
                expected = execute_query_monolithic(db, query)
            else:
                # Checked against the same range's partial with zones off.
                partial, profile = partial_for_range(db, query, lo, hi)
                value = merge_partial_aggregates([partial])
        if (lo, hi) != (0, n):
            with activate_zones(None):
                plain, plain_profile = partial_for_range(db, query, lo, hi)
            expected = merge_partial_aggregates([plain]), plain_profile
        assert (value, profile) == expected
        info = zones.info()
        scanned = [info.zones_skipped, info.zones_taken, info.zones_evaluated, info.rows_pruned]
        if join == "none":  # with a join the probe adds its own zone counts
            assert scanned == _expected_zone_counts(db, maps, terms, lo, hi)

    def test_every_row_dropped_by_a_skip_zone(self, clustered_tiny):
        """A conjunct no zone can satisfy clears the mask unread."""
        db = clustered_tiny
        query = Q("lineorder").where((col("lo_quantity") < 46) & (col("lo_orderdate") < 19000101)).agg("count").build(db)
        zones = ZoneMapCache(db)
        with activate_zones(zones):
            assert execute_query(db, query) == execute_query_monolithic(db, query)
        assert zones.info().rows_pruned == int(np.count_nonzero(db.table("lineorder")["lo_quantity"] < 46))


# ----------------------------------------------------------------------
# The data plane's rules, held without a clock
# ----------------------------------------------------------------------


class TestDataPlaneRules:
    @pytest.mark.parametrize("zones", [True, False], ids=["zones", "plain"])
    @pytest.mark.parametrize("name", ["q2.1", "q3.1"])
    def test_span_probe_never_widens_the_whole_span(self, small_ssb, name, zones):
        """An ``intp`` slot (or row id) per span row costs ``8 x n`` bytes by
        itself, so a join-first query whose *peak* new allocation stays below
        that widened its probe keys a tile at a time -- with the
        range-validity mask (``plain``) or without it."""
        n = small_ssb.table("lineorder").num_rows
        assert n >= 300_000
        with activate_zones(ZoneMapCache(small_ssb) if zones else None), activate_builds(BuildArtifactCache(small_ssb)):
            plan = lower_query(QUERIES[name], small_ssb)
            physical.execute_physical(small_ssb, plan)  # statistics and builds now cached
            peak = _peak_bytes(lambda: physical.execute_physical(small_ssb, plan))
        assert peak < 8 * n

    @pytest.mark.parametrize("zones", [True, False], ids=["zones", "plain"])
    def test_dense_scan_never_widens_the_whole_span(self, small_ssb, zones):
        """Row ids for the ~90 % a dense leading conjunct keeps would cost
        ``7.2 x n`` bytes by themselves; the scan holds them as a one-byte
        mask until they thin out, so the conjunct chain peaks near ``3 x n``."""
        n = small_ssb.table("lineorder").num_rows
        pred = (col("lo_quantity") < 46) & col("lo_discount").between(4, 6) & (col("lo_extendedprice") >= 2_000_000)
        query = Q("lineorder").where(pred).agg("count").build(small_ssb)
        with activate_zones(ZoneMapCache(small_ssb) if zones else None):
            plan = lower_query(query, small_ssb)
            physical.execute_physical(small_ssb, plan)  # statistics now cached
            peak = _peak_bytes(lambda: physical.execute_physical(small_ssb, plan))
        assert peak < 4 * n

    def test_pack_scratch_is_chunk_sized(self, rng):
        values = rng.integers(0, 1000, size=4_000_000).astype(np.int32)
        packed_bytes = BitPackedColumn.pack(values).packed.nbytes
        peak = _peak_bytes(lambda: BitPackedColumn.pack(values))
        # Positions, word indices, offsets, shifted values, spills: a dozen
        # chunk-wide 8-byte arrays at the very most -- never column-wide ones.
        assert peak < packed_bytes + 12 * 8 * PACK_CHUNK_VALUES
        assert peak < 8 * values.size  # one column-wide uint64 temporary alone

    def test_no_boolean_mask_subscripts_in_the_data_plane(self):
        """Compaction is ``np.flatnonzero`` once + ``take``: a mask subscript
        on a fact- or selection-width array costs ~5x that (ISSUE 19)."""
        tree = ast.parse(inspect.getsource(physical))
        wide = {"sel", "slots", "codes", "keys", "fact_keys", "subset"}
        masks = {"keep", "hit", "undecided", "valid", "mask"}
        offenders = [
            f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Name) and node.slice.id in masks
            and ast.unparse(node.value).split(".")[-1] in wide
        ]
        assert not offenders, offenders


def _peak_bytes(run) -> int:
    """Peak bytes newly allocated while ``run()`` executes (reads no clock)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before
