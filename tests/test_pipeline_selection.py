"""The late-materialization selection-vector data plane.

The physical pipeline no longer carries full-fact-width boolean masks:
operators compact survivors into a selection vector once and work at
selection-vector width from then on, payload codes ride along in narrow
dtypes, and the grouped aggregate factorizes packed-radix keys.  None of
that may show: these tests hold answers and profiles byte-identical to the
full-width mask reference executor on all 13 SSB queries (plus OR-trees),
and pin down the new helpers individually.
"""

import numpy as np
import pytest

from repro.api import Q, Session, col
from repro.engine.expr import evaluate_pred, evaluate_pred_at
from repro.engine.physical import BuildLookup, lower_query
from repro.engine.plan import (
    execute_query,
    execute_query_monolithic,
    factorize_group_keys,
    grouped_aggregate,
    grouped_aggregate_values,
    narrowest_signed_dtype,
    scalar_aggregate,
    scalar_aggregate_values,
)
from repro.ssb.queries import QUERIES, And, FilterSpec, JoinSpec, Leaf, Not, Or, SSBQuery

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

    def test_slice_ignores_packed_twins(self, tiny_ssb):
        """Twins serve row-id gathers; a contiguous scan streams the plain column."""
        from repro.storage.zonemap import TableZoneMaps

        fact = tiny_ssb.table("lineorder")
        packed = TableZoneMaps(fact).packed_for(("lo_quantity",))
        assert packed  # the twin exists, so ignoring it is a choice, not an accident
        spec = FilterSpec("lo_quantity", "lt", 25)
        at = evaluate_pred_at(fact, spec, slice(100, 5000), packed=packed)
        np.testing.assert_array_equal(at, evaluate_pred(fact, spec)[100:5000])

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
            session.run_many([self._duplicate_payload_query()], engine="cpu", share_builds=True)
        assert session.cache_info("builds").size == 0
