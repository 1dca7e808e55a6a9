"""Tests for the boolean predicate algebra (AND/OR/NOT expression trees).

Covers the tree nodes themselves, the builder DSL (``col`` comparisons
composed with ``&``/``|``/``~``), property-style checks of
``evaluate_pred`` against brute-force NumPy masks on generated data, the
tree-shape counts the cost models read, the end-to-end path through every
engine, and the profile rule that each
referenced filter column is charged exactly once per query.
"""

import numpy as np
import pytest

from repro.api import Q, QueryValidationError, Session, available_engines, col
from repro.engine.expr import (
    compare_values,
    evaluate_filter,
    evaluate_pred,
    predicate_leaf_count,
    predicate_or_branches,
)
from repro.engine.plan import execute_query
from repro.ssb.queries import (
    QUERIES,
    And,
    FilterSpec,
    Leaf,
    Not,
    Or,
    as_pred,
    conjuncts,
)
from repro.storage import Table


class TestPredAlgebra:
    def test_operators_build_trees(self):
        a = FilterSpec("x", "lt", 3)
        b = FilterSpec("y", "ge", 5)
        assert a & b == And(Leaf(a), Leaf(b))
        assert a | b == Or(Leaf(a), Leaf(b))
        assert ~a == Not(Leaf(a))

    def test_and_or_flatten_associatively(self):
        a, b, c = (Leaf(FilterSpec(name, "eq", 1)) for name in "abc")
        assert (a & b) & c == And(a, b, c)
        assert a | (b | c) == Or(a, b, c)
        # Mixed operators keep their structure.
        assert ((a & b) | c) == Or(And(a, b), c)

    def test_as_pred_normalizes_legacy_shapes(self):
        spec = FilterSpec("x", "eq", 1)
        assert as_pred(spec) == Leaf(spec)
        assert as_pred((spec,)) == And(Leaf(spec))
        assert as_pred(()) == And()
        tree = Or(Leaf(spec))
        assert as_pred(tree) is tree
        with pytest.raises(TypeError):
            as_pred("x = 1")

    def test_conjuncts_split_only_top_level_and(self):
        a, b = Leaf(FilterSpec("a", "eq", 1)), Leaf(FilterSpec("b", "eq", 2))
        assert conjuncts(And(a, b)) == (a, b)
        assert conjuncts(Or(a, b)) == (Or(a, b),)
        assert conjuncts((FilterSpec("a", "eq", 1),)) == (a,)

    def test_columns_are_distinct_and_ordered(self):
        tree = Or(
            Leaf(FilterSpec("x", "lt", 1)),
            And(Leaf(FilterSpec("y", "gt", 2)), Leaf(FilterSpec("x", "gt", 9))),
        )
        assert tree.columns() == ("x", "y")
        assert [spec.column for spec in tree.leaves()] == ["x", "y", "x"]

    def test_trees_are_hashable_and_str_renders(self):
        tree = ~(col("x") < 3) & col("region").eq("ASIA")
        assert hash(tree) == hash(~(col("x") < 3) & col("region").eq("ASIA"))
        text = str(tree)
        assert "NOT" in text and "AND" in text and "'ASIA'" in text

    def test_map_leaves_preserves_shape(self):
        tree = Or(Leaf(FilterSpec("x", "lt", 1)), Not(Leaf(FilterSpec("y", "eq", 2))))
        mapped = tree.map_leaves(lambda s: FilterSpec(s.column, s.op, s.value, encoded=True))
        assert isinstance(mapped, Or) and isinstance(mapped.children[1], Not)
        assert all(spec.encoded for spec in mapped.leaves())


class TestCompareValues:
    VALUES = np.array([1, 3, 5, 7])

    @pytest.mark.parametrize(
        "op, constant, expected",
        [
            ("eq", 5, [False, False, True, False]),
            ("ne", 5, [True, True, False, True]),
            ("lt", 5, [True, True, False, False]),
            ("le", 5, [True, True, True, False]),
            ("gt", 3, [False, False, True, True]),
            ("ge", 3, [False, True, True, True]),
            ("between", (3, 5), [False, True, True, False]),
            ("in", (1, 7, 9), [True, False, False, True]),
        ],
    )
    def test_each_operator(self, op, constant, expected):
        mask = compare_values(self.VALUES, FilterSpec("x", op, constant), constant)
        assert mask.tolist() == expected

    def test_unknown_operator_raises(self):
        spec = FilterSpec("x", "like", 3)
        with pytest.raises(ValueError, match="unsupported filter operator 'like'"):
            compare_values(self.VALUES, spec, 3)


class TestColumnDSL:
    def test_comparisons_produce_leaves(self):
        assert (col("x") < 3) == Leaf(FilterSpec("x", "lt", 3))
        assert (col("x") <= 3) == Leaf(FilterSpec("x", "le", 3))
        assert (col("x") > 3) == Leaf(FilterSpec("x", "gt", 3))
        assert (col("x") >= 3) == Leaf(FilterSpec("x", "ge", 3))
        assert col("x").eq(3) == Leaf(FilterSpec("x", "eq", 3))
        assert (col("x") != 3) == Leaf(FilterSpec("x", "ne", 3))
        assert col("x").between(1, 3) == Leaf(FilterSpec("x", "between", (1, 3)))
        assert col("c").isin("A", "B") == Leaf(FilterSpec("c", "in", ("A", "B")))
        assert col("c").isin(["A", "B"]) == Leaf(FilterSpec("c", "in", ("A", "B")))

    def test_dsl_validates_eagerly(self):
        with pytest.raises(QueryValidationError, match="unknown filter operator"):
            col("x")._leaf("like", "abc")
        with pytest.raises(QueryValidationError, match="non-empty column name"):
            col("")

    def test_where_rejects_bare_column(self):
        with pytest.raises(QueryValidationError, match="bare column reference"):
            Q().where(col("lo_quantity"))

    def test_column_to_column_comparison_rejected(self):
        """col-vs-col would silently select every row; it must raise instead."""
        with pytest.raises(QueryValidationError, match="column-to-column"):
            col("lo_quantity").eq(col("lo_discount"))
        with pytest.raises(QueryValidationError, match="column-to-column"):
            col("lo_quantity") < col("lo_discount")
        with pytest.raises(QueryValidationError, match="column-to-column"):
            Q().filter("lo_quantity", "eq", col("lo_discount"))
        with pytest.raises(QueryValidationError, match="column-to-column"):
            col("lo_quantity").isin(1, col("lo_discount"))

    def test_where_needs_a_predicate(self):
        with pytest.raises(QueryValidationError, match="at least one"):
            Q().where()

    def test_filter_is_sugar_for_where(self):
        via_filter = Q().filter("lo_quantity", "lt", 25).agg("count").build()
        via_where = Q().where(("lo_quantity", "lt", 25)).agg("count").build()
        assert via_filter.fact_filters == via_where.fact_filters == (
            FilterSpec("lo_quantity", "lt", 25),
        )

    def test_pure_conjunctions_emit_legacy_tuples(self):
        query = (
            Q()
            .where(col("lo_quantity") < 25)
            .filter("lo_discount", "between", (1, 3))
            .agg("count")
            .build()
        )
        assert isinstance(query.fact_filters, tuple)
        assert [s.column for s in query.fact_filters] == ["lo_quantity", "lo_discount"]

    def test_trees_survive_build_and_validation(self, tiny_ssb):
        query = (
            Q()
            .where((col("lo_quantity") < 25) | ~col("lo_discount").between(1, 3))
            .agg("count")
            .build(tiny_ssb)
        )
        assert isinstance(query.fact_filters, Or)

    def test_build_auto_encodes_strings_inside_trees(self, tiny_ssb):
        query = (
            Q()
            .join(
                "supplier",
                on=("lo_suppkey", "s_suppkey"),
                filters=col("s_region").eq("ASIA") | col("s_region").eq("AMERICA"),
            )
            .agg("count")
            .build(tiny_ssb)
        )
        assert all(spec.encoded for spec in query.joins[0].predicate.leaves())

    def test_build_rejects_unknown_columns_inside_trees(self, tiny_ssb):
        builder = Q().where((col("lo_quantity") < 25) | (col("lo_nope") > 1)).agg("count")
        with pytest.raises(QueryValidationError, match="lo_nope"):
            builder.build(tiny_ssb)

    def test_build_rejects_unknown_dictionary_values_inside_trees(self, tiny_ssb):
        builder = Q().join(
            "supplier",
            on=("lo_suppkey", "s_suppkey"),
            filters=~col("s_region").eq("ATLANTIS"),
        ).agg("count")
        with pytest.raises(QueryValidationError, match="ATLANTIS"):
            builder.build(tiny_ssb)


def _reference_masks(table, rng, depth=0):
    """Generate (pred, reference_mask) pairs by random recursive descent."""
    x = table["x"]
    y = table["y"]
    choice = rng.integers(0, 7 if depth < 3 else 4)
    if choice == 0:
        c = int(rng.integers(-5, 15))
        return (col("x") < c), x < c
    if choice == 1:
        lo = int(rng.integers(-5, 10))
        hi = lo + int(rng.integers(0, 8))
        return col("y").between(lo, hi), (y >= lo) & (y <= hi)
    if choice == 2:
        values = tuple(int(v) for v in rng.integers(-5, 15, size=3))
        return col("x").isin(values), np.isin(x, np.asarray(values))
    if choice == 3:
        c = int(rng.integers(-5, 15))
        return (col("y") != c), y != c
    if choice == 4:
        child, mask = _reference_masks(table, rng, depth + 1)
        return ~child, ~mask
    left, left_mask = _reference_masks(table, rng, depth + 1)
    right, right_mask = _reference_masks(table, rng, depth + 1)
    if choice == 5:
        return left & right, left_mask & right_mask
    return left | right, left_mask | right_mask


class TestEvaluatePredProperties:
    """Property-style: random trees equal brute-force NumPy evaluation."""

    @pytest.fixture(scope="class")
    def table(self):
        gen = np.random.default_rng(2024)
        return Table.from_arrays(
            "t",
            {
                "x": gen.integers(-5, 15, size=500),
                "y": gen.integers(-5, 15, size=500),
            },
        )

    def test_random_trees_match_numpy(self, table):
        rng = np.random.default_rng(7)
        nontrivial = 0
        for _ in range(60):
            pred, expected = _reference_masks(table, rng)
            actual = evaluate_pred(table, pred)
            np.testing.assert_array_equal(actual, expected)
            if 0 < expected.sum() < expected.size:
                nontrivial += 1
        assert nontrivial >= 20  # the generator is actually exercising selectivity

    def test_de_morgan(self, table):
        a = col("x") < 5
        b = col("y") > 2
        np.testing.assert_array_equal(
            evaluate_pred(table, ~(a & b)), evaluate_pred(table, ~a | ~b)
        )
        np.testing.assert_array_equal(
            evaluate_pred(table, ~(a | b)), evaluate_pred(table, ~a & ~b)
        )

    def test_empty_junction_identities(self, table):
        assert evaluate_pred(table, And()).all()
        assert not evaluate_pred(table, Or()).any()

    def test_double_negation(self, table):
        a = col("x") < 5
        np.testing.assert_array_equal(evaluate_pred(table, ~~a), evaluate_pred(table, a))

    def test_leaf_equals_evaluate_filter(self, table):
        spec = FilterSpec("x", "between", (0, 9))
        np.testing.assert_array_equal(
            evaluate_pred(table, Leaf(spec)), evaluate_filter(table, spec)
        )


class TestPredicateShape:
    """The tree shape the filter stages record for the engine cost models."""

    def test_counts(self):
        band = col("x").between(10, 30)
        branchy = (col("x") == 10) | (col("x") == 20) | (col("x") == 30)
        mixed = ((col("x") < 10) | (col("y") > 40)) & (col("x") >= 2)
        assert predicate_leaf_count(band) == 1
        assert predicate_or_branches(band) == 0
        assert predicate_leaf_count(branchy) == 3
        assert predicate_or_branches(branchy) == 2
        assert predicate_leaf_count(mixed) == 3
        assert predicate_or_branches(mixed) == 1
        assert predicate_or_branches(~branchy) == 2
        # Legacy tuple conjunctions normalize too.
        assert predicate_leaf_count((FilterSpec("x", "lt", 5), FilterSpec("y", "gt", 1))) == 2
        assert predicate_or_branches(()) == 0


#: The three selection shapes of Section 4.2 over ``lineorder``, each with a
#: brute-force NumPy mask over (quantity, discount) and its expected
#: (leaf count, OR alternatives): a fused band, a branchy disjunction over
#: one column, and a mixed tree whose top-level AND splits into two stages.
SELECTION_SHAPES = {
    "band": (
        col("lo_quantity").between(10, 30),
        lambda q, d: (q >= 10) & (q <= 30),
        (1, 0),
    ),
    "branchy": (
        (col("lo_quantity") == 10) | (col("lo_quantity") == 20) | (col("lo_quantity") == 30),
        lambda q, d: (q == 10) | (q == 20) | (q == 30),
        (3, 2),
    ),
    "mixed": (
        ((col("lo_quantity") < 10) | (col("lo_discount") > 8)) & (col("lo_quantity") >= 2),
        lambda q, d: ((q < 10) | (d > 8)) & (q >= 2),
        (3, 1),
    ),
}


class TestSelectionShapes:
    """Each selection shape through every engine and into the profile."""

    @pytest.mark.parametrize("engine", ["coprocessor", "cpu", "gpu", "hyper", "monetdb", "omnisci"])
    @pytest.mark.parametrize("shape", sorted(SELECTION_SHAPES))
    def test_engine_matches_numpy_reference(self, tiny_ssb, shape, engine):
        pred, reference, _ = SELECTION_SHAPES[shape]
        lo = tiny_ssb["lineorder"]
        mask = reference(lo["lo_quantity"], lo["lo_discount"])
        expected = float(lo["lo_revenue"][mask].astype(np.float64).sum())
        result = Session(tiny_ssb).run(Q().where(pred).agg("sum", "lo_revenue"), engine=engine)
        assert result.value == expected

    @pytest.mark.parametrize("shape", sorted(SELECTION_SHAPES))
    def test_profile_records_shape_and_reads_each_column_once(self, tiny_ssb, shape):
        pred, _, (leaves, or_branches) = SELECTION_SHAPES[shape]
        _, profile = execute_query(tiny_ssb, Q().where(pred).agg("sum", "lo_revenue").build(tiny_ssb))
        assert profile.filter_leaf_count() == leaves
        assert profile.filter_or_branches() == or_branches
        filter_columns = [a.column for a in profile.column_accesses if a.role == "filter"]
        assert sorted(filter_columns) == sorted(as_pred(pred).columns())


class TestEnginesOnTrees:
    """The acceptance query: a disjunctive q1.1 variant on every engine."""

    @pytest.fixture(scope="class")
    def disjunctive_q11(self, tiny_ssb):
        return (
            Q("lineorder")
            .where(col("lo_discount").between(1, 3) | (col("lo_quantity") > 45))
            .join(
                "date",
                on=("lo_orderdate", "d_datekey"),
                filters=[("d_year", "eq", 1993)],
                payload="d_year",
            )
            .group_by("d_year")
            .agg("sum", "lo_extendedprice", "lo_discount", combine="mul")
            .named("q1.1-disjunctive")
            .build(tiny_ssb)
        )

    def _brute_force(self, db):
        lo, date = db["lineorder"], db["date"]
        year_of = dict(zip(date["d_datekey"].tolist(), date["d_year"].tolist()))
        years = np.array([year_of[d] for d in lo["lo_orderdate"]])
        mask = (
            ((lo["lo_discount"] >= 1) & (lo["lo_discount"] <= 3)) | (lo["lo_quantity"] > 45)
        ) & (years == 1993)
        revenue = lo["lo_extendedprice"][mask].astype(np.float64) * lo["lo_discount"][
            mask
        ].astype(np.float64)
        return {(1993,): float(revenue.sum())}

    def test_cpu_gpu_coprocessor_identical(self, tiny_ssb, disjunctive_q11):
        session = Session(tiny_ssb)
        comparison = session.compare(disjunctive_q11, engines=["cpu", "gpu", "coprocessor"])
        assert comparison.consistent
        assert comparison.answer.value == pytest.approx(self._brute_force(tiny_ssb))

    def test_all_six_engines_agree(self, tiny_ssb, disjunctive_q11):
        session = Session(tiny_ssb)
        assert session.compare(disjunctive_q11, engines=available_engines()).consistent

    def test_negated_query_complements_count(self, tiny_ssb):
        base = col("lo_quantity") < 25
        total = tiny_ssb["lineorder"].num_rows
        kept = Q().where(base).agg("count").build(tiny_ssb)
        dropped = Q().where(~base).agg("count").build(tiny_ssb)
        value_kept, _ = execute_query(tiny_ssb, kept)
        value_dropped, _ = execute_query(tiny_ssb, dropped)
        assert value_kept + value_dropped == float(total)

    def test_profile_charges_each_filter_column_once(self, tiny_ssb, disjunctive_q11):
        _, profile = execute_query(tiny_ssb, disjunctive_q11)
        filter_columns = [a.column for a in profile.column_accesses if a.role == "filter"]
        assert sorted(filter_columns) == ["lo_discount", "lo_quantity"]

    def test_profile_dedupes_repeated_columns_across_leaves(self, tiny_ssb):
        query = (
            Q()
            .where((col("lo_discount") < 2) | (col("lo_discount") > 8))
            .agg("count")
            .build(tiny_ssb)
        )
        _, profile = execute_query(tiny_ssb, query)
        filter_columns = [a.column for a in profile.column_accesses if a.role == "filter"]
        assert filter_columns == ["lo_discount"]

    def test_planner_costs_tree_selectivities(self, tiny_ssb):
        from repro.engine.planner import JoinOrderPlanner

        query = (
            Q()
            .join(
                "supplier",
                on=("lo_suppkey", "s_suppkey"),
                filters=col("s_region").eq("ASIA") | col("s_region").eq("AMERICA"),
            )
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("sum", "lo_revenue")
            .build(tiny_ssb)
        )
        planner = JoinOrderPlanner(tiny_ssb)
        best = planner.best_order(query)
        selectivity = dict(zip(best.join_order, best.selectivities))["supplier"]
        # Two of five regions: uniform SSB regions put this near 0.4.
        assert selectivity == pytest.approx(0.4, abs=0.15)
        reordered = planner.reorder(query)
        session = Session(tiny_ssb)
        assert session.run(reordered, engine="cpu").value == session.run(query, engine="cpu").value


class TestLegacyPathUnchanged:
    """All 13 canonical tuple-of-FilterSpec specs equal their tree forms."""

    def test_canonical_queries_match_their_and_tree_forms(self, tiny_ssb):
        from dataclasses import replace

        for name, query in QUERIES.items():
            as_tree = replace(
                query,
                fact_filters=as_pred(query.fact_filters),
                joins=tuple(replace(j, filters=j.predicate) for j in query.joins),
            )
            value_legacy, profile_legacy = execute_query(tiny_ssb, query)
            value_tree, profile_tree = execute_query(tiny_ssb, as_tree)
            assert value_tree == value_legacy, name
            assert [
                (a.column, a.rows_needed, a.role) for a in profile_tree.column_accesses
            ] == [(a.column, a.rows_needed, a.role) for a in profile_legacy.column_accesses], name

    def test_spec_level_boolean_operators_on_filterspecs(self, tiny_ssb):
        spec = FilterSpec("lo_quantity", "lt", 25) | FilterSpec("lo_discount", "eq", 0)
        assert isinstance(spec, Or)
        query = Q().where(spec).agg("count").build(tiny_ssb)
        value, _ = execute_query(tiny_ssb, query)
        lo = tiny_ssb["lineorder"]
        assert value == float(((lo["lo_quantity"] < 25) | (lo["lo_discount"] == 0)).sum())
