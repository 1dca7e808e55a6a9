"""Tests for the cost-based join-order planner."""

import numpy as np
import pytest

from repro.api import Session, available_engines
from repro.engine import JoinOrderPlanner
from repro.engine.expr import evaluate_pred
from repro.engine.planner import joins_by_dimension
from repro.ssb.queries import QUERIES

MULTI_JOIN_QUERIES = ["q2.1", "q2.2", "q3.1", "q3.4", "q4.1", "q4.3"]


@pytest.fixture(scope="module")
def planner(tiny_ssb):
    return JoinOrderPlanner(tiny_ssb)


def _selectivities(planner, query):
    """Each dimension join's selectivity, as the planner costs it."""
    best = planner.best_order(query)
    return dict(zip(best.join_order, best.selectivities))


class TestReorderPreservesAnswers:
    @pytest.mark.parametrize("query_name", MULTI_JOIN_QUERIES)
    def test_reordered_query_gives_exact_same_answer_on_all_engines(
        self, tiny_ssb, planner, query_name
    ):
        query = QUERIES[query_name]
        reordered = planner.reorder(query)
        session = Session(tiny_ssb, cache=False)
        for engine in available_engines():
            assert session.run(reordered, engine=engine).value == session.run(query, engine=engine).value, (
                f"{engine} changed its answer for {query_name} after reordering"
            )

    def test_reorder_is_a_permutation_of_the_joins(self, planner):
        query = QUERIES["q4.1"]
        reordered = planner.reorder(query)
        assert sorted(j.dimension for j in reordered.joins) == sorted(
            j.dimension for j in query.joins
        )
        assert joins_by_dimension(reordered) == joins_by_dimension(query)

    def test_reorder_leaves_everything_but_joins_unchanged(self, planner):
        query = QUERIES["q2.1"]
        reordered = planner.reorder(query)
        assert reordered.name == query.name
        assert reordered.fact_filters == query.fact_filters
        assert reordered.group_by == query.group_by
        assert reordered.aggregate == query.aggregate


class TestEnumerate:
    def test_enumerate_is_sorted_cheapest_first(self, planner):
        choices = planner.enumerate(QUERIES["q4.1"])
        costs = [choice.estimated_seconds for choice in choices]
        assert costs == sorted(costs)
        # 4 dimension joins -> 4! = 24 candidate orders.
        assert len(choices) == 24

    def test_best_order_is_head_of_enumeration(self, planner):
        query = QUERIES["q3.1"]
        assert planner.best_order(query) == planner.enumerate(query)[0]

    def test_selectivities_match_join_selectivity(self, planner, tiny_ssb):
        """Each selectivity is the share of its own dimension's rows the
        join's predicate keeps, in join-order position."""
        query = QUERIES["q2.1"]
        best = planner.best_order(query)
        joins = {join.dimension: join for join in query.joins}
        for dimension, selectivity in zip(best.join_order, best.selectivities):
            table = tiny_ssb[dimension]
            kept = np.count_nonzero(evaluate_pred(table, joins[dimension].predicate))
            assert selectivity == pytest.approx(kept / table.num_rows)

    def test_order_cost_scans_selectivities_when_not_given(self, planner, tiny_ssb):
        query = QUERIES["q3.1"]
        fact_rows = tiny_ssb["lineorder"].num_rows
        for choice in planner.enumerate(query):
            assert planner.estimate_order_cost(query, choice.join_order, fact_rows) == choice


class TestPaperPlanChoice:
    def test_q21_best_order_is_supplier_part_date(self, planner):
        """Section 5.3: the paper runs q2.1 as supplier, then part, then date."""
        assert planner.best_order(QUERIES["q2.1"]).join_order == ("supplier", "part", "date")

    def test_q21_best_order_at_paper_scale(self, planner):
        best = planner.best_order(QUERIES["q2.1"], fact_rows=120_000_000)
        assert best.join_order == ("supplier", "part", "date")

    def test_unfiltered_date_join_goes_last_for_q21(self, planner):
        """The only join with no filter (selectivity 1.0) should never lead."""
        best = planner.best_order(QUERIES["q2.1"])
        assert best.join_order[-1] == "date"


class TestJoinSelectivity:
    def test_selectivity_of_unfiltered_join_is_one(self, planner):
        assert _selectivities(planner, QUERIES["q2.1"])["date"] == 1.0

    def test_selectivity_of_region_filter_is_about_one_fifth(self, planner):
        selectivity = _selectivities(planner, QUERIES["q2.1"])["supplier"]
        assert selectivity == pytest.approx(0.2, abs=0.1)

    def test_joins_by_dimension_maps_every_join(self):
        query = QUERIES["q4.2"]
        mapping = joins_by_dimension(query)
        assert set(mapping) == {"customer", "supplier", "part", "date"}
        for join in query.joins:
            assert mapping[join.dimension] is join

    def test_role_playing_dimension_query_cannot_be_planned(self, planner):
        """Reordering must refuse (not silently corrupt) duplicate-dimension joins."""
        from dataclasses import replace

        from repro.ssb.queries import FilterSpec, JoinSpec

        query = replace(
            QUERIES["q1.1"],
            joins=(
                JoinSpec("date", "lo_orderdate", "d_datekey",
                         (FilterSpec("d_year", "eq", 1993),)),
                JoinSpec("date", "lo_orderdate", "d_datekey",
                         (FilterSpec("d_yearmonthnum", "ge", 199306),)),
            ),
        )
        with pytest.raises(ValueError, match="more than once"):
            planner.reorder(query)
        with pytest.raises(ValueError, match="more than once"):
            joins_by_dimension(query)
