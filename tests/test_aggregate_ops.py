"""Tests for the widened aggregate operators (count/min/max/avg) end-to-end."""

import numpy as np
import pytest

from repro.api import Q, Session, available_engines
from repro.engine.plan import execute_query
from repro.ssb.queries import QUERIES, AggregateSpec
from dataclasses import replace


def _scalar_query(op, *columns, combine=None):
    builder = Q("lineorder").filter("lo_quantity", "lt", 25)
    return builder.agg(op, *columns, combine=combine).build()


def _grouped_query(op, *columns, combine=None):
    return (
        Q("lineorder")
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
        .group_by("d_year")
        .agg(op, *columns, combine=combine)
        .build()
    )


class TestScalarAggregates:
    @pytest.fixture(scope="class")
    def reference(self, tiny_ssb):
        lo = tiny_ssb["lineorder"]
        mask = lo["lo_quantity"] < 25
        return lo["lo_revenue"][mask].astype(np.float64)

    def test_count(self, tiny_ssb, reference):
        value, profile = execute_query(tiny_ssb, _scalar_query("count"))
        assert value == float(reference.size)
        # count reads no measure columns.
        assert all(a.role != "measure" for a in profile.column_accesses)

    def test_sum(self, tiny_ssb, reference):
        value, _ = execute_query(tiny_ssb, _scalar_query("sum", "lo_revenue"))
        assert value == pytest.approx(float(reference.sum()))

    def test_min(self, tiny_ssb, reference):
        value, _ = execute_query(tiny_ssb, _scalar_query("min", "lo_revenue"))
        assert value == float(reference.min())

    def test_max(self, tiny_ssb, reference):
        value, _ = execute_query(tiny_ssb, _scalar_query("max", "lo_revenue"))
        assert value == float(reference.max())

    def test_avg(self, tiny_ssb, reference):
        value, _ = execute_query(tiny_ssb, _scalar_query("avg", "lo_revenue"))
        assert value == pytest.approx(float(reference.mean()))

    def test_avg_of_two_column_expression(self, tiny_ssb):
        lo = tiny_ssb["lineorder"]
        mask = lo["lo_quantity"] < 25
        expected = (
            lo["lo_revenue"][mask].astype(np.float64)
            - lo["lo_supplycost"][mask].astype(np.float64)
        ).mean()
        value, _ = execute_query(
            tiny_ssb, _scalar_query("avg", "lo_revenue", "lo_supplycost", combine="sub")
        )
        assert value == pytest.approx(float(expected))

    def test_empty_selection(self, tiny_ssb):
        def run(op, *columns):
            query = Q("lineorder").filter("lo_quantity", "lt", -1).agg(op, *columns).build()
            return execute_query(tiny_ssb, query)[0]

        assert run("count") == 0.0
        assert run("sum", "lo_revenue") == 0.0
        # SQL semantics: no rows -> NULL, not a fabricated 0.
        assert run("min", "lo_revenue") is None
        assert run("max", "lo_revenue") is None
        assert run("avg", "lo_revenue") is None


class TestGroupedAggregates:
    @pytest.fixture(scope="class")
    def by_year(self, tiny_ssb):
        lo, date = tiny_ssb["lineorder"], tiny_ssb["date"]
        year_of = dict(zip(date["d_datekey"].tolist(), date["d_year"].tolist()))
        groups: dict[tuple, list] = {}
        for orderdate, revenue in zip(lo["lo_orderdate"], lo["lo_revenue"]):
            groups.setdefault((int(year_of[int(orderdate)]),), []).append(float(revenue))
        return groups

    def test_grouped_count(self, tiny_ssb, by_year):
        value, _ = execute_query(tiny_ssb, _grouped_query("count"))
        assert value == {key: float(len(vals)) for key, vals in by_year.items()}

    def test_grouped_min_max(self, tiny_ssb, by_year):
        value, _ = execute_query(tiny_ssb, _grouped_query("min", "lo_revenue"))
        assert value == {key: min(vals) for key, vals in by_year.items()}
        value, _ = execute_query(tiny_ssb, _grouped_query("max", "lo_revenue"))
        assert value == {key: max(vals) for key, vals in by_year.items()}

    def test_grouped_avg(self, tiny_ssb, by_year):
        value, _ = execute_query(tiny_ssb, _grouped_query("avg", "lo_revenue"))
        expected = {key: sum(vals) / len(vals) for key, vals in by_year.items()}
        assert set(value) == set(expected)
        for key in expected:
            assert value[key] == pytest.approx(expected[key])

    @pytest.mark.parametrize("op,columns", [
        ("count", ()),
        ("min", ("lo_revenue",)),
        ("max", ("lo_revenue",)),
        ("avg", ("lo_revenue",)),
    ])
    def test_all_engines_agree_on_new_ops(self, tiny_ssb, op, columns):
        """The widened ops flow through every registered engine unchanged."""
        session = Session(tiny_ssb)
        comparison = session.compare(_grouped_query(op, *columns), engines=available_engines())
        assert comparison.consistent


class TestCompositeGroupKeys:
    """Two group keys from two dimensions, on every engine, against Python."""

    @pytest.fixture(scope="class")
    def by_year_and_region(self, tiny_ssb):
        lo, date, supplier = tiny_ssb["lineorder"], tiny_ssb["date"], tiny_ssb["supplier"]
        year_of = dict(zip(date["d_datekey"].tolist(), date["d_year"].tolist()))
        region_of = dict(zip(supplier["s_suppkey"].tolist(), supplier["s_region"].tolist()))
        sums: dict[tuple, float] = {}
        for orderdate, suppkey, revenue in zip(
            lo["lo_orderdate"].tolist(), lo["lo_suppkey"].tolist(), lo["lo_revenue"].tolist()
        ):
            key = (year_of[orderdate], region_of[suppkey])
            sums[key] = sums.get(key, 0.0) + float(revenue)
        return sums

    @pytest.mark.parametrize("engine", ["coprocessor", "cpu", "gpu", "hyper", "monetdb", "omnisci"])
    def test_engine_matches_python_reference(self, tiny_ssb, by_year_and_region, engine):
        query = (
            Q("lineorder")
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_region")
            .group_by("d_year", "s_region")
            .agg("sum", "lo_revenue")
        )
        assert Session(tiny_ssb).run(query, engine=engine).value == by_year_and_region


class TestArbitraryStarSchemas:
    """The builder's 'any star schema' promise: non-SSB tables and value domains."""

    @pytest.fixture(scope="class")
    def custom_db(self):
        from repro.storage import Database, Table

        db = Database(name="custom")
        db.add_table(Table.from_arrays("events", {
            # -1 marks "no parent row", a common convention in user data.
            "e_key": np.array([-1, 0, 1, 2, 0]),
            "e_key2": np.array([2, 2, -1, 0, 1]),
            "e_value": np.array([10, 20, 30, 40, 50]),
        }))
        db.add_table(Table.from_arrays("dim", {
            "k": np.array([0, 1, 2]),
            # Negative payload values must survive the join (no sentinel clash).
            "delta": np.array([-5, 7, -5]),
        }))
        return db

    def test_negative_keys_do_not_wrap_and_negative_payloads_survive(self, custom_db):
        query = (
            Q("events")
            .join("dim", on=("e_key", "k"), payload="delta")
            .group_by("delta")
            .agg("sum", "e_value")
            .build(custom_db)
        )
        value, profile = execute_query(custom_db, query)
        # e_key=-1 must not wrap to the last dimension row; delta=-5 groups survive.
        assert value == {(-5,): 110.0, (7,): 30.0}
        assert profile.result_input_rows == 4

    def test_role_playing_dimension_executes_correctly(self, custom_db):
        """Joining the same dimension via two fact keys filters on both edges."""
        query = (
            Q("events")
            .join("dim", on=("e_key", "k"), payload="delta")
            .join("dim", on=("e_key2", "k"))
            .group_by("delta")
            .agg("sum", "e_value")
        )
        session = Session(custom_db)
        plain = session.run(query, engine="cpu")
        # Rows surviving both joins: (0,2,20), (2,0,40), (0,1,50) -> all delta -5.
        assert plain.value == {(-5,): 110.0}
        # optimize=True cannot reorder role-playing joins; it must not corrupt them.
        optimized = session.run(query, engine="cpu", optimize=True)
        assert optimized.value == plain.value

    def test_custom_schema_consistent_across_engines(self, custom_db):
        query = (
            Q("events")
            .join("dim", on=("e_key", "k"), payload="delta")
            .group_by("delta")
            .agg("count")
        )
        comparison = Session(custom_db).compare(query, engines=["cpu", "gpu", "coprocessor"])
        assert comparison.consistent
        assert next(iter(comparison.results.values())).value == {(-5,): 3.0, (7,): 1.0}


class TestAggregateValidationInPlan:
    def test_unknown_op_rejected(self, tiny_ssb):
        bad = replace(QUERIES["q1.1"], aggregate=AggregateSpec(columns=("lo_revenue",), op="median"))
        with pytest.raises(ValueError, match="unsupported aggregate op"):
            execute_query(tiny_ssb, bad)

    def test_missing_columns_rejected(self, tiny_ssb):
        bad = replace(QUERIES["q1.1"], aggregate=AggregateSpec(columns=(), op="sum"))
        with pytest.raises(ValueError, match="measure column"):
            execute_query(tiny_ssb, bad)

    def test_count_with_columns_rejected(self, tiny_ssb):
        """count must not charge a measure scan the reduction never performs."""
        bad = replace(QUERIES["q1.1"], aggregate=AggregateSpec(columns=("lo_revenue",), op="count"))
        with pytest.raises(ValueError, match="no measure columns"):
            execute_query(tiny_ssb, bad)

    def test_combine_arity_mismatch_rejected(self, tiny_ssb):
        """Hand-built specs with inconsistent combine/columns get a clear error."""
        one_with_combine = replace(
            QUERIES["q1.1"], aggregate=AggregateSpec(columns=("lo_revenue",), combine="mul")
        )
        with pytest.raises(ValueError, match="exactly two columns"):
            execute_query(tiny_ssb, one_with_combine)
        two_without_combine = replace(
            QUERIES["q1.1"], aggregate=AggregateSpec(columns=("lo_revenue", "lo_supplycost"))
        )
        with pytest.raises(ValueError, match="combinator"):
            execute_query(tiny_ssb, two_without_combine)

    def test_unknown_combine_rejected(self, tiny_ssb):
        bad = replace(
            QUERIES["q1.1"],
            aggregate=AggregateSpec(columns=("lo_revenue", "lo_supplycost"), combine="div"),
        )
        with pytest.raises(ValueError, match="combinator"):
            execute_query(tiny_ssb, bad)

    def test_group_by_without_payload_rejected(self, tiny_ssb):
        bad = replace(QUERIES["q1.1"], group_by=("d_year",))
        with pytest.raises(ValueError, match="payload"):
            execute_query(tiny_ssb, bad)

    def test_duplicate_payload_rejected_in_executor(self, tiny_ssb):
        """Hand-written specs (bypassing the builder) also hit a clear error."""
        from repro.ssb.queries import JoinSpec

        bad = replace(
            QUERIES["q2.1"],
            joins=(
                JoinSpec("date", "lo_orderdate", "d_datekey", (), payload="d_year"),
                JoinSpec("date", "lo_orderdate", "d_datekey", (), payload="d_year"),
            ),
            group_by=("d_year",),
        )
        with pytest.raises(ValueError, match="more than one join"):
            execute_query(tiny_ssb, bad)
