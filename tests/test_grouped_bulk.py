"""The grouped answer path, against a plain per-group oracle.

``finalize_partial`` copies a payload that is already all ``float`` and in
key order instead of converting it group by group, and ``ResultSet`` decodes
a grouped answer column by column.  The oracle below is the per-group loop,
written out here and sharing no code with the engine: one group at a time,
``None`` yielding to the other side, keys in first-seen order for a combined
partial and in sorted order for an answer.  Values are compared by ``repr``,
so ``-0.0`` against ``0.0`` and ``3`` against ``3.0`` count as different.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Q, Session
from repro.api.resultset import ResultSet
from repro.engine.plan import PartialAggregate, combine_partials, finalize_partial
from repro.engine.result import QueryResult
from repro.sim.timing import TimeBreakdown
from repro.ssb.queries import AggregateSpec, SSBQuery
from repro.storage import Database, Table

OPS = ("sum", "count", "min", "max", "avg")


def oracle_combine(op, payloads):
    combined = dict(payloads[0])
    for payload in payloads[1:]:
        for key, new in payload.items():
            held = combined.get(key)
            if held is None:
                combined[key] = new
            elif new is None:
                combined[key] = held
            elif op == "avg":
                combined[key] = (held[0] + new[0], held[1] + new[1])
            elif op in ("sum", "count"):
                combined[key] = held + new
            elif op == "min":
                combined[key] = min(held, new)
            else:
                combined[key] = max(held, new)
    return combined


def oracle_finalize(op, payload):
    answer = {}
    for key in sorted(payload):
        value = payload[key]
        if op == "avg":
            answer[key] = value[0] / value[1] if value[1] else None
        else:
            answer[key] = None if value is None else float(value)
    return answer


def exact(mapping):
    """Keys in order, each value by ``repr``: equal only if byte-equal."""
    return [(key, repr(value)) for key, value in mapping.items()]


#: Ties, signed zeros and integer-valued floats, plus any finite float.
FLOATS = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]) | st.floats(
    -1e12, 1e12, allow_nan=False, allow_infinity=False
)


def payload_value(op):
    if op == "avg":
        return st.tuples(FLOATS, st.integers(0, 50))
    if op in ("min", "max"):
        return st.none() | FLOATS
    return FLOATS


@st.composite
def grouped_partials(draw):
    """``(op, partials)``: 1-5 grouped partials over disjoint or shared keys."""
    op = draw(st.sampled_from(OPS))
    count = draw(st.integers(1, 5))
    disjoint = draw(st.booleans())
    keys = st.tuples(st.integers(0, 3), st.integers(1992, 1994))
    partials = []
    for index in range(count):
        groups = draw(st.lists(keys, max_size=8, unique=True))
        if disjoint:
            groups = [(index, *key) for key in groups]  # no key in two partials
        elif partials and draw(st.booleans()):
            groups = list(partials[-1].payload) + groups  # share every earlier key
        payload = {key: draw(payload_value(op)) for key in dict.fromkeys(groups)}
        partials.append(PartialAggregate(op, True, ("a", "b"), payload))
    return op, partials


class TestBulkMatchesThePerGroupOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=grouped_partials())
    def test_combine_and_finalize_value_for_value_in_key_order(self, case):
        op, partials = case
        before = [dict(partial.payload) for partial in partials]
        expected = oracle_combine(op, [partial.payload for partial in partials])
        combined = combine_partials(partials)
        assert exact(combined.payload) == exact(expected)
        assert exact(finalize_partial(combined)) == exact(oracle_finalize(op, expected))
        # The inputs are left as they were.
        assert [exact(partial.payload) for partial in partials] == [exact(payload) for payload in before]

    @pytest.mark.parametrize("op", OPS)
    def test_three_partials_fold_in_order(self, op):
        """A later partial's new group lands after the earlier ones, and a
        shared group keeps its first place."""
        values = {"avg": [(1.0, 1), (2.0, 2), (4.0, 1)]}.get(op, [1.0, 2.0, 4.0])
        payloads = [
            {(2,): values[0], (1,): values[0]},
            {(3,): values[1], (2,): values[1]},
            {(0,): values[2], (1,): values[2], (3,): values[2]},
        ]
        partials = [PartialAggregate(op, True, ("k",), payload) for payload in payloads]
        combined = combine_partials(partials)
        assert list(combined.payload) == [(2,), (1,), (3,), (0,)]
        assert exact(combined.payload) == exact(oracle_combine(op, payloads))
        answer = finalize_partial(combined)
        assert list(answer) == [(0,), (1,), (2,), (3,)]
        assert exact(answer) == exact(oracle_finalize(op, combined.payload))

    @pytest.mark.parametrize("op", ("min", "max"))
    def test_an_empty_extremum_yields_to_the_other_side(self, op):
        payloads = [{(1,): None, (2,): 5.0}, {(1,): 3.0, (2,): None, (3,): None}]
        combined = combine_partials([PartialAggregate(op, True, ("k",), p) for p in payloads])
        assert combined.payload == {(1,): 3.0, (2,): 5.0, (3,): None}
        assert finalize_partial(combined) == {(1,): 3.0, (2,): 5.0, (3,): None}

    @pytest.mark.parametrize("op", ("min", "max"))
    def test_a_tie_keeps_the_held_payload(self, op):
        """``min(held, new)`` returns ``held`` when neither is smaller, so
        the signed zero already held survives."""
        payloads = [{(1,): 0.0, (2,): -0.0}, {(1,): -0.0, (2,): 0.0}]
        combined = combine_partials([PartialAggregate(op, True, ("k",), p) for p in payloads])
        assert exact(combined.payload) == [((1,), "0.0"), ((2,), "-0.0")]
        assert exact(combined.payload) == exact(oracle_combine(op, payloads))

    @pytest.mark.parametrize("op", OPS)
    def test_an_empty_grouped_answer(self, op):
        empty = PartialAggregate(op, True, ("k",), {})
        assert combine_partials([empty, empty, empty]) == empty
        assert finalize_partial(empty) == {}

    def test_a_final_payload_in_key_order_is_copied(self):
        payload = {(1,): -0.0, (2,): 3.5}
        answer = finalize_partial(PartialAggregate("max", True, ("k",), payload))
        assert exact(answer) == [((1,), "-0.0"), ((2,), "3.5")]
        answer[(3,)] = 1.0  # a copy: the partial's payload is not the answer
        assert list(payload) == [(1,), (2,)]

    def test_a_float_payload_out_of_key_order_is_sorted(self):
        answer = finalize_partial(PartialAggregate("sum", True, ("k",), {(2,): 3.5, (1,): 2.0}))
        assert exact(answer) == [((1,), "2.0"), ((2,), "3.5")]

    def test_integer_payloads_still_finalize_to_floats(self):
        """A payload already sorted but not float takes the converting path."""
        answer = finalize_partial(PartialAggregate("sum", True, ("k",), {(1,): 2, (2,): np.float64(3.5)}))
        assert exact(answer) == [((1,), "2.0"), ((2,), "3.5")]


def _fact_grouped(group_by, value):
    """A hand-built answer grouped by columns of the fact table itself.

    No join produces them, so each decodes through the fact table's own
    dictionaries: ``f_label`` has one, ``f_group`` has none.
    """
    facts = Table.from_arrays("facts", {"f_group": np.array([7, 3, 7], dtype=np.int32)})
    facts.add_encoded_column("f_label", ["b", "a", "b"])
    db = Database(name="facts-only", tables={"facts": facts})
    spec = SSBQuery(
        name="by-fact-column", flight=0, fact_filters=(), joins=(), group_by=group_by,
        aggregate=AggregateSpec(columns=(), op="count"), fact="facts",
    )
    result = QueryResult(query=spec.name, engine="cpu", value=value, time=TimeBreakdown())
    return ResultSet.from_result(db, spec, result)


class TestResultSetDecodesColumnByColumn:
    def test_a_fact_group_column_without_a_dictionary_keeps_its_raw_codes(self):
        result = _fact_grouped(("f_group",), {(3,): 1.0, (7,): 2.0})
        assert result.columns == ("f_group", "count(*)")
        assert result.records == ((3, 1.0), (7, 2.0))
        mixed = _fact_grouped(("f_label", "f_group"), {(0, 3): 1.0, (1, 7): 2.0})
        assert mixed.records == (("a", 3, 1.0), ("b", 7, 2.0))

    def test_an_empty_grouped_answer_has_no_records(self):
        result = _fact_grouped(("f_label", "f_group"), {})
        assert result.columns == ("f_label", "f_group", "count(*)")
        assert result.records == ()
        assert len(result) == 0

    def test_mixed_columns_decode_against_a_hand_loop(self, tiny_ssb):
        query = (
            Q("lineorder")
            .join("supplier", on=("lo_suppkey", "s_suppkey"), payload="s_nation")
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("s_nation", "d_year")
            .agg("sum", "lo_revenue")
        )
        with Session(tiny_ssb) as session:
            result = session.run(query)
        nations = tiny_ssb.table("supplier").dictionaries["s_nation"].values
        expected = tuple((nations[code], year, value) for (code, year), value in result.value.items())
        assert result.records == expected
        assert ResultSet.from_result(tiny_ssb, result.spec, result.result).records == expected
