"""Tests for the first-class decoded ResultSet.

The headline property is the decoding round-trip: building a query whose
predicates are *strings*, executing it over dictionary-encoded columns, and
decoding the group keys must equal filtering the decoded (string-level)
data directly with plain Python.
"""

import numpy as np
import pytest

from repro.api import Q, ResultSet, Session, col
from repro.api.resultset import measure_label
from repro.ssb.queries import QUERIES


@pytest.fixture(scope="module")
def session(tiny_ssb):
    return Session(tiny_ssb)


class TestDecoding:
    def test_q21_decodes_year_and_brand_labels(self, session, tiny_ssb):
        """Acceptance: q2.1's ResultSet prints decoded d_year / p_brand1."""
        result = session.run(QUERIES["q2.1"], engine="cpu")
        assert result.columns == ("d_year", "p_brand1", "sum(lo_revenue)")
        brands = tiny_ssb["part"].dictionaries["p_brand1"]
        for year, brand, revenue in result:
            assert 1992 <= year <= 1998  # numeric payloads pass through
            assert isinstance(brand, str) and brand in brands
            assert revenue >= 0.0
        text = str(result)
        assert "d_year" in text and "p_brand1" in text and "MFGR#" in text

    def test_decode_round_trip_equals_string_level_filtering(self, session, tiny_ssb):
        """encode -> execute -> decode == brute-force over decoded strings."""
        query = (
            Q("lineorder")
            .join(
                "supplier",
                on=("lo_suppkey", "s_suppkey"),
                filters=col("s_region").eq("ASIA") | col("s_region").eq("EUROPE"),
                payload="s_nation",
            )
            .agg("count")
            .group_by("s_nation")
            .build(tiny_ssb)
        )
        result = session.run(query, engine="cpu")

        supplier, lo = tiny_ssb["supplier"], tiny_ssb["lineorder"]
        regions = supplier.dictionaries["s_region"].decode(supplier["s_region"])
        nations = supplier.dictionaries["s_nation"].decode(supplier["s_nation"])
        nation_of = {}
        for suppkey, region, nation in zip(supplier["s_suppkey"], regions, nations):
            if region in ("ASIA", "EUROPE"):
                nation_of[int(suppkey)] = nation
        expected: dict[str, float] = {}
        for suppkey in lo["lo_suppkey"]:
            nation = nation_of.get(int(suppkey))
            if nation is not None:
                expected[nation] = expected.get(nation, 0.0) + 1.0

        assert result.columns == ("s_nation", "count(*)")
        assert dict(result.records) == expected

    def test_scalar_result_has_single_record(self, session):
        result = session.run(QUERIES["q1.1"], engine="gpu")
        assert result.columns == ("sum(lo_extendedprice*lo_discount)",)
        assert len(result) == 1
        assert result.records[0][0] == result.value

    def test_delegation_preserves_raw_surface(self, session):
        result = session.run(QUERIES["q2.1"], engine="cpu")
        assert result.query == "q2.1"
        assert result.engine == "standalone-cpu"
        assert isinstance(result.value, dict)
        assert result.simulated_ms > 0
        assert result.rows == len(result.value)
        assert result.stats["groups"] == float(len(result.value))

    def test_measure_labels(self):
        assert measure_label(QUERIES["q1.1"]) == "sum(lo_extendedprice*lo_discount)"
        assert measure_label(QUERIES["q4.1"]) == "sum(lo_revenue-lo_supplycost)"
        count = Q().agg("count").build()
        assert measure_label(count) == "count(*)"


class TestTabularOps:
    @pytest.fixture(scope="class")
    def result(self, tiny_ssb):
        return Session(tiny_ssb).run(QUERIES["q2.1"], engine="cpu")

    def test_sort_values_defaults_to_group_columns(self, result):
        ordered = result.sort_values()
        keys = [(year, brand) for year, brand, _ in ordered]
        assert keys == sorted(keys)
        # Sorting copies; the original is untouched.
        assert set(ordered.records) == set(result.records)

    def test_sort_values_by_aggregate_descending(self, result):
        top = result.sort_values("sum(lo_revenue)", ascending=False)
        revenues = [record[-1] for record in top]
        assert revenues == sorted(revenues, reverse=True)

    def test_sort_values_unknown_column(self, result):
        with pytest.raises(KeyError, match="available"):
            result.sort_values("nope")

    def test_head_limits_records(self, result):
        assert len(result.head(3)) == min(3, len(result))
        assert result.head(3).columns == result.columns

    def test_to_csv(self, result, tmp_path):
        text = result.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "d_year,p_brand1,sum(lo_revenue)"
        assert len(lines) == len(result) + 1
        path = tmp_path / "q21.csv"
        result.to_csv(str(path))
        assert path.read_text(encoding="utf-8") == text

    def test_str_renders_aligned_table(self, result):
        text = str(result.sort_values().head(2))
        lines = text.splitlines()
        assert lines[0].startswith("d_year")
        assert lines[1].startswith("-")
        assert "[2 rows; q2.1 on standalone-cpu]" in lines[-1]


class TestComparisonReporting:
    def test_comparison_str_includes_decoded_answer(self, session):
        text = str(session.compare(QUERIES["q2.1"], engines=["cpu", "gpu"]))
        assert "consistent=True" in text
        assert "decoded" in text
        assert "MFGR#" in text

    def test_comparison_answer_is_a_resultset(self, session):
        comparison = session.compare(QUERIES["q2.1"], engines=["cpu", "gpu"])
        assert isinstance(comparison.answer, ResultSet)
        assert comparison.answer.columns[:2] == ("d_year", "p_brand1")

    def test_run_many_returns_resultsets(self, session):
        results = session.run_many([QUERIES["q1.1"], QUERIES["q2.1"]], engine="cpu")
        assert all(isinstance(result, ResultSet) for result in results)
        assert [result.query for result in results] == ["q1.1", "q2.1"]


class TestAllCanonicalQueriesDecode:
    def test_every_grouped_query_decodes_every_group_column(self, session, tiny_ssb):
        for name, query in QUERIES.items():
            result = session.run(query, engine="cpu")
            if not query.has_group_by:
                assert len(result.columns) == 1
                continue
            assert result.columns[:-1] == query.group_by
            for record in result:
                for column, value in zip(query.group_by, record):
                    dimension = next(
                        j.dimension for j in query.joins if j.payload == column
                    )
                    if column in tiny_ssb[dimension].dictionaries:
                        assert isinstance(value, str), (name, column)
                    else:
                        assert isinstance(value, (int, np.integer)), (name, column)
