"""Tests for the SSB schema, generator, and query definitions."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.ssb import QUERIES, generate_ssb, ssb_table_rows
from repro.ssb.queries import QUERY_ORDER, FilterSpec
from repro.ssb.schema import (
    NATIONS,
    REGIONS,
    all_cities,
    brand_name,
    category_name,
    city_name,
    generate_date_attributes,
    mfgr_name,
)


class TestSchema:
    def test_geography_sizes(self):
        assert len(REGIONS) == 5
        assert len(NATIONS) == 25
        assert len(all_cities()) == 250
        assert len(set(all_cities())) == 250

    def test_city_name_convention(self):
        assert city_name("UNITED KINGDOM", 1) == "UNITED KI1"
        with pytest.raises(ValueError):
            city_name("FRANCE", 10)

    def test_part_hierarchy_names(self):
        assert mfgr_name(1) == "MFGR#1"
        assert category_name(1, 2) == "MFGR#12"
        assert brand_name(2, 2, 21) == "MFGR#2221"

    def test_cardinality_scaling(self):
        assert ssb_table_rows("lineorder", 1) == 6_000_000
        assert ssb_table_rows("lineorder", 20) == 120_000_000
        assert ssb_table_rows("supplier", 20) == 40_000
        assert ssb_table_rows("customer", 20) == 600_000
        assert ssb_table_rows("part", 20) == 1_000_000
        assert ssb_table_rows("date", 20) == 2_556
        with pytest.raises(KeyError):
            ssb_table_rows("orders", 1)
        with pytest.raises(ValueError):
            ssb_table_rows("lineorder", 0)

    def test_date_attributes(self):
        rows = generate_date_attributes()
        years = {r["d_year"] for r in rows}
        assert years == set(range(1992, 1999))
        first = rows[0]
        assert first["d_datekey"] == 19920101
        assert first["d_yearmonth"] == "Jan1992"
        assert 1 <= max(r["d_weeknuminyear"] for r in rows) <= 53


class TestGenerator:
    def test_table_cardinalities(self, tiny_ssb):
        assert tiny_ssb["lineorder"].num_rows == 60_000
        assert tiny_ssb["date"].num_rows >= 2_555
        assert set(tiny_ssb.tables) == {"lineorder", "date", "supplier", "customer", "part"}

    def test_determinism(self):
        a = generate_ssb(scale_factor=0.01, seed=3)
        b = generate_ssb(scale_factor=0.01, seed=3)
        assert np.array_equal(a["lineorder"]["lo_revenue"], b["lineorder"]["lo_revenue"])

    def test_different_seeds_differ(self):
        a = generate_ssb(scale_factor=0.01, seed=3)
        b = generate_ssb(scale_factor=0.01, seed=4)
        assert not np.array_equal(a["lineorder"]["lo_revenue"], b["lineorder"]["lo_revenue"])

    def test_foreign_keys_are_dense_and_valid(self, tiny_ssb):
        lineorder = tiny_ssb["lineorder"]
        assert lineorder["lo_custkey"].max() < tiny_ssb["customer"].num_rows
        assert lineorder["lo_suppkey"].max() < tiny_ssb["supplier"].num_rows
        assert lineorder["lo_partkey"].max() < tiny_ssb["part"].num_rows
        assert np.isin(lineorder["lo_orderdate"], tiny_ssb["date"]["d_datekey"]).all()

    def test_measure_domains(self, tiny_ssb):
        lineorder = tiny_ssb["lineorder"]
        assert lineorder["lo_quantity"].min() >= 1
        assert lineorder["lo_quantity"].max() <= 50
        assert lineorder["lo_discount"].min() >= 0
        assert lineorder["lo_discount"].max() <= 10

    def test_all_columns_are_four_bytes(self, tiny_ssb):
        """Section 5.2: every stored column is a 4-byte value."""
        for table in tiny_ssb.tables.values():
            for column in table.columns.values():
                assert column.values.dtype.itemsize == 4, f"{table.name}.{column.name}"

    def test_region_predicate_selectivity(self, small_ssb):
        """s_region = 'AMERICA' selects ~1/5 of suppliers (uniform regions)."""
        supplier = small_ssb["supplier"]
        code = supplier.dictionaries["s_region"].encode_value("AMERICA")
        selectivity = float(np.mean(supplier["s_region"] == code))
        assert selectivity == pytest.approx(0.2, abs=0.08)

    def test_category_predicate_selectivity(self, small_ssb):
        """p_category = 'MFGR#12' selects ~1/25 of parts."""
        part = small_ssb["part"]
        code = part.dictionaries["p_category"].encode_value("MFGR#12")
        selectivity = float(np.mean(part["p_category"] == code))
        assert selectivity == pytest.approx(1 / 25, abs=0.02)


class TestQueryDefinitions:
    def test_thirteen_queries_in_four_flights(self):
        assert len(QUERIES) == 13
        assert QUERY_ORDER == list(QUERIES)
        flights = {}
        for query in QUERIES.values():
            flights.setdefault(query.flight, []).append(query.name)
        assert {k: len(v) for k, v in flights.items()} == {1: 3, 2: 3, 3: 4, 4: 3}

    def test_flight1_is_scalar_aggregate(self):
        for name in ("q1.1", "q1.2", "q1.3"):
            assert not QUERIES[name].has_group_by
            assert QUERIES[name].aggregate.combine == "mul"

    def test_flight4_computes_profit(self):
        for name in ("q4.1", "q4.2", "q4.3"):
            assert QUERIES[name].aggregate.combine == "sub"
            assert QUERIES[name].aggregate.columns == ("lo_revenue", "lo_supplycost")

    def test_q21_structure_matches_paper(self):
        query = QUERIES["q2.1"]
        assert [j.dimension for j in query.joins] == ["supplier", "part", "date"]
        assert query.group_by == ("d_year", "p_brand1")
        supplier_filter = query.joins[0].filters[0]
        assert supplier_filter == FilterSpec("s_region", "eq", "AMERICA", encoded=True)

    def test_every_group_by_column_has_a_payload_join(self):
        for query in QUERIES.values():
            payloads = {j.payload for j in query.joins if j.payload}
            for group_column in query.group_by:
                assert group_column in payloads


class TestQueryHash:
    """A spec keeps its hash after first use; no copy carries it elsewhere."""

    def test_the_kept_hash_is_the_field_tuple_hash(self):
        query = dataclasses.replace(QUERIES["q2.1"], name="fresh")
        fields = tuple(getattr(query, f.name) for f in dataclasses.fields(query))
        assert hash(query) == hash(fields) == hash(query)

    def test_an_unhashable_spec_constructs_and_refuses_to_hash(self):
        query = dataclasses.replace(
            QUERIES["q1.1"], fact_filters=(FilterSpec("lo_quantity", "in", [1, 2]),)
        )
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(query)

    def test_a_copy_of_a_hashed_query_is_equal_and_hashes_equal(self):
        query = QUERIES["q3.1"]
        hash(query)
        for twin in (copy.copy(query), copy.deepcopy(query)):
            assert twin == query and hash(twin) == hash(query)

    def test_a_pickled_hashed_query_rehashes_under_another_hash_seed(self):
        query = QUERIES["q2.1"]
        hash(query)
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        script = textwrap.dedent(
            """
            import dataclasses, pickle, sys
            from repro.ssb.queries import QUERIES

            loaded = pickle.loads(sys.stdin.buffer.read())
            fresh = dataclasses.replace(QUERIES["q2.1"])
            memo = {fresh: "found"}
            print(hash(loaded) == hash(fresh), memo.get(loaded), hash(fresh))
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        child = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(query),
            capture_output=True, env=env, timeout=60, check=True,
        )
        same, found, child_hash = child.stdout.decode().split()
        assert int(child_hash) != hash(query)  # the seeds differ, so this tests something
        assert (same, found) == ("True", "found")
