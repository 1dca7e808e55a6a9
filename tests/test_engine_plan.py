"""Tests for the shared query executor against brute-force references."""

import numpy as np
import pytest

from repro.engine.expr import evaluate_filter, evaluate_pred, resolve_filter_value
from repro.api import Q, Session
from repro.engine.plan import ColumnAccess, QueryProfile, execute_query, execute_query_monolithic
from repro.ssb import generate_ssb
from repro.ssb.queries import QUERIES, FilterSpec
from repro.storage import Table


def _reference_q11(db):
    """Brute-force evaluation of q1.1 with plain NumPy."""
    lo = db["lineorder"]
    date = db["date"]
    year_of = dict(zip(date["d_datekey"].tolist(), date["d_year"].tolist()))
    years = np.array([year_of[d] for d in lo["lo_orderdate"]])
    mask = (
        (lo["lo_discount"] >= 1) & (lo["lo_discount"] <= 3)
        & (lo["lo_quantity"] < 25) & (years == 1993)
    )
    return float(np.sum(lo["lo_extendedprice"][mask].astype(np.float64)
                        * lo["lo_discount"][mask].astype(np.float64)))


def _reference_q21(db):
    """Brute-force evaluation of q2.1 with plain NumPy."""
    lo, supplier, part, date = db["lineorder"], db["supplier"], db["part"], db["date"]
    america = supplier.dictionaries["s_region"].encode_value("AMERICA")
    mfgr12 = part.dictionaries["p_category"].encode_value("MFGR#12")
    supplier_ok = np.zeros(supplier.num_rows, dtype=bool)
    supplier_ok[supplier["s_suppkey"][supplier["s_region"] == america]] = True
    part_ok = np.zeros(part.num_rows, dtype=bool)
    part_ok[part["p_partkey"][part["p_category"] == mfgr12]] = True
    brand_of = np.zeros(part.num_rows, dtype=np.int64)
    brand_of[part["p_partkey"]] = part["p_brand1"]
    year_of = dict(zip(date["d_datekey"].tolist(), date["d_year"].tolist()))

    mask = supplier_ok[lo["lo_suppkey"]] & part_ok[lo["lo_partkey"]]
    groups = {}
    for suppkey, partkey, orderdate, revenue, selected in zip(
        lo["lo_suppkey"], lo["lo_partkey"], lo["lo_orderdate"], lo["lo_revenue"], mask
    ):
        if not selected:
            continue
        key = (int(year_of[int(orderdate)]), int(brand_of[partkey]))
        groups[key] = groups.get(key, 0.0) + float(revenue)
    return groups


class TestFilterEvaluation:
    def test_all_operators(self):
        table = Table.from_arrays("t", {"x": np.array([1, 2, 3, 4, 5])})
        assert list(evaluate_filter(table, FilterSpec("x", "eq", 3))) == [False, False, True, False, False]
        assert list(evaluate_filter(table, FilterSpec("x", "ne", 3))) == [True, True, False, True, True]
        assert evaluate_filter(table, FilterSpec("x", "lt", 3)).sum() == 2
        assert evaluate_filter(table, FilterSpec("x", "le", 3)).sum() == 3
        assert evaluate_filter(table, FilterSpec("x", "gt", 3)).sum() == 2
        assert evaluate_filter(table, FilterSpec("x", "ge", 3)).sum() == 3
        assert evaluate_filter(table, FilterSpec("x", "between", (2, 4))).sum() == 3
        assert evaluate_filter(table, FilterSpec("x", "in", (1, 5))).sum() == 2

    def test_unknown_operator(self):
        table = Table.from_arrays("t", {"x": np.arange(3)})
        with pytest.raises(ValueError):
            evaluate_filter(table, FilterSpec("x", "like", 1))

    def test_encoded_value_resolution(self):
        table = Table(name="t")
        table.add_encoded_column("region", ["ASIA", "AMERICA", "EUROPE"])
        spec = FilterSpec("region", "eq", "ASIA", encoded=True)
        assert resolve_filter_value(table, spec) == table.dictionaries["region"].encode_value("ASIA")
        assert evaluate_filter(table, spec).sum() == 1

    def test_encoded_in_and_between(self):
        table = Table(name="t")
        table.add_encoded_column("brand", ["MFGR#2221", "MFGR#2224", "MFGR#2228", "MFGR#2230"])
        between = FilterSpec("brand", "between", ("MFGR#2221", "MFGR#2228"), encoded=True)
        assert evaluate_filter(table, between).sum() == 3
        member = FilterSpec("brand", "in", ("MFGR#2221", "MFGR#2230"), encoded=True)
        assert evaluate_filter(table, member).sum() == 2

    def test_encoded_without_dictionary_raises(self):
        table = Table.from_arrays("t", {"x": np.arange(3)})
        with pytest.raises(KeyError):
            resolve_filter_value(table, FilterSpec("x", "eq", "A", encoded=True))

    def test_string_constant_on_numeric_column_raises(self):
        """Silent zero-row matches are worse than an error (hand-written specs too)."""
        table = Table.from_arrays("t", {"x": np.arange(5)})
        with pytest.raises(TypeError, match="encoded"):
            evaluate_filter(table, FilterSpec("x", "eq", "three"))
        with pytest.raises(TypeError, match="encoded"):
            evaluate_filter(table, FilterSpec("x", "in", {"a", "b"}))

    def test_tuple_conjunction(self):
        table = Table.from_arrays("t", {"x": np.arange(10)})
        mask = evaluate_pred(table, (FilterSpec("x", "ge", 3), FilterSpec("x", "lt", 7)))
        assert mask.sum() == 4
        assert evaluate_pred(table, ()).all()


class TestExecuteQuery:
    def test_q11_matches_reference(self, tiny_ssb):
        value, profile = execute_query(tiny_ssb, QUERIES["q1.1"])
        assert value == pytest.approx(_reference_q11(tiny_ssb))
        assert profile.num_groups == 1
        assert 0 < profile.fact_filter_selectivity < 1

    def test_q21_matches_reference(self, tiny_ssb):
        value, profile = execute_query(tiny_ssb, QUERIES["q2.1"])
        assert value == _reference_q21(tiny_ssb)
        assert profile.num_groups == len(value)
        assert len(profile.joins) == 3

    def test_profile_join_selectivities(self, tiny_ssb):
        _, profile = execute_query(tiny_ssb, QUERIES["q2.1"])
        supplier_stage = profile.joins[0]
        part_stage = profile.joins[1]
        assert supplier_stage.selectivity == pytest.approx(0.2, abs=0.1)
        assert part_stage.selectivity == pytest.approx(1 / 25, abs=0.03)

    def test_profile_column_access_rule(self, tiny_ssb):
        _, profile = execute_query(tiny_ssb, QUERIES["q2.1"])
        selective = profile.selective_column_bytes(64)
        assert selective <= sum(access.column_bytes for access in profile.column_accesses)
        # The first join key is always a full-column scan.
        first_key = next(a for a in profile.column_accesses if a.role == "join_key")
        assert first_key.rows_needed == profile.fact_rows

    @pytest.mark.parametrize(
        "rows_needed,charged",
        [(0, 0.0), (10, 640.0), (63, 4000.0), (1000, 4000.0)],
        ids=["no-survivors", "sparse", "just-past-full", "full-width"],
    )
    def test_selective_bytes_cap_at_the_column(self, rows_needed, charged):
        """Survivors cost a 64-byte line each until that exceeds the full
        4000-byte column, which then is the charge: a refinement over few
        survivors is cheaper than a rescan and never dearer."""
        access = ColumnAccess("x", column_bytes=4000.0, rows_needed=rows_needed, role="filter")
        profile = QueryProfile("t", 1000, 1.0, column_accesses=[access])
        assert profile.selective_column_bytes(64) == charged

    def test_group_keys_decode_to_plausible_values(self, tiny_ssb):
        value, _ = execute_query(tiny_ssb, QUERIES["q2.1"])
        years = {key[0] for key in value}
        assert years <= set(range(1992, 1999))

    def test_every_query_executes(self, tiny_ssb):
        for name, query in QUERIES.items():
            value, profile = execute_query(tiny_ssb, query)
            if query.has_group_by:
                assert isinstance(value, dict)
            else:
                assert isinstance(value, float)
            assert profile.fact_rows == tiny_ssb["lineorder"].num_rows

    def test_profile_copy_is_equal_and_private(self, tiny_ssb):
        _, profile = execute_query(tiny_ssb, QUERIES["q1.1"])
        copied = profile.copy()
        assert copied == profile
        copied.fact_rows = -1
        copied.column_accesses[0].rows_needed = -1.0
        copied.filter_stages[0].rows_out = -1.0
        copied.filter_stages.append(copied.filter_stages[0])
        copied.joins[0].selectivity = -1.0
        assert profile == execute_query(tiny_ssb, QUERIES["q1.1"])[1]

    def test_aggregates_are_non_negative(self, tiny_ssb):
        for name in ("q1.1", "q2.1", "q3.1", "q4.1"):
            value, _ = execute_query(tiny_ssb, QUERIES[name])
            if isinstance(value, dict):
                assert all(v >= 0 for v in value.values())
            else:
                assert value >= 0


class TestNarrowestSignedDtype:
    """Signed-boundary edge cases: the payload dtype picker must not fall
    over exactly where a narrower type stops fitting."""

    def test_int8_boundaries(self):
        from repro.engine.plan import narrowest_signed_dtype

        assert narrowest_signed_dtype(0, 127) == np.int8
        assert narrowest_signed_dtype(0, 128) == np.int16
        assert narrowest_signed_dtype(-128, 127) == np.int8
        assert narrowest_signed_dtype(-129, 0) == np.int16

    def test_int16_boundaries(self):
        from repro.engine.plan import narrowest_signed_dtype

        assert narrowest_signed_dtype(0, 32767) == np.int16
        assert narrowest_signed_dtype(0, 32768) == np.int32
        assert narrowest_signed_dtype(-32768, 32767) == np.int16
        assert narrowest_signed_dtype(-32769, 0) == np.int32

    def test_int32_and_int64_boundaries(self):
        from repro.engine.plan import narrowest_signed_dtype

        assert narrowest_signed_dtype(0, 2**31 - 1) == np.int32
        assert narrowest_signed_dtype(0, 2**31) == np.int64
        assert narrowest_signed_dtype(-(2**63), 2**63 - 1) == np.int64

    def test_negative_lows_drive_widening(self):
        from repro.engine.plan import narrowest_signed_dtype

        # A tiny high does not save a wide negative low.
        assert narrowest_signed_dtype(-1000, 1) == np.int16
        assert narrowest_signed_dtype(-(2**40), 0) == np.int64

    def test_overflow_rejected(self):
        from repro.engine.plan import narrowest_signed_dtype

        with pytest.raises(OverflowError):
            narrowest_signed_dtype(0, 2**63)
        with pytest.raises(OverflowError):
            narrowest_signed_dtype(-(2**63) - 1, 0)


class TestBuildDimensionLookupDtype:
    """The dtype (and layout) build_dimension_lookup actually chooses."""

    def _dimension(self, payload_values):
        payload = np.asarray(payload_values)
        return Table.from_arrays(
            "dim",
            {
                "key": np.arange(payload.shape[0], dtype=np.int32),
                "payload": payload,
            },
        )

    @pytest.mark.parametrize(
        "high, expected",
        [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)],
    )
    def test_payload_boundary_dtypes(self, high, expected):
        from repro.engine.plan import build_dimension_lookup

        dim = self._dimension(np.array([0, high], dtype=np.int64))
        lookup, present = build_dimension_lookup(dim, "key", np.ones(2, dtype=bool), "payload")
        assert lookup.dtype == expected
        assert present.all()
        assert lookup[1] == high

    def test_negative_payloads_round_trip(self):
        from repro.engine.plan import build_dimension_lookup

        dim = self._dimension(np.array([-5, -120, 7], dtype=np.int64))
        lookup, present = build_dimension_lookup(dim, "key", np.ones(3, dtype=bool), "payload")
        assert lookup.dtype == np.int8
        np.testing.assert_array_equal(lookup, [-5, -120, 7])

    def test_filtered_values_do_not_widen(self):
        """Only *selected* payload values matter for the dtype."""
        from repro.engine.plan import build_dimension_lookup

        dim = self._dimension(np.array([1, 2, 1_000_000], dtype=np.int64))
        mask = np.array([True, True, False])
        lookup, present = build_dimension_lookup(dim, "key", mask, "payload")
        assert lookup.dtype == np.int8
        assert not present[2]

    def test_no_payload_is_one_byte(self):
        from repro.engine.plan import build_dimension_lookup

        dim = self._dimension(np.array([9, 9, 9], dtype=np.int64))
        lookup, present = build_dimension_lookup(dim, "key", np.ones(3, dtype=bool), None)
        assert lookup.dtype == np.int8

    def test_base_offsets_the_layout(self):
        from repro.engine.plan import build_dimension_lookup

        keys = np.array([1000, 1001, 1005], dtype=np.int32)
        dim = Table.from_arrays(
            "dim", {"key": keys, "payload": np.array([7, 8, 9], dtype=np.int32)}
        )
        dense_lookup, dense_present = build_dimension_lookup(
            dim, "key", np.ones(3, dtype=bool), "payload"
        )
        compact_lookup, compact_present = build_dimension_lookup(
            dim, "key", np.ones(3, dtype=bool), "payload", base=1000
        )
        assert dense_lookup.shape[0] == 1006
        assert compact_lookup.shape[0] == 6
        np.testing.assert_array_equal(
            np.flatnonzero(dense_present), np.flatnonzero(compact_present) + 1000
        )
        np.testing.assert_array_equal(
            dense_lookup[np.flatnonzero(dense_present)],
            compact_lookup[np.flatnonzero(compact_present)],
        )

    def test_empty_dimension_ignores_base(self):
        from repro.engine.plan import build_dimension_lookup

        dim = Table.from_arrays(
            "dim",
            {
                "key": np.array([], dtype=np.int32),
                "payload": np.array([], dtype=np.int32),
            },
        )
        lookup, present = build_dimension_lookup(
            dim, "key", np.zeros(0, dtype=bool), "payload", base=500
        )
        assert lookup.shape == present.shape == (1,)
        assert not present.any()


class TestDuplicateDimensionKeys:
    """A key the build selects twice is an error on both planes, never a
    silent last-row-wins join: SQL matches the fact row once per dimension
    row (here 63 007 rows where the last-row-wins lookup counted 60 000)."""

    PLANES = {
        "engine": lambda db, query: Session(db).run(query).value,
        "reference": lambda db, query: execute_query_monolithic(db, query)[0],
    }

    @staticmethod
    def _count_by_nation(db, filters=()):
        return (
            Q()
            .join("supplier", on=("lo_suppkey", "s_suppkey"), filters=filters, payload="s_nation")
            .group_by("s_nation")
            .agg("count")
            .build(db)
        )

    @staticmethod
    def _append_row0_again(db, *shifted):
        """Append supplier row 0 -- its key too -- with each ``shifted``
        column moved to the next dictionary code."""
        supplier = db.table("supplier")
        row = {name: supplier[name][:1] for name in supplier.columns}
        for name in shifted:
            row[name] = (row[name] + 1) % len(supplier.dictionaries[name].values)
        supplier.append(row)

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_selected_duplicate_raises(self, plane):
        db = generate_ssb(scale_factor=0.01, seed=3)
        query = self._count_by_nation(db)
        assert sum(self.PLANES[plane](db, query).values()) == db.table("lineorder").num_rows
        self._append_row0_again(db, "s_nation")
        with pytest.raises(ValueError, match=r"'supplier' holds key 0 .*'s_suppkey'"):
            self.PLANES[plane](db, query)

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_unselected_duplicates_still_run(self, plane):
        db = generate_ssb(scale_factor=0.01, seed=3)
        supplier = db.table("supplier")
        regions = supplier.dictionaries["s_region"].values
        row0 = int(supplier["s_region"][0])
        # Neither row 0's region nor its copy's (the next code) is selected.
        other = regions[(row0 + 2) % len(regions)]
        query = self._count_by_nation(db, filters=[("s_region", "eq", other)])
        before = self.PLANES[plane](db, query)
        self._append_row0_again(db, "s_nation", "s_region")
        assert self.PLANES[plane](db, query) == before
