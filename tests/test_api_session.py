"""Tests for the Session facade and engine name resolution."""

import numpy as np
import pytest

from repro.api import Q, Session, available_engines
from repro.engine import ENGINES, CPUStandaloneEngine, bill, execute_query, resolve_engine
from repro.hardware.counters import TrafficCounter
from repro.ssb.queries import QUERIES

#: An ad-hoc two-dimension count query that is NOT one of the 13 SSB queries.
CUSTOM_COUNT = (
    Q("lineorder")
    .filter("lo_quantity", "lt", 25)
    .join("supplier", on=("lo_suppkey", "s_suppkey"),
          filters=[("s_region", "eq", "ASIA")])
    .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
    .group_by("d_year")
    .agg("count")
    .named("asia-orders-by-year")
)


class TestEngineNames:
    def test_builtin_engine_keys(self):
        assert available_engines() == ["coprocessor", "cpu", "gpu", "hyper", "monetdb", "omnisci"]
        assert available_engines() == sorted(ENGINES)

    def test_keys_and_engine_names_resolve_to_keys(self):
        assert resolve_engine("standalone-cpu") == "cpu"
        assert resolve_engine("standalone-gpu") == "gpu"
        assert resolve_engine("gpu-coprocessor") == "coprocessor"
        for key, cls in ENGINES.items():
            assert resolve_engine(key) == key
            assert resolve_engine(cls.name) == key

    def test_unknown_engine_lists_the_keys(self):
        with pytest.raises(KeyError, match=r"unknown engine 'tpu'; engines: \['coprocessor', 'cpu'"):
            resolve_engine("tpu")

    @pytest.mark.parametrize("key", sorted(ENGINES))
    def test_every_engine_prices_one_pass(self, tiny_ssb, key):
        """An engine is a hardware model: built from the database alone, it
        prices a pass through ``simulate`` and ``traffic`` under its name."""
        query = QUERIES["q2.1"]
        value, profile = execute_query(tiny_ssb, query)
        engine = ENGINES[key](tiny_ssb)
        assert isinstance(engine.name, str)
        assert resolve_engine(engine.name) == key
        result = bill(engine, query, value, profile)
        assert result.engine == engine.name
        assert result.value == value
        assert result.time.total_seconds > 0
        assert isinstance(result.traffic, TrafficCounter)


class TestSessionRun:
    @pytest.fixture(scope="class")
    def session(self, tiny_ssb):
        return Session(tiny_ssb)

    def test_run_matches_direct_engine(self, session, tiny_ssb):
        query = QUERIES["q2.1"]
        via_session = session.run(query, engine="cpu")
        direct = bill(CPUStandaloneEngine(tiny_ssb), query, *execute_query(tiny_ssb, query))
        assert via_session.value == direct.value
        assert via_session.simulated_ms == direct.simulated_ms

    def test_engine_instances_are_cached(self, session):
        assert session.engine("gpu") is session.engine("standalone-gpu")

    def test_engine_name_replays_its_keys_result(self, tiny_ssb):
        session = Session(tiny_ssb)
        by_key = session.run(QUERIES["q3.1"], engine="gpu")
        by_name = session.run(QUERIES["q3.1"], engine="standalone-gpu")
        assert session.cache_info()[:2] == (1, 1)
        assert by_name.value == by_key.value
        assert by_name.simulated_ms == by_key.simulated_ms

    def test_unknown_engine_fails_before_running(self, tiny_ssb):
        session = Session(tiny_ssb)
        with pytest.raises(KeyError, match=r"unknown engine 'tpu'; engines: \['coprocessor', 'cpu'"):
            session.run(QUERIES["q1.1"], engine="tpu")
        assert session.cache_info()[:2] == (0, 0)

    def test_run_accepts_builders(self, session):
        result = session.run(CUSTOM_COUNT, engine="cpu")
        assert result.query == "asia-orders-by-year"
        assert result.rows >= 1

    def test_run_many(self, session):
        names = ["q1.1", "q2.1", "q3.1"]
        results = session.run_many([QUERIES[n] for n in names], engine="gpu")
        assert [r.query for r in results] == names
        assert all(r.engine == "standalone-gpu" for r in results)

    def test_run_rejects_non_queries(self, session):
        with pytest.raises(TypeError, match="SSBQuery or QueryBuilder"):
            session.run("q1.1")

    def test_unencoded_string_predicate_errors_instead_of_matching_nothing(self, session):
        """A spec built without a db keeps its string constant unencoded; running
        it must raise, not silently count zero rows."""
        spec = (
            Q()
            .join("supplier", on=("lo_suppkey", "s_suppkey"),
                  filters=[("s_region", "eq", "ASIA")])
            .agg("count")
            .build()  # no db: no dictionary rewrite happens here
        )
        with pytest.raises(TypeError, match="encoded"):
            session.run(spec, engine="cpu")

    def test_prepare_builds_a_builder_against_the_session_db(self, session, tiny_ssb):
        assert session.prepare(CUSTOM_COUNT) == CUSTOM_COUNT.build(tiny_ssb)
        assert session.prepare(QUERIES["q2.1"]) is QUERIES["q2.1"]

    def test_prepare_optimize_takes_the_planners_order(self, session):
        query = QUERIES["q4.1"]
        best = session.planner.best_order(query).join_order
        optimized = session.prepare(query, optimize=True)
        assert tuple(join.dimension for join in optimized.joins) == best
        assert sorted(optimized.joins, key=str) == sorted(query.joins, key=str)

    def test_prepare_rejects_anything_but_a_query(self, session):
        with pytest.raises(TypeError, match="SSBQuery or QueryBuilder"):
            session.prepare("q1.1")

    def test_optimize_preserves_answers(self, session):
        plain = session.run(QUERIES["q4.1"], engine="cpu")
        optimized = session.run(QUERIES["q4.1"], engine="cpu", optimize=True)
        assert optimized.value == plain.value


class TestSessionCompare:
    @pytest.fixture(scope="class")
    def session(self, tiny_ssb):
        return Session(tiny_ssb)

    def test_custom_query_consistent_across_cpu_gpu_coprocessor(self, session, tiny_ssb):
        """Acceptance: a non-canonical count query agrees exactly on 3 engines."""
        comparison = session.compare(CUSTOM_COUNT, engines=["cpu", "gpu", "coprocessor"])
        assert comparison.consistent
        assert set(comparison.results) == {"cpu", "gpu", "coprocessor"}

        # The shared answer is exactly the brute-force NumPy count.
        lo = tiny_ssb["lineorder"]
        supplier, date = tiny_ssb["supplier"], tiny_ssb["date"]
        asia = supplier.dictionaries["s_region"].encode_value("ASIA")
        ok_supp = np.zeros(int(supplier["s_suppkey"].max()) + 1, dtype=bool)
        ok_supp[supplier["s_suppkey"][supplier["s_region"] == asia]] = True
        year_of = dict(zip(date["d_datekey"].tolist(), date["d_year"].tolist()))
        expected: dict[tuple, float] = {}
        mask = (lo["lo_quantity"] < 25) & ok_supp[lo["lo_suppkey"]]
        for orderdate in lo["lo_orderdate"][mask]:
            key = (int(year_of[int(orderdate)]),)
            expected[key] = expected.get(key, 0.0) + 1.0
        value = next(iter(comparison.results.values())).value
        assert value == expected

    def test_all_six_engines_agree_on_custom_query(self, session):
        comparison = session.compare(CUSTOM_COUNT, engines=available_engines())
        assert comparison.consistent

    def test_rows_sorted_fastest_first(self, session):
        comparison = session.compare(QUERIES["q2.1"])
        times = [row.simulated_ms for row in comparison.rows()]
        assert times == sorted(times)

    def test_str_table_renders(self, session):
        text = str(session.compare(QUERIES["q1.1"]))
        assert "consistent=True" in text
        assert "cpu" in text and "gpu" in text

    def test_compare_accepts_a_bare_engine_name(self, session):
        """A single string must not be iterated character-wise."""
        comparison = session.compare(QUERIES["q1.1"], engines="cpu")
        assert set(comparison.results) == {"cpu"}

    def test_compare_needs_engines(self, session):
        with pytest.raises(ValueError, match="at least one engine"):
            session.compare(QUERIES["q1.1"], engines=[])

    def test_compare_rejects_duplicate_engines(self, session):
        """An alias and its canonical key must not silently collapse to one row."""
        with pytest.raises(ValueError, match="more than once"):
            session.compare(QUERIES["q1.1"], engines=["gpu", "standalone-gpu"])

    def test_compare_with_optimize_is_consistent(self, session):
        comparison = session.compare(QUERIES["q4.2"], engines=["cpu", "gpu"], optimize=True)
        assert comparison.consistent
        reference = session.run(QUERIES["q4.2"], engine="cpu")
        assert comparison.results["cpu"].value == reference.value


class TestQuickstartDocstring:
    def test_package_quickstart_runs(self, tiny_ssb):
        """The package docstring's advertised imports and flow actually work."""
        import repro

        for symbol in ("Q", "Session", "QUERIES", "generate_ssb"):
            assert hasattr(repro, symbol), f"repro does not export {symbol}"
        session = Session(tiny_ssb)
        orders = (
            Q("lineorder")
            .filter("lo_quantity", "lt", 25)
            .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
            .group_by("d_year")
            .agg("count")
        )
        comparison = session.compare(orders, engines=["cpu", "gpu", "coprocessor"])
        assert comparison.consistent
        value, _ = execute_query(tiny_ssb, orders.build(tiny_ssb))
        assert next(iter(comparison.results.values())).value == value
