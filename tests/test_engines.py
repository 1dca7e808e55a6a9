"""Integration tests across the full-query engines."""

import pytest

from repro.api import Session
from repro.engine import (
    CoprocessorEngine,
    CPUStandaloneEngine,
    GPUStandaloneEngine,
    HyperLikeEngine,
    MonetDBLikeEngine,
    OmnisciLikeEngine,
    bill,
    execute_query,
)
from repro.analysis.scaling import scale_profile
from repro.hardware.counters import TrafficCounter
from repro.ssb.queries import QUERIES, QUERY_ORDER

ALL_ENGINES = [
    CPUStandaloneEngine,
    GPUStandaloneEngine,
    CoprocessorEngine,
    HyperLikeEngine,
    MonetDBLikeEngine,
    OmnisciLikeEngine,
]


def priced(engine, query):
    """``engine``'s bill for a fresh functional pass of ``query``."""
    return bill(engine, query, *execute_query(engine.db, query))


class TestCorrectness:
    @pytest.mark.parametrize("query_name", QUERY_ORDER)
    def test_all_engines_agree_on_every_query(self, tiny_ssb, query_name):
        query = QUERIES[query_name]
        session = Session(tiny_ssb, cache=False)
        results = {cls.name: session.run(query, engine=cls.name) for cls in ALL_ENGINES}
        reference = results["standalone-cpu"].value
        for name, result in results.items():
            assert result.value == reference, f"{name} disagrees on {query_name}"
            assert result.query == query_name
            assert result.engine == name
            assert result.simulated_ms > 0

    def test_result_rows_property(self, tiny_ssb):
        cpu = CPUStandaloneEngine(tiny_ssb)
        scalar = priced(cpu, QUERIES["q1.1"])
        grouped = priced(cpu, QUERIES["q2.1"])
        assert scalar.rows == 1
        assert grouped.rows == len(grouped.value)


class TestPerformanceShapeAtScale:
    """Simulated-time orderings the paper reports, checked on SF-20 profiles."""

    @pytest.fixture(scope="class")
    def scaled_profiles(self, tiny_ssb):
        profiles = {}
        for name in ("q1.1", "q2.1", "q3.1", "q4.1"):
            _, profile = execute_query(tiny_ssb, QUERIES[name])
            profiles[name] = scale_profile(profile, base_scale_factor=0.01, target_scale_factor=20.0)
        return profiles

    def test_gpu_beats_cpu_by_more_than_bandwidth_ratio_on_joins(self, tiny_ssb, scaled_profiles):
        cpu = CPUStandaloneEngine(tiny_ssb)
        gpu = GPUStandaloneEngine(tiny_ssb)
        for name in ("q2.1", "q3.1", "q4.1"):
            query = QUERIES[name]
            profile = scaled_profiles[name]
            ratio = cpu.simulate(query, profile).total_seconds / gpu.simulate(query, profile).total_seconds
            assert ratio > 10, f"{name}: expected a large GPU advantage, got {ratio:.1f}x"

    def test_coprocessor_slower_than_standalone_cpu(self, tiny_ssb, scaled_profiles):
        """Section 3.1: the coprocessor model loses to an efficient CPU engine.

        The paper's argument is per-scan-bound query (flight 1) and in the
        mean; for join-heavy queries whose CPU runtime is dominated by probe
        stalls the two can come close, so the assertion checks flight 1/2
        queries individually and the average over all sampled queries.
        """
        cpu = CPUStandaloneEngine(tiny_ssb)
        coprocessor = CoprocessorEngine(tiny_ssb)
        copro_total = 0.0
        cpu_total = 0.0
        for name, profile in scaled_profiles.items():
            query = QUERIES[name]
            copro_s = coprocessor.simulate(query, profile).total_seconds
            cpu_s = cpu.simulate(query, profile).total_seconds
            copro_total += copro_s
            cpu_total += cpu_s
            if name in ("q1.1", "q2.1"):
                assert copro_s > cpu_s
        assert copro_total > cpu_total

    def test_coprocessor_slower_than_standalone_gpu(self, tiny_ssb, scaled_profiles):
        gpu = GPUStandaloneEngine(tiny_ssb)
        coprocessor = CoprocessorEngine(tiny_ssb)
        for name, profile in scaled_profiles.items():
            query = QUERIES[name]
            assert coprocessor.simulate(query, profile).total_seconds > gpu.simulate(query, profile).total_seconds

    def test_standalone_cpu_not_slower_than_hyper(self, tiny_ssb, scaled_profiles):
        cpu = CPUStandaloneEngine(tiny_ssb)
        hyper = HyperLikeEngine(tiny_ssb)
        for name, profile in scaled_profiles.items():
            query = QUERIES[name]
            assert cpu.simulate(query, profile).total_seconds <= hyper.simulate(query, profile).total_seconds * 1.05

    def test_crystal_gpu_beats_omnisci(self, tiny_ssb, scaled_profiles):
        gpu = GPUStandaloneEngine(tiny_ssb)
        omnisci = OmnisciLikeEngine(tiny_ssb)
        for name, profile in scaled_profiles.items():
            query = QUERIES[name]
            ratio = omnisci.simulate(query, profile).total_seconds / gpu.simulate(query, profile).total_seconds
            assert ratio > 3, f"{name}: expected OmniSci-like to be much slower, got {ratio:.1f}x"

    def test_monetdb_slower_than_standalone_cpu(self, tiny_ssb, scaled_profiles):
        cpu = CPUStandaloneEngine(tiny_ssb)
        monetdb = MonetDBLikeEngine(tiny_ssb)
        for name, profile in scaled_profiles.items():
            query = QUERIES[name]
            assert monetdb.simulate(query, profile).total_seconds > cpu.simulate(query, profile).total_seconds

    def test_coprocessor_is_pcie_bound(self, tiny_ssb):
        """Section 3.1: shipping q1.1's input over PCIe alone takes longer
        than the whole query on the standalone GPU."""
        query = QUERIES["q1.1"]
        coprocessor = CoprocessorEngine(tiny_ssb)
        value, profile = execute_query(tiny_ssb, query)
        transfer_s = coprocessor.pcie.transfer_seconds(coprocessor.transfer_bytes(profile))
        assert transfer_s > GPUStandaloneEngine(tiny_ssb).simulate(query, profile).total_seconds
        assert bill(coprocessor, query, value, profile).traffic.pcie_bytes > 0


class TestQueryResultStats:
    def test_cpu_result_stats(self, tiny_ssb):
        result = priced(CPUStandaloneEngine(tiny_ssb), QUERIES["q2.1"])
        assert result.stats["fact_rows"] == tiny_ssb["lineorder"].num_rows
        assert result.stats["groups"] == result.rows

    def test_every_engine_reports_the_profiles_facts(self, tiny_ssb):
        query = QUERIES["q2.1"]
        value, profile = execute_query(tiny_ssb, query)
        results = {cls: bill(cls(tiny_ssb), query, value, profile) for cls in ALL_ENGINES}
        facts = results[CPUStandaloneEngine].stats
        assert sorted(facts) == ["fact_filter_selectivity", "fact_rows", "groups", "result_rows"]
        assert all(result.stats == facts for result in results.values())
        for baseline in (HyperLikeEngine, MonetDBLikeEngine, OmnisciLikeEngine):
            assert results[baseline].traffic == TrafficCounter()

    def test_time_breakdown_has_named_phases(self, tiny_ssb):
        result = priced(GPUStandaloneEngine(tiny_ssb), QUERIES["q2.1"])
        components = result.time.components
        assert any(name.startswith("build.") for name in components)
        assert any(name.startswith("probe.") for name in components)
