"""Tests for profile scaling, the cost model, report formatting, and experiments."""

import pytest

from repro.analysis import cost_comparison, format_series, format_table, scale_profile
from repro.analysis.experiments import (
    run_figure3,
    run_figure9,
    run_figure10,
    run_figure12,
    run_figure13,
    run_figure14,
    run_figure16,
    run_sec33_tile_comparison,
    run_sec53_case_study,
    run_table2,
    run_table3,
)
from repro.engine.plan import execute_query
from repro.ssb.queries import QUERIES


class TestScaleProfile:
    def test_fact_side_scales_linearly(self, tiny_ssb):
        _, profile = execute_query(tiny_ssb, QUERIES["q2.1"])
        scaled = scale_profile(profile, base_scale_factor=0.01, target_scale_factor=20.0)
        assert scaled.fact_rows == pytest.approx(profile.fact_rows * 2000, rel=0.01)
        assert scaled.result_input_rows == pytest.approx(profile.result_input_rows * 2000, rel=0.01)
        # The original profile is untouched.
        assert profile.fact_rows == tiny_ssb["lineorder"].num_rows

    def test_dimension_side_uses_per_table_ratios(self, tiny_ssb):
        _, profile = execute_query(tiny_ssb, QUERIES["q2.1"])
        scaled = scale_profile(profile, 0.01, 20.0)
        by_dim = {stage.dimension: stage for stage in scaled.joins}
        assert by_dim["supplier"].dimension_rows == pytest.approx(40_000, rel=0.05)
        assert by_dim["date"].dimension_rows == pytest.approx(profile.joins[-1].dimension_rows, rel=0.01)
        assert by_dim["part"].hash_table_bytes == pytest.approx(8 * 1_000_000, rel=0.05)

    def test_rejects_bad_scale_factors(self, tiny_ssb):
        _, profile = execute_query(tiny_ssb, QUERIES["q1.1"])
        with pytest.raises(ValueError):
            scale_profile(profile, 0, 20)


class TestCostComparison:
    def test_paper_numbers(self):
        """Section 5.4: ~6x rent cost ratio, ~25x speedup -> ~4x cost effectiveness."""
        comparison = cost_comparison(performance_ratio=25.0)
        assert comparison.rent_cost_ratio == pytest.approx(6.07, rel=0.02)
        assert comparison.rent_cost_effectiveness == pytest.approx(25 / 6.07, rel=0.02)
        assert comparison.purchase_cost_ratio < 6.0

    def test_rejects_non_positive_ratio(self):
        with pytest.raises(ValueError):
            cost_comparison(0)

    def test_as_rows_shape(self):
        rows = cost_comparison(10.0).as_rows()
        assert [r["platform"] for r in rows] == ["CPU", "GPU", "GPU / CPU"]


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1.0, "b": "x"}, {"a": 2.5, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_series(self):
        text = format_series({"s1": {1: 10.0, 2: 20.0}, "s2": {1: 1.0}}, x_name="n")
        assert "s1" in text and "s2" in text and "nan" in text


class TestExperiments:
    """Shape assertions on every experiment, run at tiny execution sizes."""

    EXEC_N = 1 << 16

    def test_figure9_shape(self):
        result = run_figure9(exec_n=self.EXEC_N)
        series = result["series"]
        assert set(series) == {"items_per_thread=1", "items_per_thread=2", "items_per_thread=4"}
        best = series["items_per_thread=4"]
        # Four items per thread beats one item per thread at every block size.
        for block, value in best.items():
            assert value <= series["items_per_thread=1"][block]
        # Mid-sized blocks beat both extremes (the Figure 9 U-shape).
        assert best[256] <= best[32]
        assert best[256] <= best[1024]

    def test_sec33_crystal_vs_independent_threads(self):
        rows = run_sec33_tile_comparison(exec_n=self.EXEC_N)["rows"]
        independent, crystal = rows[0], rows[1]
        assert independent["simulated_ms"] > crystal["simulated_ms"] * 3

    def test_figure10_shape(self):
        result = run_figure10(exec_n=self.EXEC_N)
        for row in result["rows"]:
            assert row["cpu_ms"] >= row["cpu_opt_ms"]
            assert row["cpu_opt_ms"] > row["gpu_ms"]
            # The CPU-Opt over GPU ratio tracks the bandwidth ratio.
            assert row["cpu_opt_over_gpu"] == pytest.approx(result["bandwidth_ratio"], rel=0.35)

    def test_figure12_shape(self):
        series = run_figure12(exec_n=self.EXEC_N)["series"]
        # Runtime grows with selectivity for the bandwidth-bound variants.
        assert series["cpu_simd_pred"][1.0] > series["cpu_simd_pred"][0.0]
        assert series["gpu_pred"][1.0] > series["gpu_pred"][0.0]
        # Branching hurts most at intermediate selectivity.
        assert series["cpu_if"][0.5] > series["cpu_pred"][0.5]
        # GPU If and GPU Pred are indistinguishable.
        for selectivity in (0.0, 0.5, 1.0):
            assert series["gpu_if"][selectivity] == pytest.approx(series["gpu_pred"][selectivity], rel=0.01)
        # The GPU gain is near the bandwidth ratio.
        ratio = series["cpu_simd_pred"][0.5] / series["gpu_pred"][0.5]
        assert 10 <= ratio <= 22

    def test_figure13_shape(self):
        result = run_figure13(validate=True, exec_probe_rows=1 << 16)
        series = result["series"]
        sizes = sorted(series["cpu_scalar"])
        # Step behaviour: runtime never decreases as the hash table grows.
        for name in ("cpu_scalar", "gpu", "cpu_model", "gpu_model"):
            values = [series[name][s] for s in sizes]
            assert all(b >= a * 0.99 for a, b in zip(values, values[1:]))
        # SIMD never beats scalar; the GPU always wins.
        for size in sizes:
            assert series["cpu_simd"][size] >= series["cpu_scalar"][size] * 0.99
            assert series["gpu"][size] < series["cpu_scalar"][size]
        # The gain is below the bandwidth ratio for memory-resident tables.
        large = sizes[-1]
        assert series["cpu_scalar"][large] / series["gpu"][large] < 16.2
        assert all(entry["checksum_ok"] for entry in result["validation"])

    def test_figure14_shape(self):
        result = run_figure14(exec_n=1 << 16)
        shuffle = result["shuffle_series"]
        # CPU shuffle deteriorates past 8 bits; GPU stable stops at 7 bits.
        assert shuffle["cpu_stable"][11] > shuffle["cpu_stable"][8] * 1.2
        assert 8 not in shuffle["gpu_stable"]
        assert 8 in shuffle["gpu_unstable"]
        # Full sorts: the GPU wins by roughly the bandwidth ratio.
        cpu_sort, gpu_sort = result["full_sort_rows"]
        assert 10 <= cpu_sort["simulated_ms"] / gpu_sort["simulated_ms"] <= 25

    def test_figure3_shape(self):
        rows = run_figure3(scale_factor=0.02)["rows"]
        mean = rows[-1]
        assert mean["query"] == "mean"
        # The GPU coprocessor is slower than Hyper on average (Section 3.1).
        assert mean["gpu_coprocessor_ms"] > mean["hyper_ms"]

    def test_figure16_shape(self):
        rows = run_figure16(scale_factor=0.02)["rows"]
        mean = rows[-1]
        # The headline result: standalone GPU beats standalone CPU by more
        # than the 16.2x bandwidth ratio on average.
        assert mean["cpu_over_gpu"] > 16.2
        assert mean["omnisci_ms"] > mean["standalone_gpu_ms"] * 3
        assert mean["standalone_cpu_ms"] <= mean["hyper_ms"] * 1.05

    def test_table2_lists_bandwidths(self):
        rows = run_table2()["rows"]
        attributes = {row["attribute"] for row in rows}
        assert "read_bandwidth_gbps" in attributes and "bandwidth_ratio" in attributes

    def test_table3_cost_effectiveness(self):
        result = run_table3(performance_ratio=25.0)
        assert result["performance_ratio"] == 25.0
        effectiveness = result["rows"][-1]["rent_usd_per_hour"]
        assert 3.0 <= effectiveness <= 5.0

    def test_sec53_case_study(self):
        rows = run_sec53_case_study(scale_factor=0.02)["rows"]
        gpu_row = next(r for r in rows if r["device"] == "GPU")
        cpu_row = next(r for r in rows if r["device"] == "CPU")
        # The GPU tracks its model closely; the CPU misses its model by a lot
        # more (latency stalls), mirroring the paper's Section 5.3 finding.
        gpu_gap = gpu_row["simulated_ms"] / gpu_row["model_ms"]
        cpu_gap = cpu_row["simulated_ms"] / cpu_row["model_ms"]
        assert cpu_gap > gpu_gap
