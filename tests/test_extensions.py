"""Tests for the extension modules: radix join, planner, compression, capacity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.capacity import MultiGPUConfig, gpus_needed, placement_advice
from repro.engine.planner import JoinOrderPlanner
from repro.hardware.presets import NVIDIA_V100, bandwidth_ratio
from repro.ops.cpu import cpu_hash_join_build, cpu_hash_join_probe, cpu_radix_join
from repro.ssb.queries import QUERIES
from repro.storage.compression import BitPackedColumn, bits_needed


@pytest.fixture(scope="module")
def join_inputs():
    rng = np.random.default_rng(61)
    build_keys = np.arange(1 << 13)
    build_values = rng.integers(0, 1000, 1 << 13)
    probe_keys = rng.integers(0, 1 << 14, 1 << 15)
    probe_values = rng.integers(0, 1000, 1 << 15)
    matched = probe_keys < (1 << 13)
    expected = float(np.sum(probe_values[matched] + build_values[probe_keys[matched]]))
    return build_keys, build_values, probe_keys, probe_values, expected


class TestRadixJoin:
    def test_cpu_radix_join_checksum(self, join_inputs):
        build_keys, build_values, probe_keys, probe_values, expected = join_inputs
        result = cpu_radix_join(build_keys, build_values, probe_keys, probe_values)
        assert result.value == pytest.approx(expected)
        assert result.stat("radix_bits") >= 0

    def test_radix_join_matches_no_partitioning_join(self, join_inputs):
        build_keys, build_values, probe_keys, probe_values, _ = join_inputs
        table, _ = cpu_hash_join_build(build_keys, build_values)
        baseline = cpu_hash_join_probe(probe_keys, probe_values, table, "scalar")
        radix = cpu_radix_join(build_keys, build_values, probe_keys, probe_values)
        assert radix.value == pytest.approx(baseline.value)

    def test_partitions_fit_target_budget(self, join_inputs):
        """Partition tables fit the per-core L2 budget of 96 KB (within a power of two)."""
        build_keys, build_values, probe_keys, probe_values, _ = join_inputs
        result = cpu_radix_join(build_keys, build_values, probe_keys, probe_values)
        assert result.stat("radix_bits") > 0
        assert result.stat("partition_hash_table_bytes") <= 2 * 96 * 1024

    def test_small_build_skips_partitioning(self):
        rng = np.random.default_rng(3)
        build_keys = np.arange(128)
        build_values = rng.integers(0, 10, 128)
        probe_keys = rng.integers(0, 128, 1024)
        probe_values = rng.integers(0, 10, 1024)
        result = cpu_radix_join(build_keys, build_values, probe_keys, probe_values)
        assert result.stat("radix_bits") == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            cpu_radix_join(np.arange(4), np.arange(5), np.arange(4), np.arange(4))


class TestJoinOrderPlanner:
    def test_selectivity_estimates(self, tiny_ssb):
        planner = JoinOrderPlanner(tiny_ssb)
        best = planner.best_order(QUERIES["q2.1"])
        selectivity = dict(zip(best.join_order, best.selectivities))
        assert selectivity["supplier"] == pytest.approx(0.2, abs=0.15)
        assert selectivity["part"] == pytest.approx(1 / 25, abs=0.03)
        assert selectivity["date"] == 1.0

    def test_best_order_puts_selective_joins_first(self, tiny_ssb):
        planner = JoinOrderPlanner(tiny_ssb)
        best = planner.best_order(QUERIES["q2.1"], fact_rows=120_000_000)
        # The unfiltered date join should never come first.
        assert best.join_order[0] != "date"
        assert best.join_order[-1] == "date" or best.selectivities[-1] == 1.0

    def test_enumerate_covers_all_permutations(self, tiny_ssb):
        planner = JoinOrderPlanner(tiny_ssb)
        choices = planner.enumerate(QUERIES["q2.1"])
        assert len(choices) == 6  # 3! join orders
        costs = [c.estimated_seconds for c in choices]
        assert costs == sorted(costs)

    def test_reorder_preserves_query_semantics(self, tiny_ssb):
        from repro.engine.plan import execute_query

        planner = JoinOrderPlanner(tiny_ssb)
        original = QUERIES["q2.1"]
        reordered = planner.reorder(original)
        assert {j.dimension for j in reordered.joins} == {j.dimension for j in original.joins}
        value_original, _ = execute_query(tiny_ssb, original)
        value_reordered, _ = execute_query(tiny_ssb, reordered)
        assert value_original == value_reordered


class TestBitPacking:
    def test_bits_needed(self):
        assert bits_needed(0) == 1
        assert bits_needed(1) == 1
        assert bits_needed(255) == 8
        assert bits_needed(256) == 9
        with pytest.raises(ValueError):
            bits_needed(-1)

    def test_round_trip_small_domain(self):
        values = np.array([0, 1, 2, 3, 7, 5, 4], dtype=np.int64)
        packed = BitPackedColumn.pack(values)
        assert packed.bit_width == 3
        assert np.array_equal(packed.unpack(), values)

    def test_round_trip_cross_word_boundaries(self):
        rng = np.random.default_rng(71)
        values = rng.integers(0, 2**20, 10_000)
        packed = BitPackedColumn.pack(values)
        assert np.array_equal(packed.unpack(), values)

    def test_compression_ratio_for_ssb_like_columns(self):
        # lo_discount has 11 distinct values -> 4 bits vs 32 bits stored.
        discount = np.arange(11)
        packed = BitPackedColumn.pack(discount)
        assert packed.compression_ratio == pytest.approx(8.0, rel=0.2)
        assert packed.scan_speedup() == pytest.approx(packed.compression_ratio)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            BitPackedColumn.pack(np.array([-1, 3]))

    @settings(max_examples=30, deadline=None)
    @given(values=hnp.arrays(np.int64, st.integers(min_value=1, max_value=500),
                             elements=st.integers(min_value=0, max_value=2**30)))
    def test_round_trip_property(self, values):
        packed = BitPackedColumn.pack(values)
        assert np.array_equal(packed.unpack(), values)


class TestCapacityPlanning:
    def test_gpus_needed(self):
        assert gpus_needed(0) == 1
        assert gpus_needed(20 * 2**30) == 1
        assert gpus_needed(100 * 2**30) == 4
        with pytest.raises(ValueError):
            gpus_needed(-1)

    def test_multi_gpu_capacity_and_speedup(self):
        config = MultiGPUConfig(num_gpus=4)
        assert config.total_capacity_bytes > 3 * NVIDIA_V100.global_capacity_bytes * 0.8
        assert config.speedup_over_cpu() > bandwidth_ratio()
        single = MultiGPUConfig(num_gpus=1)
        assert single.speedup_over_cpu() == pytest.approx(bandwidth_ratio())

    def test_aggregate_bandwidth_discounts_each_added_gpu(self):
        single = MultiGPUConfig(num_gpus=1)
        assert single.aggregate_bandwidth == NVIDIA_V100.global_read_bandwidth
        four = MultiGPUConfig(num_gpus=4, scaling_efficiency=0.5)
        assert four.aggregate_bandwidth == pytest.approx(2.5 * NVIDIA_V100.global_read_bandwidth)
        linear = MultiGPUConfig(num_gpus=4, scaling_efficiency=1.0)
        assert linear.aggregate_bandwidth == pytest.approx(4 * NVIDIA_V100.global_read_bandwidth)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            MultiGPUConfig(num_gpus=0)
        with pytest.raises(ValueError):
            MultiGPUConfig(num_gpus=1, scaling_efficiency=0.0)

    def test_placement_gpu_resident_when_it_fits(self):
        advice = placement_advice(working_set_bytes=13 * 2**30, available_gpus=1)
        assert advice.strategy == "gpu-resident"
        assert advice.gpus_required == 1
        assert advice.expected_speedup_over_cpu > bandwidth_ratio()

    def test_placement_cpu_when_it_does_not_fit(self):
        advice = placement_advice(working_set_bytes=500 * 2**30, available_gpus=2)
        assert advice.strategy == "cpu"
        assert advice.gpus_required > 2
        assert advice.expected_speedup_over_cpu == 1.0
        assert "PCIe" in advice.reason

    def test_placement_validates_inputs(self):
        with pytest.raises(ValueError):
            placement_advice(-1)
        with pytest.raises(ValueError):
            placement_advice(1, available_gpus=0)
