"""Tests for the hardware specification layer (Table 2 presets included)."""

import pytest

from repro.hardware.presets import (
    AWS_P3_2XLARGE,
    AWS_R5_2XLARGE,
    DEFAULT_PCIE,
    INTEL_I7_6900,
    NVIDIA_V100,
    PAPER_PLATFORM,
    bandwidth_ratio,
)
from repro.hardware.specs import GB, KB, MB, CacheLevelSpec, CPUSpec, GPUSpec


class TestCacheLevelSpec:
    def test_valid_level(self):
        level = CacheLevelSpec(name="L1", capacity_bytes=32 * KB, line_bytes=64)
        assert level.num_lines == 512

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", capacity_bytes=0)

    def test_rejects_capacity_not_multiple_of_line(self):
        with pytest.raises(ValueError):
            CacheLevelSpec(name="L1", capacity_bytes=100, line_bytes=64)


class TestTable2Presets:
    """The presets must match Table 2 of the paper."""

    def test_cpu_core_count_and_smt(self):
        assert INTEL_I7_6900.cores == 8
        assert INTEL_I7_6900.total_threads == 16

    def test_cpu_bandwidths(self):
        assert INTEL_I7_6900.dram_read_bandwidth == pytest.approx(53e9)
        assert INTEL_I7_6900.dram_write_bandwidth == pytest.approx(55e9)

    def test_cpu_cache_line_is_the_last_levels(self):
        assert INTEL_I7_6900.cache_line_bytes == INTEL_I7_6900.caches[-1].line_bytes == 64

    def test_cpu_cache_sizes(self):
        assert INTEL_I7_6900.cache_named("L1").capacity_bytes == 32 * KB
        assert INTEL_I7_6900.cache_named("L2").capacity_bytes == 256 * KB
        assert INTEL_I7_6900.cache_named("L3").capacity_bytes == 20 * MB

    def test_cpu_l3_bandwidth(self):
        assert INTEL_I7_6900.cache_named("L3").bandwidth_bytes_per_s == pytest.approx(157e9)

    def test_cpu_simd_lanes(self):
        assert INTEL_I7_6900.simd_lanes_32bit == 8  # AVX2

    def test_gpu_memory(self):
        assert NVIDIA_V100.global_capacity_bytes == 32 * GB
        assert NVIDIA_V100.global_read_bandwidth == pytest.approx(880e9)

    def test_gpu_cache_sizes_and_bandwidths(self):
        assert NVIDIA_V100.l2_capacity_bytes == 6 * MB
        assert NVIDIA_V100.l1_capacity_per_sm_bytes == 16 * KB
        assert NVIDIA_V100.l2_bandwidth == pytest.approx(2.2e12)
        assert NVIDIA_V100.l1_bandwidth == pytest.approx(10.7e12)

    def test_gpu_core_count_order_of_magnitude(self):
        assert NVIDIA_V100.total_cores == 5120

    def test_bandwidth_ratio_matches_paper(self):
        # The paper quotes roughly 16.2x; 880/53 is ~16.6.
        assert 16.0 <= bandwidth_ratio() <= 17.0
        assert PAPER_PLATFORM.bandwidth_ratio == pytest.approx(bandwidth_ratio())

    def test_pcie_slower_than_cpu_dram(self):
        assert DEFAULT_PCIE < INTEL_I7_6900.dram_read_bandwidth

    def test_cache_lookup_unknown_level(self):
        with pytest.raises(KeyError):
            INTEL_I7_6900.cache_named("L4")


class TestGPUOccupancy:

    def test_full_occupancy_small_blocks(self):
        assert NVIDIA_V100.occupancy(128, shared_bytes_per_block=4096, registers_per_thread=32) == 1.0

    def test_occupancy_limited_by_shared_memory(self):
        occ = NVIDIA_V100.occupancy(128, shared_bytes_per_block=48 * 1024, registers_per_thread=32)
        assert occ < 1.0

    def test_occupancy_limited_by_registers(self):
        occ = NVIDIA_V100.occupancy(1024, shared_bytes_per_block=0, registers_per_thread=128)
        assert occ < 1.0

    def test_occupancy_rejects_bad_block(self):
        with pytest.raises(ValueError):
            NVIDIA_V100.occupancy_limit_blocks(0)

    def test_blocks_per_sm_decrease_with_block_size(self):
        small = NVIDIA_V100.occupancy_limit_blocks(128)
        large = NVIDIA_V100.occupancy_limit_blocks(1024)
        assert small > large


class TestSpecValidation:
    def test_cpu_requires_cores(self):
        with pytest.raises(ValueError):
            CPUSpec(
                model="bad", cores=0, threads_per_core=1, frequency_hz=1e9, simd_width_bits=128,
                dram_capacity_bytes=GB, dram_read_bandwidth=1e9, dram_write_bandwidth=1e9,
                caches=(CacheLevelSpec("L1", 32 * KB),),
            )

    def test_gpu_requires_warp_multiple(self):
        with pytest.raises(ValueError):
            GPUSpec(
                model="bad", num_sms=1, cores_per_sm=64, warp_size=32, max_threads_per_sm=100,
                max_warps_per_sm=4, max_thread_blocks_per_sm=4, registers_per_sm=1024,
                shared_memory_per_sm_bytes=KB, frequency_hz=1e9, global_capacity_bytes=GB,
                global_read_bandwidth=1e9, global_write_bandwidth=1e9,
                global_access_granularity_bytes=128, l2_capacity_bytes=MB, l2_bandwidth=1e10,
                l1_capacity_per_sm_bytes=KB, l1_bandwidth=1e11,
            )


class TestPricing:
    def test_table3_rent_ratio_about_six(self):
        ratio = AWS_P3_2XLARGE.rent_usd_per_hour / AWS_R5_2XLARGE.rent_usd_per_hour
        assert 5.5 <= ratio <= 6.5

    def test_purchase_mid_point(self):
        assert AWS_R5_2XLARGE.purchase_usd_mid == pytest.approx(3500.0)
