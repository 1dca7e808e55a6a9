"""Tests for the hash-join and radix-sort operators (Sections 4.3 and 4.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ops.cpu import (
    cpu_hash_join_build,
    cpu_hash_join_probe,
    cpu_radix_partition,
    cpu_radix_sort,
)
from repro.ops.cpu.radix_partition import radix_of
from repro.ops.gpu import (
    gpu_hash_join_build,
    gpu_hash_join_probe,
    gpu_radix_partition,
    gpu_radix_sort,
)
from repro.ops.cpu.radix_sort import _pass_plan


@pytest.fixture(scope="module")
def join_data():
    rng = np.random.default_rng(21)
    build_keys = np.arange(4096)
    build_values = rng.integers(0, 1000, 4096)
    probe_keys = rng.integers(0, 8192, 1 << 15)  # ~half the probes match
    probe_values = rng.integers(0, 1000, 1 << 15)
    matched = probe_keys < 4096
    expected = float(np.sum(probe_values[matched] + build_values[probe_keys[matched]]))
    return build_keys, build_values, probe_keys, probe_values, expected


class TestHashJoin:
    def test_cpu_build_stats(self, join_data):
        build_keys, build_values, *_ = join_data
        table, result = cpu_hash_join_build(build_keys, build_values)
        assert result.stat("build_rows") == len(build_keys)
        assert result.stat("hash_table_bytes") == table.size_bytes

    @pytest.mark.parametrize("variant", ["scalar", "simd", "prefetch"])
    def test_cpu_probe_checksum(self, join_data, variant):
        build_keys, build_values, probe_keys, probe_values, expected = join_data
        table, _ = cpu_hash_join_build(build_keys, build_values)
        result = cpu_hash_join_probe(probe_keys, probe_values, table, variant)
        assert result.value == pytest.approx(expected)
        assert result.stat("match_rate") == pytest.approx(0.5, abs=0.05)

    def test_gpu_probe_checksum(self, join_data):
        build_keys, build_values, probe_keys, probe_values, expected = join_data
        table, _ = gpu_hash_join_build(build_keys, build_values)
        result = gpu_hash_join_probe(probe_keys, probe_values, table)
        assert result.value == pytest.approx(expected)

    def test_unknown_variant(self, join_data):
        build_keys, build_values, probe_keys, probe_values, _ = join_data
        table, _ = cpu_hash_join_build(build_keys, build_values)
        with pytest.raises(ValueError):
            cpu_hash_join_probe(probe_keys, probe_values, table, "radix")

    def test_misaligned_probe_columns(self, join_data):
        build_keys, build_values, *_ = join_data
        table, _ = cpu_hash_join_build(build_keys, build_values)
        with pytest.raises(ValueError):
            cpu_hash_join_probe(np.arange(4), np.arange(5), table)

    def test_simd_probe_is_not_faster_than_scalar(self, join_data):
        """Paper Figure 13: vertical vectorization does not pay off."""
        build_keys, build_values, probe_keys, probe_values, _ = join_data
        table, _ = cpu_hash_join_build(build_keys, build_values)
        scalar = cpu_hash_join_probe(probe_keys, probe_values, table, "scalar")
        simd = cpu_hash_join_probe(probe_keys, probe_values, table, "simd")
        assert simd.seconds >= scalar.seconds

    def test_gpu_probe_slows_down_with_larger_tables(self):
        rng = np.random.default_rng(9)
        probe_keys = rng.integers(0, 1024, 1 << 14)
        probe_values = rng.integers(0, 10, 1 << 14)
        small_table, _ = gpu_hash_join_build(np.arange(1024), np.arange(1024))
        big_table, _ = gpu_hash_join_build(np.arange(1 << 20), np.arange(1 << 20))
        small = gpu_hash_join_probe(probe_keys, probe_values, small_table)
        big = gpu_hash_join_probe(probe_keys, probe_values, big_table)
        assert big.traffic.random_working_set_bytes > small.traffic.random_working_set_bytes


class TestRadixPartition:
    def test_radix_extraction(self):
        keys = np.array([0b1011_0110])
        assert radix_of(keys, 4, 0)[0] == 0b0110
        assert radix_of(keys, 4, 4)[0] == 0b1011

    def test_cpu_partition_orders_by_radix_and_is_stable(self):
        rng = np.random.default_rng(41)
        keys = rng.integers(0, 256, 5000, dtype=np.int32)
        payloads = np.arange(5000, dtype=np.int32)
        output, _, _ = cpu_radix_partition(keys, payloads, radix_bits=4, start_bit=0)
        radix = radix_of(output.keys, 4, 0)
        assert np.all(np.diff(radix) >= 0)
        # Stability: payloads within the same radix keep their input order.
        for value in range(16):
            assert np.all(np.diff(output.payloads[radix == value]) > 0)

    def test_num_partitions_is_two_to_the_radix_bits(self):
        keys = np.arange(64, dtype=np.int32)
        for bits in (1, 3, 6):
            output, hist_result, _ = cpu_radix_partition(keys, radix_bits=bits)
            assert output.partition_offsets.size == 1 << bits == hist_result.value.size

    def test_partition_offsets_match_histogram(self):
        keys = np.arange(64, dtype=np.int32)
        output, hist_result, _ = cpu_radix_partition(keys, radix_bits=3)
        histogram = hist_result.value
        assert histogram.sum() == 64
        assert np.array_equal(output.partition_offsets, np.cumsum(np.concatenate([[0], histogram[:-1]])))

    def test_gpu_partition_matches_cpu(self):
        rng = np.random.default_rng(43)
        keys = rng.integers(0, 1 << 16, 4096, dtype=np.int32)
        cpu_out, _, _ = cpu_radix_partition(keys, radix_bits=6)
        gpu_out, _, _ = gpu_radix_partition(keys, radix_bits=6)
        assert np.array_equal(cpu_out.keys, gpu_out.keys)

    def test_gpu_stable_bit_limit(self):
        keys = np.arange(16, dtype=np.int32)
        with pytest.raises(ValueError):
            gpu_radix_partition(keys, radix_bits=8, stable=True)
        with pytest.raises(ValueError):
            gpu_radix_partition(keys, radix_bits=9, stable=False)

    def test_cpu_shuffle_knee_beyond_eight_bits(self):
        """Figure 14b: the CPU shuffle falls off the plateau past 8 radix bits."""
        rng = np.random.default_rng(47)
        keys = rng.integers(0, 2**31, 1 << 16, dtype=np.int32)
        _, _, shuffle8 = cpu_radix_partition(keys, radix_bits=8)
        _, _, shuffle11 = cpu_radix_partition(keys, radix_bits=11)
        assert shuffle11.seconds > shuffle8.seconds * 1.2


@pytest.fixture(params=["cpu", "gpu-msb", "gpu-lsb"])
def sort(request):
    """Each radix sort: the CPU's and both GPU variants."""
    if request.param == "cpu":
        return cpu_radix_sort
    variant = request.param.removeprefix("gpu-")
    return lambda keys: gpu_radix_sort(keys, variant=variant)


class TestRadixSort:
    def test_pass_plans_match_paper(self):
        assert _pass_plan(32, 8) == [8, 8, 8, 8]
        assert _pass_plan(32, 7) == [6, 6, 6, 7, 7]

    def test_cpu_sort_correctness(self):
        rng = np.random.default_rng(53)
        keys = rng.integers(0, 2**31, 1 << 14, dtype=np.int64)
        payloads = np.arange(1 << 14)
        result = cpu_radix_sort(keys, payloads)
        sorted_keys, sorted_payloads = result.value
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(sorted_keys, keys[order])
        assert np.array_equal(sorted_payloads, payloads[order])

    @pytest.mark.parametrize("variant", ["msb", "lsb"])
    def test_gpu_sort_correctness(self, variant):
        rng = np.random.default_rng(59)
        keys = rng.integers(0, 2**31, 1 << 14, dtype=np.int64)
        result = gpu_radix_sort(keys, variant=variant)
        assert np.array_equal(result.value[0], np.sort(keys))

    def test_msb_uses_fewer_passes_than_lsb(self):
        keys = np.arange(1 << 12)
        msb = gpu_radix_sort(keys, variant="msb")
        lsb = gpu_radix_sort(keys, variant="lsb")
        assert msb.stat("passes") == 4
        assert lsb.stat("passes") == 5
        assert msb.seconds < lsb.seconds

    def test_gpu_sort_much_faster_than_cpu(self):
        # Large enough that the data path, not fixed kernel-launch overhead,
        # dominates the simulated time (Section 4.4's 17x gain).
        keys = np.arange(1 << 20)[::-1].copy()
        cpu = cpu_radix_sort(keys)
        gpu = gpu_radix_sort(keys)
        assert cpu.seconds / gpu.seconds > 8

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            cpu_radix_sort(np.array([-1, 3]))
        with pytest.raises(ValueError):
            gpu_radix_sort(np.array([-1, 3]))

    @pytest.mark.parametrize("keys", [[2**40, 3, 1], [2**32 + 1, 2**32, 5]], ids=["2**40", "2**32"])
    def test_rejects_keys_wider_than_32_bits(self, sort, keys):
        """The passes order only the low 32 bits, so a wider key would come back unsorted."""
        with pytest.raises(ValueError, match="32-bit"):
            sort(np.array(keys, dtype=np.int64))

    def test_rejects_float_keys(self, sort):
        """Radix extraction truncates a float key, so ``[1.7, 1.2]`` would come back as is."""
        with pytest.raises(ValueError, match="integer keys"):
            sort(np.array([1.7, 1.2]))

    @settings(max_examples=15, deadline=None)
    @given(keys=hnp.arrays(np.int64, st.integers(min_value=1, max_value=2000),
                           elements=st.integers(min_value=0, max_value=2**31 - 1)))
    def test_sort_is_a_permutation_and_ordered(self, keys):
        result = cpu_radix_sort(keys)
        sorted_keys, _ = result.value
        assert np.array_equal(sorted_keys, np.sort(keys))
