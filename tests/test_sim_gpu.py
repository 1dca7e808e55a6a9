"""Tests for the GPU performance simulator."""

import pytest

from repro.hardware.counters import TrafficCounter
from repro.sim.gpu import KernelLaunch


class TestKernelLaunch:
    def test_tile_size(self):
        assert KernelLaunch(threads_per_block=128, items_per_thread=4).tile_size == 512

    def test_load_efficiency_prefers_four_items(self):
        assert KernelLaunch(items_per_thread=4).load_efficiency() == 1.0
        assert KernelLaunch(items_per_thread=2).load_efficiency() < 1.0
        assert KernelLaunch(items_per_thread=1).load_efficiency() < KernelLaunch(items_per_thread=2).load_efficiency()


class TestBandwidthPrimitives:
    def test_sequential_read_time(self, gpu_sim):
        assert gpu_sim.sequential_read_seconds(880e9) == pytest.approx(1.0)

    def test_low_efficiency_slows_reads(self, gpu_sim):
        assert gpu_sim.sequential_read_seconds(1e9, efficiency=0.5) == pytest.approx(
            2 * gpu_sim.sequential_read_seconds(1e9, efficiency=1.0)
        )

    def test_shared_memory_is_an_order_of_magnitude_faster(self, gpu_sim):
        shared = gpu_sim.shared_memory_seconds(1e9)
        global_mem = gpu_sim.sequential_read_seconds(1e9)
        assert shared < global_mem / 5


class TestRandomAccess:
    def test_l1_resident_probes_are_nearly_free(self, gpu_sim):
        seconds, level = gpu_sim.random_access_seconds(1e6, 8 * 1024)
        assert level == "L2"
        assert seconds < 1e-4

    def test_l2_resident_probes_use_l2_bandwidth(self, gpu_sim):
        seconds, level = gpu_sim.random_access_seconds(1e8, 2 * 2**20)
        assert level == "L2"
        assert seconds > 0

    def test_large_tables_go_to_global_memory(self, gpu_sim):
        seconds_small, _ = gpu_sim.random_access_seconds(1e8, 2 * 2**20)
        seconds_large, level = gpu_sim.random_access_seconds(1e8, 512 * 2**20)
        assert level == "global"
        assert seconds_large > seconds_small

    def test_step_increase_at_l2_boundary(self, gpu_sim):
        """The paper's Figure 13 step when the hash table exceeds the 6 MB L2."""
        below, _ = gpu_sim.random_access_seconds(1e8, 5 * 2**20)
        above, _ = gpu_sim.random_access_seconds(1e8, 16 * 2**20)
        assert above > below * 1.5


class TestAtomicsAndSync:
    def test_single_counter_contention_serializes(self, gpu_sim):
        contended = gpu_sim.atomic_seconds(1e7, num_targets=1)
        spread = gpu_sim.atomic_seconds(1e7, num_targets=1000)
        assert contended > spread

    def test_sync_overhead_grows_with_block_size(self, gpu_sim):
        small = gpu_sim.sync_overhead_seconds(
            KernelLaunch(threads_per_block=128, items_per_thread=4, barriers_per_tile=2), 1e5
        )
        large = gpu_sim.sync_overhead_seconds(
            KernelLaunch(threads_per_block=1024, items_per_thread=4, barriers_per_tile=2), 1e5 / 8
        )
        assert large > small

    def test_latency_penalty_only_at_low_occupancy(self, gpu_sim):
        good = KernelLaunch(threads_per_block=128, shared_bytes_per_block=2048)
        # A 256-thread block that monopolizes shared memory leaves a single
        # resident block (8 warps of 64) on the SM: occupancy 0.125.
        bad = KernelLaunch(threads_per_block=256, shared_bytes_per_block=90 * 1024,
                           registers_per_thread=64)
        assert gpu_sim.latency_penalty_seconds(good, 1e5) == 0.0
        assert gpu_sim.occupancy(bad) < 0.25
        assert gpu_sim.latency_penalty_seconds(bad, 1e5) > 0.0


class TestRunKernel:
    def test_bandwidth_bound_kernel(self, gpu_sim):
        traffic = TrafficCounter(sequential_read_bytes=880e9)
        execution = gpu_sim.run_kernel(traffic, KernelLaunch())
        # 880 GB at 880 GBps: one second of data path plus a few percent of
        # barrier overhead.
        assert execution.seconds == pytest.approx(1.0, rel=0.05)

    def test_atomics_add_to_runtime(self, gpu_sim):
        base = gpu_sim.run_kernel(TrafficCounter(sequential_read_bytes=1e9))
        with_atomics = gpu_sim.run_kernel(
            TrafficCounter(sequential_read_bytes=1e9, atomic_updates=1e7, atomic_targets=1)
        )
        assert with_atomics.seconds > base.seconds

    def test_global_probe_traffic_adds(self, gpu_sim):
        base = gpu_sim.run_kernel(TrafficCounter(sequential_read_bytes=8.8e9))
        probes = gpu_sim.run_kernel(
            TrafficCounter(sequential_read_bytes=8.8e9, random_accesses=1e8,
                           random_working_set_bytes=1 << 30)
        )
        assert probes.seconds > base.seconds * 1.5

    def test_cached_probe_traffic_overlaps(self, gpu_sim):
        base = gpu_sim.run_kernel(TrafficCounter(sequential_read_bytes=8.8e9))
        probes = gpu_sim.run_kernel(
            TrafficCounter(sequential_read_bytes=8.8e9, random_accesses=1e6,
                           random_working_set_bytes=64 * 1024)
        )
        assert probes.seconds == pytest.approx(base.seconds, rel=0.05)

    def test_execution_reports_occupancy(self, gpu_sim):
        execution = gpu_sim.run_kernel(TrafficCounter(sequential_read_bytes=1e9),
                                       KernelLaunch(threads_per_block=128))
        assert 0.0 < execution.occupancy <= 1.0

    def test_run_kernels_accumulates(self, gpu_sim):
        k1 = gpu_sim.run_kernel(TrafficCounter(sequential_read_bytes=1e9))
        k2 = gpu_sim.run_kernel(TrafficCounter(sequential_read_bytes=2e9))
        total = gpu_sim.run_kernels([k1, k2])
        assert total.total_seconds == pytest.approx(k1.seconds + k2.seconds)


class TestPaperShapes:
    def test_items_per_thread_four_is_fastest(self, gpu_sim):
        """Figure 9: four items per thread outperforms one and two."""
        times = {}
        for ipt in (1, 2, 4):
            launch = KernelLaunch(threads_per_block=128, items_per_thread=ipt,
                                  shared_bytes_per_block=128 * ipt * 8)
            traffic = TrafficCounter(sequential_read_bytes=2.1e9, sequential_write_bytes=1e9,
                                     atomic_updates=2.1e9 / 4 / launch.tile_size)
            times[ipt] = gpu_sim.run_kernel(traffic, launch).seconds
        assert times[4] < times[2] < times[1]

    def test_tiny_blocks_pay_for_atomics(self, gpu_sim):
        """Figure 9: 32-thread blocks issue 4x the atomics of 128-thread blocks."""
        def run(block):
            launch = KernelLaunch(threads_per_block=block, items_per_thread=4,
                                  shared_bytes_per_block=block * 4 * 8)
            n = 2**29
            traffic = TrafficCounter(sequential_read_bytes=4.0 * n, sequential_write_bytes=2.0 * n,
                                     atomic_updates=n / launch.tile_size)
            return gpu_sim.run_kernel(traffic, launch).seconds

        assert run(32) > run(128)
