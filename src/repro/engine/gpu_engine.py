"""Standalone GPU engine (Crystal / tile-based execution, working set on GPU).

Execution strategy (Sections 3.3 and 5.2, "Standalone GPU"):

* One small build kernel per dimension hash table.
* One fused probe kernel per query: every thread block loads a tile of the
  fact columns (selectively, for columns only needed by surviving rows),
  performs the chained hash-table probes -- served by the L2 when the table
  fits, by global memory otherwise -- and updates the grouped aggregate with
  per-block atomics.
* Warp scheduling hides the latency of the probe accesses, so the kernel is
  bound purely by the memory traffic: the streaming component and the
  cache-resident probe traffic overlap, and only probe misses to global
  memory add to the bus time (the Section 5.3 model).
"""

from __future__ import annotations

from repro.engine.plan import QueryProfile
from repro.hardware.counters import TrafficCounter
from repro.sim.gpu import GPUSimulator, KernelLaunch
from repro.sim.timing import TimeBreakdown
from repro.ssb.queries import SSBQuery
from repro.storage import Database

#: Launch configuration the paper settles on for all SSB kernels: 256-thread
#: blocks with 8 items per thread (tile of 2048 entries).
SSB_LAUNCH = KernelLaunch(threads_per_block=256, items_per_thread=8, label="ssb-fused-probe")


class GPUStandaloneEngine:
    """Tile-based GPU query engine with the working set resident in HBM."""

    name = "standalone-gpu"

    def __init__(self, db: Database) -> None:
        self.db = db
        self.simulator = GPUSimulator()

    # ------------------------------------------------------------------
    def build_time(self, profile: QueryProfile) -> TimeBreakdown:
        """Time of the per-dimension hash-table build kernels."""
        time = TimeBreakdown()
        for stage in profile.joins:
            traffic = TrafficCounter(
                sequential_read_bytes=stage.build_scan_bytes,
                sequential_write_bytes=stage.hash_table_bytes,
                compute_ops=float(stage.dimension_rows) * 3.0,
            )
            execution = self.simulator.run_kernel(
                traffic, KernelLaunch(label=f"build-{stage.dimension}")
            )
            time.merge(execution.time, prefix=f"build.{stage.dimension}.")
        return time

    def probe_time(self, profile: QueryProfile) -> TimeBreakdown:
        """Time of the single fused probe kernel."""
        spec = self.simulator.spec
        line = spec.global_access_granularity_bytes

        streaming_read = profile.selective_column_bytes(line)
        streaming_write = float(profile.num_groups) * profile.output_row_bytes
        read_s = self.simulator.sequential_read_seconds(streaming_read, SSB_LAUNCH.load_efficiency())
        write_s = self.simulator.sequential_write_seconds(streaming_write)

        # Chained probes: cache-resident probe traffic overlaps with the
        # streaming scan (warps that wait are swapped out); probe misses to
        # global memory share the memory bus and therefore add.
        cached_probe_s = 0.0
        global_probe_s = 0.0
        for stage in profile.joins:
            seconds, serviced_by = self.simulator.random_access_seconds(
                stage.probe_rows, stage.hash_table_bytes
            )
            if serviced_by == "global":
                global_probe_s += seconds
            else:
                cached_probe_s += seconds

        datapath_s = max(read_s + write_s, cached_probe_s) + global_probe_s

        # Grouped-aggregate atomics spread over the group slots.
        atomic_s = self.simulator.atomic_seconds(profile.result_input_rows, profile.num_groups)
        num_tiles = -(-profile.fact_rows // SSB_LAUNCH.tile_size) if profile.fact_rows else 0
        sync_s = self.simulator.sync_overhead_seconds(SSB_LAUNCH, num_tiles)

        time = TimeBreakdown()
        time.add("probe.datapath", datapath_s)
        time.add("probe.atomics", atomic_s)
        time.add("probe.sync", sync_s)
        time.add("probe.launch", 8e-6)
        return time

    # ------------------------------------------------------------------
    def simulate(self, query: SSBQuery, profile: QueryProfile) -> TimeBreakdown:
        """Simulated runtime of ``query`` for an already-collected profile."""
        time = TimeBreakdown()
        time.merge(self.build_time(profile))
        time.merge(self.probe_time(profile))
        return time

    def traffic(self, profile: QueryProfile) -> TrafficCounter:
        """Bytes the fused probe kernel streams: the selected columns in, the groups out."""
        return TrafficCounter(
            sequential_read_bytes=profile.selective_column_bytes(
                self.simulator.spec.global_access_granularity_bytes
            ),
            sequential_write_bytes=float(profile.num_groups) * profile.output_row_bytes,
        )
