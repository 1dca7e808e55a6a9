"""GPU execution simulator.

The simulator converts an operator's :class:`~repro.hardware.counters.
TrafficCounter` plus a kernel launch configuration into simulated time on a
:class:`~repro.hardware.specs.GPUSpec`.  It models the effects the paper
identifies as the ones that matter for analytic workloads:

* **Streaming bandwidth** -- coalesced loads/stores run at global-memory
  bandwidth, degraded by a load-efficiency factor when the kernel cannot use
  vectorized (128-bit) accesses (Figure 9: items-per-thread sweep).
* **Random access and caching** -- random probes are served by the L1/L2
  hierarchy following the analytic hit-ratio model of Section 4.3; every
  miss moves a full 128-byte transaction.
* **Atomic contention** -- atomics to a single global counter serialize; the
  tile-based model reduces their count by a factor of the tile size
  (Section 3.2/3.3).
* **Synchronization and occupancy** -- block-wide barriers cost more for
  larger thread blocks, and very large blocks reduce the number of
  independent blocks per SM (the right-hand side of Figure 9).
* **Latency hiding** -- as long as occupancy is above a small threshold the
  GPU hides memory latency entirely, which is why full-query gains exceed
  the bandwidth ratio (Section 5.3); the simulator therefore only charges
  latency when occupancy is too low to cover it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cache import AnalyticCacheModel
from repro.hardware.counters import TrafficCounter
from repro.hardware.presets import NVIDIA_V100
from repro.sim.timing import TimeBreakdown

#: Occupancy (fraction of max resident warps) needed to fully hide global
#: memory latency.  Below this the simulator charges a latency penalty.
_LATENCY_HIDING_OCCUPANCY = 0.25

#: Cost of one block-wide barrier per resident warp, in seconds.  Barriers
#: get more expensive with more warps per block because every warp must
#: arrive before any may leave.
_BARRIER_COST_PER_WARP_S = 12e-9

#: Fixed kernel launch overhead (driver + scheduling), seconds.
_KERNEL_LAUNCH_OVERHEAD_S = 8e-6

#: Load/store efficiency by items-per-thread: 4 items allow full 128-bit
#: vectorized accesses, 2 items waste half the vector width, 1 item gets no
#: vectorization benefit (Section 3.3, Figure 9 discussion).
_LOAD_EFFICIENCY = {1: 0.72, 2: 0.86, 4: 1.0, 8: 1.0, 16: 1.0}


@dataclass(frozen=True)
class KernelLaunch:
    """Launch configuration of a (possibly fused) tile-based kernel."""

    threads_per_block: int = 128
    items_per_thread: int = 4
    shared_bytes_per_block: int = 0
    registers_per_thread: int = 32
    barriers_per_tile: int = 2
    grid_tiles: int = 0
    label: str = "kernel"

    @property
    def tile_size(self) -> int:
        """Number of items one thread block processes per tile."""
        return self.threads_per_block * self.items_per_thread

    def load_efficiency(self) -> float:
        """Fraction of peak bandwidth achievable with this configuration."""
        if self.items_per_thread in _LOAD_EFFICIENCY:
            return _LOAD_EFFICIENCY[self.items_per_thread]
        if self.items_per_thread > 4:
            return 1.0
        return 0.72


@dataclass
class GPUExecution:
    """Result of simulating one kernel (or a sequence of fused steps)."""

    time: TimeBreakdown
    traffic: TrafficCounter
    launch: KernelLaunch
    occupancy: float
    label: str = ""

    @property
    def seconds(self) -> float:
        return self.time.total_seconds

    @property
    def milliseconds(self) -> float:
        return self.time.total_ms


class GPUSimulator:
    """Analytic GPU performance simulator for tile-based kernels."""

    def __init__(self) -> None:
        self.spec = NVIDIA_V100
        granularity = NVIDIA_V100.global_access_granularity_bytes
        self._l1 = AnalyticCacheModel(NVIDIA_V100.l1_capacity_per_sm_bytes, granularity)
        self._l2 = AnalyticCacheModel(NVIDIA_V100.l2_capacity_bytes, granularity)

    # ------------------------------------------------------------------
    # Bandwidth primitives
    # ------------------------------------------------------------------
    def sequential_read_seconds(self, num_bytes: float, efficiency: float = 1.0) -> float:
        """Time to stream ``num_bytes`` of coalesced reads from global memory."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / (self.spec.global_read_bandwidth * max(efficiency, 1e-6))

    def sequential_write_seconds(self, num_bytes: float, efficiency: float = 1.0) -> float:
        """Time to stream ``num_bytes`` of coalesced writes to global memory."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / (self.spec.global_write_bandwidth * max(efficiency, 1e-6))

    def random_access_seconds(self, num_accesses: float, working_set_bytes: float) -> tuple[float, str]:
        """Time for random probes into a structure of the given size.

        Implements the two-case model of Section 4.3: when the structure fits
        in the L2 cache the probes are served at L2 bandwidth (after the L1
        filters whatever fits per SM); otherwise each L2 miss moves one full
        128-byte transaction from global memory.  Returns ``(seconds,
        serviced_by)`` where ``serviced_by`` names the bottleneck level.
        """
        if num_accesses <= 0:
            return 0.0, "none"
        # Transactions that reach global memory move a full 128-byte line;
        # accesses served by the L2 move a 64-byte L2 line.
        dram_line = self.spec.global_access_granularity_bytes
        l2_line = dram_line // 2
        l1_hit = self._l1.hit_ratio(working_set_bytes)
        if self._l2.fits(working_set_bytes):
            bytes_from_l2 = (1.0 - l1_hit) * num_accesses * l2_line
            return bytes_from_l2 / self.spec.l2_bandwidth, "L2"
        l2_hit = self._l2.hit_ratio(working_set_bytes)
        bytes_from_dram = (1.0 - l2_hit) * num_accesses * dram_line
        bytes_from_l2 = l2_hit * num_accesses * l2_line
        seconds = bytes_from_dram / self.spec.global_read_bandwidth + bytes_from_l2 / self.spec.l2_bandwidth
        return seconds, "global"

    def atomic_seconds(self, num_atomics: float, num_targets: float = 1.0) -> float:
        """Time for atomics; contention on few targets serializes them."""
        if num_atomics <= 0:
            return 0.0
        # Atomics to distinct targets proceed in parallel across L2 banks;
        # contention on a single target serializes at the atomic throughput.
        parallelism = max(1.0, min(num_targets, self.spec.num_sms))
        return num_atomics / (self.spec.atomic_throughput_ops_per_s * parallelism)

    def compute_seconds(self, num_ops: float) -> float:
        """Time for scalar arithmetic across the whole device."""
        if num_ops <= 0:
            return 0.0
        throughput = self.spec.total_cores * self.spec.frequency_hz
        return num_ops / throughput

    def shared_memory_seconds(self, num_bytes: float) -> float:
        """Time for shared-memory traffic (order of magnitude above global)."""
        if num_bytes <= 0:
            return 0.0
        bandwidth = self.spec.shared_memory_bandwidth or (self.spec.global_read_bandwidth * 10)
        return num_bytes / bandwidth

    # ------------------------------------------------------------------
    # Kernel-level simulation
    # ------------------------------------------------------------------
    def occupancy(self, launch: KernelLaunch) -> float:
        """Achieved occupancy for a launch configuration."""
        return self.spec.occupancy(
            launch.threads_per_block,
            launch.shared_bytes_per_block,
            launch.registers_per_thread,
        )

    def sync_overhead_seconds(self, launch: KernelLaunch, num_tiles: float) -> float:
        """Cost of block-wide barriers over the whole grid.

        Larger blocks synchronize more warps per barrier; fewer resident
        blocks per SM leave less independent work to overlap the barrier
        latency with, which is what makes 512/1024-thread blocks slower in
        Figure 9 even though they issue fewer atomics.
        """
        if num_tiles <= 0 or launch.barriers_per_tile <= 0:
            return 0.0
        warps_per_block = -(-launch.threads_per_block // self.spec.warp_size)
        resident_blocks = max(
            1,
            self.spec.occupancy_limit_blocks(
                launch.threads_per_block,
                launch.shared_bytes_per_block,
                launch.registers_per_thread,
            ),
        )
        # Barrier cost per tile grows with the number of warps that must
        # rendezvous; overlap across resident blocks and SMs divides it down.
        per_tile = launch.barriers_per_tile * warps_per_block * _BARRIER_COST_PER_WARP_S
        overlap = self.spec.num_sms * resident_blocks
        return num_tiles * per_tile / overlap

    def latency_penalty_seconds(self, launch: KernelLaunch, num_tiles: float) -> float:
        """Extra time charged when occupancy is too low to hide latency."""
        occ = self.occupancy(launch)
        if occ >= _LATENCY_HIDING_OCCUPANCY or num_tiles <= 0:
            return 0.0
        shortfall = (_LATENCY_HIDING_OCCUPANCY - occ) / _LATENCY_HIDING_OCCUPANCY
        per_tile = self.spec.global_latency_ns * 1e-9
        return shortfall * num_tiles * per_tile / self.spec.num_sms

    def run_kernel(
        self,
        traffic: TrafficCounter,
        launch: KernelLaunch | None = None,
        label: str = "",
    ) -> GPUExecution:
        """Simulate one kernel described by ``traffic`` under ``launch``.

        The streaming, random-access, and compute components overlap (a
        bandwidth-bound kernel is limited by the slowest of them); atomics,
        barriers, and the launch overhead are charged on top because they
        serialize against the data path.
        """
        launch = launch or KernelLaunch(label=label or "kernel")
        efficiency = launch.load_efficiency()

        read_s = self.sequential_read_seconds(traffic.sequential_read_bytes, efficiency)
        write_s = self.sequential_write_seconds(traffic.sequential_write_bytes, efficiency)
        random_s, serviced_by = self.random_access_seconds(
            traffic.random_accesses, traffic.random_working_set_bytes
        )
        compute_s = self.compute_seconds(traffic.compute_ops)
        shared_s = self.shared_memory_seconds(traffic.shared_bytes)

        streaming_s = read_s + write_s
        if serviced_by == "global":
            # Probe misses share the global-memory bus with the streaming
            # traffic, so the two add up (Section 4.3, large hash tables).
            datapath_s = streaming_s + random_s
            datapath_s = max(datapath_s, compute_s, shared_s)
        else:
            # Cache-resident probes run on the L2/shared path concurrently
            # with streaming traffic; the slower of the two dominates.
            datapath_s = max(streaming_s, random_s, compute_s, shared_s)

        num_tiles = launch.grid_tiles
        if num_tiles <= 0 and launch.tile_size > 0:
            items = traffic.sequential_read_bytes / 4.0
            num_tiles = items / launch.tile_size if items > 0 else 0.0

        atomic_s = self.atomic_seconds(traffic.atomic_updates, traffic.atomic_targets)
        sync_s = self.sync_overhead_seconds(launch, num_tiles)
        latency_s = self.latency_penalty_seconds(launch, num_tiles)

        time = TimeBreakdown()
        time.add("datapath", datapath_s)
        time.add("atomics", atomic_s)
        time.add("sync", sync_s)
        time.add("latency", latency_s)
        time.add("launch", _KERNEL_LAUNCH_OVERHEAD_S)

        return GPUExecution(
            time=time,
            traffic=traffic,
            launch=launch,
            occupancy=self.occupancy(launch),
            label=label or launch.label,
        )

    def run_kernels(self, executions: list[GPUExecution]) -> TimeBreakdown:
        """Total time of a sequence of dependent kernels (no overlap)."""
        total = TimeBreakdown()
        for index, execution in enumerate(executions):
            total.merge(execution.time, prefix=f"k{index}.")
        return total
