"""Device specification dataclasses.

These capture exactly the hardware parameters the paper's cost models use
(Table 2 plus the memory-transaction granularities discussed in Section 4.3):
capacities, bandwidths, cache line sizes, and the processor geometry needed
by the execution simulators (cores, SMs, warps, registers, shared memory).

All bandwidths are stored in **bytes per second** and all capacities in
**bytes** so that the arithmetic in the simulators never has to guess units.
Helper constructors accept the more natural GB/s / KB / MB / GB units.
"""

from __future__ import annotations

from dataclasses import dataclass

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

GBPS = 1e9  # the paper quotes decimal GB per second
TBPS = 1e12


@dataclass(frozen=True)
class CacheLevelSpec:
    """One level of an on-chip cache hierarchy.

    Attributes:
        name: Human-readable level name, e.g. ``"L2"``.
        capacity_bytes: Total usable capacity of the level in bytes.  For
            per-core caches this is the *per-core* capacity; the hierarchy
            object knows whether a level is shared.
        line_bytes: Cache line (transaction) size in bytes.
        bandwidth_bytes_per_s: Sustained bandwidth of the level.  ``None``
            means "not a bandwidth bottleneck for our models" (the paper only
            quotes bandwidths for the levels it needs: GPU L1/L2 and CPU L3).
        latency_ns: Load-to-use latency of the level in nanoseconds.
        shared: True when the level is shared by all cores/SMs (CPU L3,
            GPU L2), False when it is private (CPU L1/L2, GPU L1/shared mem).
        associativity: Set associativity used by the LRU cache simulator.
    """

    name: str
    capacity_bytes: int
    line_bytes: int = 64
    bandwidth_bytes_per_s: float | None = None
    latency_ns: float = 1.0
    shared: bool = False
    associativity: int = 8

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"cache {self.name}: capacity must be positive")
        if self.line_bytes <= 0:
            raise ValueError(f"cache {self.name}: line size must be positive")
        if self.capacity_bytes % self.line_bytes != 0:
            raise ValueError(
                f"cache {self.name}: capacity {self.capacity_bytes} is not a "
                f"multiple of the line size {self.line_bytes}"
            )

    @property
    def num_lines(self) -> int:
        """Number of cache lines the level can hold."""
        return self.capacity_bytes // self.line_bytes


@dataclass(frozen=True)
class CPUSpec:
    """Specification of a multicore CPU.

    The defaults of the optional microarchitectural parameters are the values
    the paper's discussion relies on (Section 4.2 for branch misprediction,
    Section 4.3 and 5.3 for the memory-stall behaviour of irregular access).
    """

    model: str
    cores: int
    threads_per_core: int
    frequency_hz: float
    simd_width_bits: int
    dram_capacity_bytes: int
    dram_read_bandwidth: float
    dram_write_bandwidth: float
    caches: tuple[CacheLevelSpec, ...]
    dram_latency_ns: float = 90.0
    branch_miss_penalty_ns: float = 5.0
    max_outstanding_misses: int = 10
    non_temporal_write_speedup: float = 1.5
    #: Streaming bandwidth a single core can sustain (outstanding-miss bound);
    #: the full DRAM bandwidth is only reachable with enough cores active.
    per_core_stream_bandwidth: float = 14e9

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("CPU must have at least one core")
        if not self.caches:
            raise ValueError("CPU needs at least one cache level")

    @property
    def total_threads(self) -> int:
        """Hardware threads available (cores x SMT)."""
        return self.cores * self.threads_per_core

    @property
    def simd_lanes_32bit(self) -> int:
        """Number of 32-bit lanes a single SIMD register holds."""
        return self.simd_width_bits // 32

    @property
    def cache_line_bytes(self) -> int:
        """Cache line size of the last-level cache (the DRAM transfer unit)."""
        return self.caches[-1].line_bytes

    def cache_named(self, name: str) -> CacheLevelSpec:
        """Return the cache level with the given name (e.g. ``"L2"``)."""
        for level in self.caches:
            if level.name == name:
                return level
        raise KeyError(f"no cache level named {name!r} on {self.model}")


@dataclass(frozen=True)
class GPUSpec:
    """Specification of a discrete GPU.

    Geometry parameters (SMs, warps, registers, shared memory) drive the
    occupancy model of :class:`repro.sim.gpu.GPUSimulator`; the memory
    parameters drive its bandwidth model.
    """

    model: str
    num_sms: int
    cores_per_sm: int
    warp_size: int
    max_threads_per_sm: int
    max_warps_per_sm: int
    max_thread_blocks_per_sm: int
    registers_per_sm: int
    shared_memory_per_sm_bytes: int
    frequency_hz: float
    global_capacity_bytes: int
    global_read_bandwidth: float
    global_write_bandwidth: float
    global_access_granularity_bytes: int
    l2_capacity_bytes: int
    l2_bandwidth: float
    l1_capacity_per_sm_bytes: int
    l1_bandwidth: float
    shared_memory_bandwidth: float | None = None
    global_latency_ns: float = 400.0
    l2_latency_ns: float = 200.0
    atomic_throughput_ops_per_s: float = 2e9
    pcie_bandwidth: float = 12.8 * GBPS

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("GPU must have at least one SM")
        if self.warp_size <= 0:
            raise ValueError("warp size must be positive")
        if self.max_threads_per_sm % self.warp_size != 0:
            raise ValueError("max threads per SM must be a multiple of the warp size")

    @property
    def total_cores(self) -> int:
        """Total number of scalar cores across all SMs."""
        return self.num_sms * self.cores_per_sm

    def occupancy_limit_blocks(
        self,
        threads_per_block: int,
        shared_bytes_per_block: int = 0,
        registers_per_thread: int = 32,
    ) -> int:
        """Resident thread blocks per SM for a given kernel configuration.

        The limit is the minimum over the thread, warp, block, register, and
        shared-memory constraints -- the standard CUDA occupancy calculation.
        """
        if threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        warps_per_block = -(-threads_per_block // self.warp_size)
        limits = [
            self.max_thread_blocks_per_sm,
            self.max_threads_per_sm // threads_per_block,
            self.max_warps_per_sm // warps_per_block,
        ]
        if registers_per_thread > 0:
            limits.append(self.registers_per_sm // (registers_per_thread * threads_per_block))
        if shared_bytes_per_block > 0:
            limits.append(self.shared_memory_per_sm_bytes // shared_bytes_per_block)
        return max(0, min(int(x) for x in limits))

    def occupancy(
        self,
        threads_per_block: int,
        shared_bytes_per_block: int = 0,
        registers_per_thread: int = 32,
    ) -> float:
        """Fraction of the SM's maximum resident warps that a kernel achieves."""
        blocks = self.occupancy_limit_blocks(
            threads_per_block, shared_bytes_per_block, registers_per_thread
        )
        warps_per_block = -(-threads_per_block // self.warp_size)
        resident_warps = blocks * warps_per_block
        return min(1.0, resident_warps / self.max_warps_per_sm)


@dataclass(frozen=True)
class InstancePricing:
    """Cloud / purchase pricing for a hardware platform (Table 3)."""

    name: str
    rent_usd_per_hour: float
    purchase_usd_low: float
    purchase_usd_high: float
    description: str = ""

    @property
    def purchase_usd_mid(self) -> float:
        """Midpoint of the quoted purchase-cost range."""
        return 0.5 * (self.purchase_usd_low + self.purchase_usd_high)


@dataclass(frozen=True)
class Platform:
    """A CPU+GPU platform pairing used by the workload evaluation."""

    cpu: CPUSpec
    gpu: GPUSpec
    pcie_bandwidth: float
    cpu_pricing: InstancePricing | None = None
    gpu_pricing: InstancePricing | None = None
    notes: str = ""

    @property
    def bandwidth_ratio(self) -> float:
        """GPU global-memory read bandwidth over CPU DRAM read bandwidth."""
        return self.gpu.global_read_bandwidth / self.cpu.dram_read_bandwidth
