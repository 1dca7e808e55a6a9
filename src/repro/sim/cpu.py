"""CPU execution simulator.

Converts an operator's :class:`~repro.hardware.counters.TrafficCounter` into
simulated time on a :class:`~repro.hardware.specs.CPUSpec`.  The mechanisms
modelled are the ones the paper uses to explain its CPU results:

* **DRAM streaming bandwidth**, shared by all cores, with separate read and
  write bandwidths and a bonus for non-temporal (streaming) stores that skip
  the read-for-ownership traffic (Figure 10, CPU vs CPU-Opt).
* **SIMD vs scalar compute throughput** -- a projection like the sigmoid of
  Q2 is compute bound without SIMD and bandwidth bound with it.
* **Branch misprediction** -- the selectivity-dependent penalty of the
  branching selection scan (Figure 12, CPU If vs CPU Pred).
* **Cache hierarchy for random access** -- probes into a hash table are
  served by L1/L2/L3/DRAM according to the analytic hit-ratio model, and
  unlike the GPU the CPU cannot fully hide the DRAM latency of irregular
  accesses, so an extra stall factor applies once probes spill out of the
  last-level cache (Figure 13 and the Section 5.3 case study).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cache import AnalyticCacheModel
from repro.hardware.counters import TrafficCounter
from repro.hardware.presets import INTEL_I7_6900
from repro.sim.timing import TimeBreakdown

#: Instructions (scalar micro-ops) retired per core per cycle for the simple
#: arithmetic in these workloads.
_SCALAR_IPC = 2.0

#: Fraction of peak DRAM bandwidth achievable when the access pattern is a
#: stream of independent random cache-line misses.  The paper notes the
#: measured CPU join is slower than the bandwidth-saturating model because of
#: memory stalls; this factor reproduces that gap.
_RANDOM_ACCESS_EFFICIENCY = 0.62

#: Effective penalty per mispredicted branch after overlap with the memory
#: system, in seconds.  The architectural penalty is ~15 cycles, but much of
#: it hides behind outstanding memory traffic in a streaming scan.
_EFFECTIVE_BRANCH_MISS_PENALTY_S = 1.1e-9


@dataclass
class CPUExecution:
    """Result of simulating one CPU operator."""

    time: TimeBreakdown
    traffic: TrafficCounter
    cores_used: int
    used_simd: bool
    label: str = ""

    @property
    def seconds(self) -> float:
        return self.time.total_seconds

    @property
    def milliseconds(self) -> float:
        return self.time.total_ms


class CPUSimulator:
    """Analytic multicore CPU performance simulator."""

    def __init__(self) -> None:
        self.spec = INTEL_I7_6900
        self._levels = [AnalyticCacheModel(c.capacity_bytes, c.line_bytes) for c in self.spec.caches]

    # ------------------------------------------------------------------
    # Bandwidth and compute primitives
    # ------------------------------------------------------------------
    def sequential_read_seconds(self, num_bytes: float) -> float:
        """Time to stream ``num_bytes`` from DRAM across all cores."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.spec.dram_read_bandwidth

    def sequential_write_seconds(self, num_bytes: float, non_temporal: bool = False) -> float:
        """Time to stream ``num_bytes`` of stores to DRAM.

        Regular stores first read the target line into the cache
        (read-for-ownership), effectively moving the data twice; non-temporal
        stores bypass the caches and write combining buffers flush full lines
        directly, recovering that factor.
        """
        if num_bytes <= 0:
            return 0.0
        if non_temporal:
            return num_bytes / self.spec.dram_write_bandwidth
        rfo_read = num_bytes / self.spec.dram_read_bandwidth
        return num_bytes / self.spec.dram_write_bandwidth + rfo_read * 0.5

    def compute_seconds(self, num_ops: float, cores: int | None = None, simd: bool = False) -> float:
        """Time for arithmetic on ``cores`` cores, optionally SIMD-vectorized."""
        if num_ops <= 0:
            return 0.0
        cores = cores or self.spec.cores
        lanes = self.spec.simd_lanes_32bit if simd else 1
        throughput = cores * self.spec.frequency_hz * _SCALAR_IPC * lanes
        return num_ops / throughput

    def branch_miss_seconds(self, num_branches: float, miss_rate: float, cores: int | None = None) -> float:
        """Aggregate branch-misprediction penalty across cores."""
        if num_branches <= 0 or miss_rate <= 0:
            return 0.0
        cores = cores or self.spec.cores
        penalty = max(_EFFECTIVE_BRANCH_MISS_PENALTY_S, self.spec.branch_miss_penalty_ns * 1e-9 * 0.25)
        return num_branches * min(miss_rate, 1.0) * penalty / cores

    def random_access_seconds(
        self,
        num_accesses: float,
        working_set_bytes: float,
        cores: int | None = None,
        random_efficiency: float | None = None,
        dependent: bool = False,
    ) -> tuple[float, str]:
        """Time for random probes into a structure of the given size.

        Follows the Section 4.3 model: if the structure fits in a cache
        level, the probes are served at that level's bandwidth (L1/L2 probes
        are effectively free relative to the DRAM-bound scan; L3 probes run
        at the measured 157 GBps).  Once the structure exceeds the LLC, every
        miss moves a 64-byte line from DRAM and memory stalls keep the CPU
        from reaching peak bandwidth on that traffic.
        """
        if num_accesses <= 0:
            return 0.0, "none"
        line = self.spec.cache_line_bytes
        l1, l2, l3 = self._levels[0], self._levels[1], self._levels[2]
        cores = cores or self.spec.cores
        # Overlap of outstanding cache misses: independent probes (the join
        # microbenchmark) keep several in flight per core; probes on a
        # dependent chain (pipelined multi-join queries) wait for each other,
        # and only SMT threads provide extra overlap.  This is the mechanism
        # behind the Section 5.3 finding that measured CPU query times exceed
        # the bandwidth model while the GPU's do not.
        if dependent:
            overlap = 1.0
            workers = self.spec.total_threads
        else:
            overlap = 4.0
            workers = cores
        if l2.fits(working_set_bytes):
            # Private-cache resident: bandwidth is effectively unlimited
            # compared to DRAM; charge the L2 latency-bound throughput.
            latency_s = self.spec.caches[1].latency_ns * 1e-9
            return num_accesses * latency_s / (overlap * workers), "L2"
        if l3.fits(working_set_bytes):
            l2_hit = l2.hit_ratio(working_set_bytes)
            misses = (1.0 - l2_hit) * num_accesses
            bytes_from_l3 = misses * line
            bandwidth = self.spec.caches[2].bandwidth_bytes_per_s or self.spec.dram_read_bandwidth * 3
            bandwidth_bound = bytes_from_l3 / bandwidth
            latency_s = self.spec.caches[2].latency_ns * 1e-9
            latency_bound = misses * latency_s / (overlap * workers)
            return max(bandwidth_bound, latency_bound), "L3"
        l3_hit = l3.hit_ratio(working_set_bytes)
        bytes_from_dram = (1.0 - l3_hit) * num_accesses * line
        efficiency = random_efficiency if random_efficiency is not None else _RANDOM_ACCESS_EFFICIENCY
        effective_bw = self.spec.dram_read_bandwidth * efficiency
        bandwidth_bound = bytes_from_dram / effective_bw
        # Latency/occupancy bound: each core can keep a limited number of
        # misses in flight.
        cores = cores or self.spec.cores
        miss_rate_per_core = self.spec.max_outstanding_misses / (self.spec.dram_latency_ns * 1e-9)
        latency_bound = (1.0 - l3_hit) * num_accesses / (miss_rate_per_core * cores)
        return max(bandwidth_bound, latency_bound), "DRAM"

    def atomic_seconds(self, num_atomics: float, num_targets: float = 1.0) -> float:
        """Atomic updates to shared counters (coarse contention model)."""
        if num_atomics <= 0:
            return 0.0
        # A contended atomic costs roughly a cache-line round trip between
        # cores (~20 ns); independent targets scale with core count.
        parallelism = max(1.0, min(num_targets, self.spec.cores))
        return num_atomics * 20e-9 / parallelism

    # ------------------------------------------------------------------
    # Operator-level simulation
    # ------------------------------------------------------------------
    def run(
        self,
        traffic: TrafficCounter,
        cores: int | None = None,
        use_simd: bool = False,
        non_temporal_writes: bool = False,
        random_efficiency: float | None = None,
        dependent_random: bool = False,
        label: str = "",
    ) -> CPUExecution:
        """Simulate one operator described by ``traffic``.

        Streaming, random, and compute phases overlap up to the point allowed
        by the hardware: the operator is bound by the slowest of (a) the DRAM
        streaming traffic, (b) the compute throughput, and (c) the
        cache-resident probe traffic; DRAM-bound random traffic and branch
        penalties add on top because they stall the pipeline.
        """
        cores = cores or self.spec.cores

        # A single core cannot saturate the memory bus; streaming bandwidth
        # scales with the number of active cores up to the DRAM limit.
        stream_share = min(
            1.0, cores * self.spec.per_core_stream_bandwidth / self.spec.dram_read_bandwidth
        )
        read_s = self.sequential_read_seconds(traffic.sequential_read_bytes) / stream_share
        write_s = (
            self.sequential_write_seconds(traffic.sequential_write_bytes, non_temporal_writes)
            / stream_share
        )
        compute_s = self.compute_seconds(traffic.compute_ops, cores, use_simd)
        random_s, serviced_by = self.random_access_seconds(
            traffic.random_accesses,
            traffic.random_working_set_bytes,
            cores,
            random_efficiency=random_efficiency,
            dependent=dependent_random,
        )
        branch_s = self.branch_miss_seconds(
            traffic.data_dependent_branches, traffic.branch_miss_rate, cores
        )
        atomic_s = self.atomic_seconds(traffic.atomic_updates, traffic.atomic_targets)
        shared_s = 0.0
        if traffic.shared_bytes > 0:
            # L1-resident buffer traffic (the CPU analogue of shared memory);
            # cheap but not free.
            shared_s = traffic.shared_bytes / (self.spec.dram_read_bandwidth * 8)

        streaming_s = read_s + write_s
        if serviced_by == "DRAM" or dependent_random:
            # DRAM-bound probe misses share the memory bus with the scan, and
            # dependent probe chains stall the pipeline: both add to the
            # streaming time instead of hiding behind it.
            datapath_s = streaming_s + random_s
            datapath_s = max(datapath_s, compute_s, shared_s)
        else:
            datapath_s = max(streaming_s, random_s, compute_s, shared_s)

        time = TimeBreakdown()
        time.add("datapath", datapath_s)
        time.add("branches", branch_s)
        time.add("atomics", atomic_s)

        return CPUExecution(
            time=time,
            traffic=traffic,
            cores_used=cores,
            used_simd=use_simd,
            label=label,
        )
