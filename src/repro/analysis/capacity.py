"""Multi-GPU capacity planning and data-placement advice (Section 5.5).

The paper's closing discussion argues that GPU-resident execution is the
right design *when the working set fits in GPU memory*, that a server can
aggregate several GPUs' worth of HBM, and that the hybrid/distributed case
is open future work.  This module provides the capacity arithmetic behind
that argument:

* :func:`gpus_needed` -- how many GPUs a working set requires.
* :func:`placement_advice` -- for a given database size, decide between
  GPU-resident execution (fits on the available GPUs), CPU execution, or the
  coprocessor fallback, with the expected speedup from the models.
* :class:`MultiGPUConfig` -- aggregate capacity/bandwidth of a multi-GPU
  server and the scaling-efficiency model used to project speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.presets import DEFAULT_PCIE, INTEL_I7_6900, NVIDIA_V100
from repro.hardware.specs import CPUSpec, GPUSpec


@dataclass(frozen=True)
class MultiGPUConfig:
    """A server with one CPU and ``num_gpus`` identical GPUs."""

    num_gpus: int
    gpu: GPUSpec = NVIDIA_V100
    cpu: CPUSpec = INTEL_I7_6900
    #: Fraction of linear scaling retained per added GPU (cross-GPU exchange
    #: and skew cost some efficiency; 1.0 = perfectly linear).
    scaling_efficiency: float = 0.92
    #: Fraction of each GPU's memory available for data (the rest holds hash
    #: tables and intermediates).
    usable_memory_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("a multi-GPU configuration needs at least one GPU")
        if not 0.0 < self.scaling_efficiency <= 1.0:
            raise ValueError("scaling efficiency must be in (0, 1]")
        if not 0.0 < self.usable_memory_fraction <= 1.0:
            raise ValueError("usable memory fraction must be in (0, 1]")

    @property
    def total_capacity_bytes(self) -> float:
        """Usable HBM capacity across all GPUs."""
        return self.num_gpus * self.gpu.global_capacity_bytes * self.usable_memory_fraction

    @property
    def aggregate_bandwidth(self) -> float:
        """Aggregate HBM bandwidth with the scaling-efficiency discount."""
        if self.num_gpus == 1:
            return self.gpu.global_read_bandwidth
        effective_gpus = 1.0 + (self.num_gpus - 1) * self.scaling_efficiency
        return effective_gpus * self.gpu.global_read_bandwidth

    def fits(self, working_set_bytes: float) -> bool:
        """Whether a working set fits across the configured GPUs."""
        return working_set_bytes <= self.total_capacity_bytes

    def speedup_over_cpu(self) -> float:
        """Expected scan-bound speedup over the single CPU."""
        return self.aggregate_bandwidth / self.cpu.dram_read_bandwidth


def gpus_needed(
    working_set_bytes: float,
    gpu: GPUSpec = NVIDIA_V100,
    usable_memory_fraction: float = 0.8,
) -> int:
    """Number of GPUs required to hold a working set in HBM."""
    if working_set_bytes < 0:
        raise ValueError("working set must be non-negative")
    per_gpu = gpu.global_capacity_bytes * usable_memory_fraction
    if working_set_bytes == 0:
        return 1
    return int(-(-working_set_bytes // per_gpu))


@dataclass(frozen=True)
class PlacementAdvice:
    """Outcome of the placement decision for one working set."""

    strategy: str
    gpus_required: int
    expected_speedup_over_cpu: float
    reason: str


def placement_advice(
    working_set_bytes: float,
    available_gpus: int = 1,
    gpu: GPUSpec = NVIDIA_V100,
    cpu: CPUSpec = INTEL_I7_6900,
    pcie_bandwidth: float = DEFAULT_PCIE,
    full_query_gain_over_bandwidth: float = 1.5,
) -> PlacementAdvice:
    """Decide how to execute a workload of the given working-set size.

    Mirrors the paper's guidance: GPU-resident when the data fits (expected
    gain ≈ 1.5x the bandwidth ratio for full queries, Section 5.5), plain CPU
    execution otherwise -- because shipping data over PCIe per query (the
    coprocessor model) is slower than the CPU's own memory bus.
    """
    if working_set_bytes < 0:
        raise ValueError("working set must be non-negative")
    if available_gpus <= 0:
        raise ValueError("available_gpus must be positive")

    required = gpus_needed(working_set_bytes, gpu)
    ratio = gpu.global_read_bandwidth / cpu.dram_read_bandwidth
    if required <= available_gpus:
        config = MultiGPUConfig(num_gpus=max(required, 1), gpu=gpu, cpu=cpu)
        speedup = config.speedup_over_cpu() * full_query_gain_over_bandwidth
        return PlacementAdvice(
            strategy="gpu-resident",
            gpus_required=required,
            expected_speedup_over_cpu=speedup,
            reason=(
                f"working set fits on {required} GPU(s); GPU-resident execution gains about "
                f"{full_query_gain_over_bandwidth:.1f}x the bandwidth ratio ({ratio:.1f}x) on full queries"
            ),
        )
    # Does not fit: the coprocessor path is bounded by PCIe, which is slower
    # than just scanning from CPU DRAM, so recommend CPU execution.
    pcie_penalty = cpu.dram_read_bandwidth / pcie_bandwidth
    return PlacementAdvice(
        strategy="cpu",
        gpus_required=required,
        expected_speedup_over_cpu=1.0,
        reason=(
            f"working set needs {required} GPUs but only {available_gpus} available; "
            f"shipping data over PCIe per query would be ~{pcie_penalty:.1f}x slower than the CPU's own scan"
        ),
    )
