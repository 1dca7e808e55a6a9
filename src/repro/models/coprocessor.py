"""Coprocessor-model bounds (Section 3.1).

For a query that scans ``total_bytes`` of column data:

* An efficient CPU engine needs at most one pass over the data, so its
  runtime is upper-bounded by ``total_bytes / B_c``.
* A GPU coprocessor must ship the same bytes over PCIe, so even with
  perfect overlap of transfer and execution its runtime is lower-bounded by
  ``total_bytes / B_p``.

Because PCIe bandwidth is lower than CPU memory bandwidth on every modern
platform, the coprocessor's lower bound exceeds the CPU's upper bound --
the paper's argument that the coprocessor model cannot win against a good
CPU implementation.
"""

from __future__ import annotations

from repro.hardware.interconnect import PCIeLink
from repro.hardware.presets import DEFAULT_PCIE, INTEL_I7_6900
from repro.hardware.specs import CPUSpec
from repro.models.base import ModelPrediction


def cpu_query_upper_bound(total_bytes: float, spec: CPUSpec = INTEL_I7_6900) -> ModelPrediction:
    """Upper bound on an efficient CPU engine's runtime: one pass over the data."""
    if total_bytes < 0:
        raise ValueError("byte count must be non-negative")
    seconds = total_bytes / spec.dram_read_bandwidth
    return ModelPrediction(seconds=seconds, terms={"single_pass_scan": seconds}, combination="sum")


def coprocessor_query_lower_bound(
    total_bytes: float,
    gpu_kernel_seconds: float = 0.0,
    pcie_bandwidth: float = DEFAULT_PCIE,
    result_bytes: float = 0.0,
) -> ModelPrediction:
    """Lower bound on a GPU coprocessor's runtime for the same query.

    With perfect overlap the runtime is the slower of the PCIe transfer and
    the GPU kernel; the (usually tiny) result transfer back is added on top.
    """
    if total_bytes < 0 or result_bytes < 0 or gpu_kernel_seconds < 0:
        raise ValueError("inputs must be non-negative")
    link = PCIeLink(bandwidth_bytes_per_s=pcie_bandwidth)
    transfer_s = link.transfer_seconds(total_bytes)
    bound = max(transfer_s, gpu_kernel_seconds)
    result_s = link.transfer_seconds(result_bytes)
    return ModelPrediction(
        seconds=bound + result_s,
        terms={"overlapped_transfer_or_kernel": bound, "result_transfer": result_s},
        combination="sum",
    )


def coprocessor_vs_cpu_ratio(
    total_bytes: float,
    cpu_spec: CPUSpec = INTEL_I7_6900,
    pcie_bandwidth: float = DEFAULT_PCIE,
) -> float:
    """Ratio of the coprocessor lower bound to the CPU upper bound (>1 means CPU wins)."""
    cpu = cpu_query_upper_bound(total_bytes, cpu_spec)
    gpu = coprocessor_query_lower_bound(total_bytes, pcie_bandwidth=pcie_bandwidth)
    if cpu.seconds == 0:
        return float("inf")
    return gpu.seconds / cpu.seconds
