"""GPU-as-coprocessor engine (Section 3.1).

Data resides in CPU memory; for every query the needed fact columns (and the
dimension tables) are shipped to the GPU over PCIe, the same fused Crystal
kernel as the standalone GPU engine runs on the device, and the (small)
result comes back.  Even with perfect overlap of transfer and execution the
query cannot run faster than the PCIe transfer of its input columns -- and
because PCIe bandwidth is below CPU DRAM bandwidth, the coprocessor loses to
a good CPU implementation on every SSB query (Figure 3).
"""

from __future__ import annotations

from repro.engine.gpu_engine import GPUStandaloneEngine
from repro.engine.plan import QueryProfile
from repro.hardware.counters import TrafficCounter
from repro.hardware.interconnect import PCIeLink
from repro.hardware.presets import DEFAULT_PCIE
from repro.sim.timing import TimeBreakdown
from repro.ssb.queries import SSBQuery
from repro.storage import Database


class CoprocessorEngine:
    """GPU coprocessor: ship columns over PCIe for every query."""

    name = "gpu-coprocessor"

    def __init__(self, db: Database) -> None:
        self.db = db
        self._gpu = GPUStandaloneEngine(db)
        self.pcie = PCIeLink(bandwidth_bytes_per_s=DEFAULT_PCIE)

    # ------------------------------------------------------------------
    @staticmethod
    def transfer_bytes(profile: QueryProfile) -> float:
        """Bytes that must cross PCIe: the distinct fact columns plus dimensions.

        Derived from the profile (not the loaded database) so the same
        calculation works for profiles rescaled to the paper's data sizes.
        """
        seen: set[str] = set()
        total = 0.0
        for access in profile.column_accesses:
            if access.column in seen:
                continue
            seen.add(access.column)
            total += access.column_bytes
        for stage in profile.joins:
            total += stage.build_scan_bytes
        return total

    # ------------------------------------------------------------------
    def simulate(self, query: SSBQuery, profile: QueryProfile) -> TimeBreakdown:
        """Simulated coprocessor runtime for an already-collected profile."""
        kernel_time = TimeBreakdown()
        kernel_time.merge(self._gpu.build_time(profile))
        kernel_time.merge(self._gpu.probe_time(profile))

        input_bytes = self.transfer_bytes(profile)
        result_bytes = float(profile.num_groups) * profile.output_row_bytes
        overlapped_s = self.pcie.overlapped_with_kernel(input_bytes, kernel_time.total_seconds)
        result_s = self.pcie.transfer_seconds(result_bytes)

        time = TimeBreakdown()
        time.add("pcie_or_kernel_overlapped", overlapped_s)
        time.add("result_transfer", result_s)
        return time

    def traffic(self, profile: QueryProfile) -> TrafficCounter:
        """Bytes over PCIe: the input columns to the device, the result back."""
        result_bytes = float(profile.num_groups) * profile.output_row_bytes
        return TrafficCounter(pcie_bytes=self.transfer_bytes(profile) + result_bytes)
