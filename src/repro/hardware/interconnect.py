"""PCIe interconnect model.

The coprocessor experiments (Section 3.1, Figure 3) hinge on one fact: PCIe
bandwidth (12.8 GBps measured) is lower than both CPU DRAM bandwidth
(~54 GBps) and GPU HBM bandwidth (~880 GBps), so a query that must ship its
input over PCIe is lower-bounded by the transfer time even with perfect
overlap of transfer and execution.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PCIeLink:
    """A host <-> device PCIe link.

    Attributes:
        bandwidth_bytes_per_s: Sustained transfer bandwidth in one direction.
        latency_s: Fixed per-transfer latency (kernel-launch / DMA setup).
    """

    bandwidth_bytes_per_s: float = 12.8e9
    latency_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("PCIe bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("PCIe latency must be non-negative")

    def transfer_seconds(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` in one direction."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s

    def overlapped_with_kernel(self, transfer_bytes: float, kernel_seconds: float) -> float:
        """Runtime when the transfer is perfectly pipelined with execution.

        This is the best case the coprocessor model can achieve (the paper's
        lower bound ``16 L / B_p`` for SSB Q1.1): the slower of the transfer
        and the kernel dominates.
        """
        if kernel_seconds < 0:
            raise ValueError("kernel time must be non-negative")
        return max(self.transfer_seconds(transfer_bytes), kernel_seconds)
