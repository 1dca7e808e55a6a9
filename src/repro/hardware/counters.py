"""Memory-traffic counters.

Operators (both the Crystal GPU kernels and the CPU variants) describe the
work they did with a :class:`TrafficCounter`: how many bytes they moved at
each level of the memory hierarchy, how many random (cache-line granular)
accesses they issued, how many atomic updates they performed, and how much
arithmetic they executed.  The device simulators convert a counter into
simulated time; the tests use counters to check that implementations touch
exactly the data the paper's models say they should.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TrafficCounter:
    """Accumulated memory/compute activity of one operator or kernel.

    All byte quantities refer to the *device* memory of whichever processor
    the operator ran on (DRAM for the CPU, global HBM for the GPU) unless the
    field name says otherwise.
    """

    #: Bytes read sequentially (coalesced / streaming) from device memory.
    sequential_read_bytes: float = 0.0
    #: Bytes written sequentially (coalesced / streaming) to device memory.
    sequential_write_bytes: float = 0.0
    #: Number of random accesses (each touches one cache line / transaction).
    random_accesses: float = 0.0
    #: Working-set size (bytes) the random accesses are spread over; the
    #: cache model derives hit ratios from this.
    random_working_set_bytes: float = 0.0
    #: Bytes per random access actually needed by the algorithm (e.g. an
    #: 8-byte hash-table slot); the hardware still moves a full line.
    random_access_bytes: float = 8.0
    #: Bytes staged through shared memory (GPU) or L1-resident buffers (CPU).
    shared_bytes: float = 0.0
    #: Number of atomic read-modify-write operations on globally shared data.
    atomic_updates: float = 0.0
    #: Number of distinct memory locations the atomics target (1 = a single
    #: global counter, i.e. worst-case contention).
    atomic_targets: float = 1.0
    #: Scalar arithmetic operations executed (used for compute-bound checks).
    compute_ops: float = 0.0
    #: Conditional branches whose outcome depends on the data.
    data_dependent_branches: float = 0.0
    #: Fraction of data-dependent branches the branch predictor gets wrong.
    branch_miss_rate: float = 0.0
    #: Bytes moved across PCIe (coprocessor mode only).
    pcie_bytes: float = 0.0
    #: Free-form notes for debugging / reporting.
    notes: list[str] = field(default_factory=list)

    def merge(self, other: "TrafficCounter") -> "TrafficCounter":
        """Accumulate another counter into this one and return ``self``."""
        self.sequential_read_bytes += other.sequential_read_bytes
        self.sequential_write_bytes += other.sequential_write_bytes
        # Working sets do not add up; keep the largest one, which is the one
        # that determines the steady-state hit ratio.
        if other.random_accesses > 0:
            total = self.random_accesses + other.random_accesses
            if total > 0:
                self.random_working_set_bytes = max(
                    self.random_working_set_bytes, other.random_working_set_bytes
                )
                self.random_access_bytes = (
                    self.random_access_bytes * self.random_accesses
                    + other.random_access_bytes * other.random_accesses
                ) / total
            self.random_accesses = total
        self.shared_bytes += other.shared_bytes
        self.atomic_updates += other.atomic_updates
        self.atomic_targets = max(self.atomic_targets, other.atomic_targets)
        self.compute_ops += other.compute_ops
        self.data_dependent_branches += other.data_dependent_branches
        if self.data_dependent_branches > 0:
            self.branch_miss_rate = (
                self.branch_miss_rate * (self.data_dependent_branches - other.data_dependent_branches)
                + other.branch_miss_rate * other.data_dependent_branches
            ) / self.data_dependent_branches
        self.pcie_bytes += other.pcie_bytes
        self.notes.extend(other.notes)
        return self

    def scaled(self, factor: float) -> "TrafficCounter":
        """Return a copy with all extensive quantities multiplied by ``factor``.

        Used to project traffic measured on a reduced-scale execution up to
        the paper's data scale.  Intensive quantities (working-set size,
        branch miss rate, access width, atomic target count) are preserved.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return TrafficCounter(
            sequential_read_bytes=self.sequential_read_bytes * factor,
            sequential_write_bytes=self.sequential_write_bytes * factor,
            random_accesses=self.random_accesses * factor,
            random_working_set_bytes=self.random_working_set_bytes,
            random_access_bytes=self.random_access_bytes,
            shared_bytes=self.shared_bytes * factor,
            atomic_updates=self.atomic_updates * factor,
            atomic_targets=self.atomic_targets,
            compute_ops=self.compute_ops * factor,
            data_dependent_branches=self.data_dependent_branches * factor,
            branch_miss_rate=self.branch_miss_rate,
            pcie_bytes=self.pcie_bytes * factor,
            notes=list(self.notes),
        )

    def note(self, message: str) -> None:
        """Attach a human-readable note (kept out of the hot paths)."""
        self.notes.append(message)

    def __add__(self, other: "TrafficCounter") -> "TrafficCounter":
        result = TrafficCounter()
        result.merge(self)
        result.merge(other)
        return result
