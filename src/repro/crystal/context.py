"""Block execution context: the charge sheet of a fused tile-based kernel.

The :class:`BlockContext` carries the launch configuration (threads per
block, items per thread), the global atomic counters the kernel uses to
claim output space, and a :class:`~repro.hardware.counters.TrafficCounter`
that every block-wide function charges its memory traffic, shared-memory
movement, barriers, and atomics to.  When the kernel finishes, the GPU
simulator converts the context into simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.counters import TrafficCounter
from repro.sim.gpu import KernelLaunch


@dataclass
class BlockContext:
    """State shared by all block-wide functions of one fused kernel."""

    launch: KernelLaunch = field(default_factory=KernelLaunch)
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    #: Total barriers executed per tile (incremented by scan/aggregate/...).
    barriers_per_tile: int = 0
    #: Number of logical items the kernel has been asked to process; set by
    #: the first block_load and used to derive the grid size.
    items_processed: int = 0
    #: Global atomic counters by name (e.g. the output cursor of a select).
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def tile_size(self) -> int:
        """Items one thread block stages per tile."""
        return self.launch.tile_size

    def num_tiles(self, num_items: int | None = None) -> int:
        """Number of tiles needed to cover ``num_items`` (ceil division)."""
        items = self.items_processed if num_items is None else num_items
        if items <= 0:
            return 0
        return -(-items // self.tile_size)

    def observe_items(self, num_items: int) -> None:
        """Record the grid size implied by the first full-column load."""
        self.items_processed = max(self.items_processed, int(num_items))

    # ------------------------------------------------------------------
    # Traffic charging helpers used by the block-wide functions
    # ------------------------------------------------------------------
    def charge_global_read(self, num_bytes: float) -> None:
        self.traffic.sequential_read_bytes += float(num_bytes)

    def charge_global_write(self, num_bytes: float) -> None:
        self.traffic.sequential_write_bytes += float(num_bytes)

    def charge_shared(self, num_bytes: float) -> None:
        self.traffic.shared_bytes += float(num_bytes)

    def charge_compute(self, num_ops: float) -> None:
        self.traffic.compute_ops += float(num_ops)

    def charge_random(self, num_accesses: float, working_set_bytes: float, access_bytes: float = 8.0) -> None:
        """Charge random (hash-probe style) accesses against a working set."""
        counter = self.traffic
        total = counter.random_accesses + num_accesses
        if total > 0:
            counter.random_access_bytes = (
                counter.random_access_bytes * counter.random_accesses + access_bytes * num_accesses
            ) / total
        counter.random_accesses = total
        counter.random_working_set_bytes = max(counter.random_working_set_bytes, working_set_bytes)

    def charge_barrier(self, count: int = 1) -> None:
        self.barriers_per_tile += count

    def charge_atomic(self, num_atomics: float, num_targets: float = 1.0) -> None:
        self.traffic.atomic_updates += float(num_atomics)
        self.traffic.atomic_targets = max(self.traffic.atomic_targets, float(num_targets))

    # ------------------------------------------------------------------
    # Global counters (the atomic output cursors of Figure 6)
    # ------------------------------------------------------------------
    def atomic_add(self, name: str, amount: int, per_tile: bool = True) -> int:
        """Atomically add to a named global counter, returning the old value.

        ``per_tile=True`` charges one atomic update per tile of the grid
        (thread 0 of each block performs the update on behalf of the block,
        Section 3.2); pass ``per_tile=False`` when the caller has already
        accounted for the atomics (e.g. the per-thread baseline).
        """
        old = self.counters.get(name, 0)
        self.counters[name] = old + int(amount)
        if per_tile:
            self.charge_atomic(self.num_tiles() or 1, num_targets=1)
        return old

    def finalized_launch(self) -> KernelLaunch:
        """Launch configuration annotated with the grid size and barriers."""
        return KernelLaunch(
            threads_per_block=self.launch.threads_per_block,
            items_per_thread=self.launch.items_per_thread,
            shared_bytes_per_block=self.launch.shared_bytes_per_block,
            registers_per_thread=self.launch.registers_per_thread,
            barriers_per_tile=max(self.launch.barriers_per_tile, self.barriers_per_tile),
            grid_tiles=self.num_tiles(),
            label=self.launch.label,
        )
