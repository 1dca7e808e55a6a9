"""GPU radix partitioning (Section 4.4).

Each thread block processes a tile: the histogram phase counts keys per
partition and writes per-block histograms to global memory; after a prefix
sum gives each block its write cursors, the shuffle phase re-reads its tile
and scatters entries to their partitions with coalesced per-partition runs.

Two variants differ in how the shuffle keeps order:

* ``stable`` (used by LSB radix sort, Merrill & Grimshaw): every *thread*
  needs its own 2^r-entry offset array held in registers, which caps the
  pass at 7 radix bits.
* ``unstable`` (used by MSB radix sort, Stehle & Jacobsen): a single
  2^r-entry offset array per *thread block* suffices, allowing 8 bits per
  pass -- which is why MSB sort needs only 4 passes for 32-bit keys.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.ops.cpu.radix_partition import RadixPartitionOutput, partition_pass, phase_results
from repro.sim.gpu import GPUSimulator, KernelLaunch

#: Maximum radix bits per pass for the stable (per-thread offsets) variant.
MAX_STABLE_BITS = 7
#: Maximum radix bits per pass for the unstable (per-block offsets) variant.
MAX_UNSTABLE_BITS = 8


def gpu_radix_partition(
    keys: np.ndarray,
    payloads: np.ndarray | None = None,
    radix_bits: int = 7,
    start_bit: int = 0,
    stable: bool = True,
) -> tuple[RadixPartitionOutput, OperatorResult, OperatorResult]:
    """Run one radix-partition pass on the GPU.

    Returns ``(output, histogram_result, shuffle_result)``.  The functional
    result is always produced with a stable partitioning (so tests can check
    it); the ``stable`` flag controls the *cost* model: the stable variant
    needs more registers per thread (reducing occupancy) and is limited to
    :data:`MAX_STABLE_BITS` bits per pass.
    """
    max_bits = MAX_STABLE_BITS if stable else MAX_UNSTABLE_BITS
    if radix_bits <= 0:
        raise ValueError("radix_bits must be positive")
    if radix_bits > max_bits:
        raise ValueError(
            f"{'stable' if stable else 'unstable'} GPU radix partitioning supports at most "
            f"{max_bits} bits per pass, got {radix_bits}"
        )
    output, histogram = partition_pass(keys, payloads, radix_bits, start_bit)
    simulator = GPUSimulator()
    n = output.keys.shape[0]
    num_partitions = 1 << radix_bits
    tile_size = KernelLaunch().tile_size
    num_tiles = -(-n // tile_size) if n else 0
    histogram_bytes = float(num_tiles * num_partitions * 4)
    moved_bytes = float(output.keys.nbytes + output.payloads.nbytes)

    histogram_traffic = TrafficCounter(
        sequential_read_bytes=float(output.keys.nbytes),
        sequential_write_bytes=histogram_bytes,
        shared_bytes=histogram_bytes,
        compute_ops=float(n) * 2.0,
    )
    histogram_launch = KernelLaunch(
        shared_bytes_per_block=num_partitions * 4,
        grid_tiles=num_tiles,
        label="gpu-radix-histogram",
    )
    # Per-thread offset arrays of the stable variant consume registers and
    # spill beyond 7 bits; per-block offsets of the unstable variant live in
    # shared memory.
    registers_per_thread = 32 + (num_partitions if stable else 0)
    shuffle_traffic = TrafficCounter(
        sequential_read_bytes=moved_bytes + histogram_bytes,
        sequential_write_bytes=moved_bytes,
        shared_bytes=moved_bytes,
        compute_ops=float(n) * 4.0,
    )
    shuffle_launch = KernelLaunch(
        shared_bytes_per_block=tile_size * 8 + num_partitions * 4,
        registers_per_thread=min(registers_per_thread, 255),
        barriers_per_tile=3,
        grid_tiles=num_tiles,
        label="gpu-radix-shuffle",
    )
    return output, *phase_results(
        output, histogram, "gpu", "stable" if stable else "unstable",
        (histogram_traffic, simulator.run_kernel(histogram_traffic, histogram_launch).time),
        (shuffle_traffic, simulator.run_kernel(shuffle_traffic, shuffle_launch).time),
    )
