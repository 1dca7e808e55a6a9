"""CPU radix partitioning (Section 4.4, Figure 14).

One radix-partition pass splits a key/payload array into ``2^r`` contiguous
output partitions by ``r`` bits of the key, in two phases:

* **histogram** -- each thread scans its chunk and counts keys per partition
  (the per-thread histograms live in L1);
* **shuffle** -- after a prefix sum over the per-thread histograms gives
  every thread its write cursors, each thread re-reads its chunk and
  scatters entries to their partitions through L1-resident software
  buffers, flushing full cache lines with streaming stores (Polychroniou &
  Ross).  The pass is *stable*: ties keep their input order.

Beyond 8 radix bits the per-thread buffers (``2^r`` cache lines) no longer
fit in L1 and the shuffle phase falls off the bandwidth-bound plateau, which
is the knee in Figure 14b.

:func:`partition_pass` is the functional pass the GPU variants share; each
device adds only its bill (traffic and simulator call) for the two phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.sim.cpu import CPUSimulator
from repro.sim.timing import TimeBreakdown

#: Number of software threads the partitioning is striped over.
_NUM_THREADS = 16

#: Bytes of L1 available for the per-thread partition buffers (the other half
#: of the 32 KB L1 holds the input vector and the histogram).
_L1_BUFFER_BYTES = 16 * 1024


@dataclass
class RadixPartitionOutput:
    """The result of one radix-partition pass."""

    keys: np.ndarray
    payloads: np.ndarray
    partition_offsets: np.ndarray
    radix_bits: int
    start_bit: int


def radix_of(keys: np.ndarray, radix_bits: int, start_bit: int) -> np.ndarray:
    """Extract the ``radix_bits`` bits starting at ``start_bit`` of each key."""
    mask = (1 << radix_bits) - 1
    return (keys.astype(np.int64) >> start_bit) & mask


def partition_pass(
    keys: np.ndarray, payloads: np.ndarray | None, radix_bits: int, start_bit: int
) -> tuple[RadixPartitionOutput, np.ndarray]:
    """One stable radix-partition pass: the output and its histogram.

    Both devices compute this answer; only the cost of its histogram and
    shuffle phases differs.
    """
    keys = np.asarray(keys)
    payloads = np.zeros_like(keys) if payloads is None else np.asarray(payloads)
    if payloads.shape != keys.shape:
        raise ValueError("payloads must align with keys")
    radix = radix_of(keys, radix_bits, start_bit)
    histogram = np.bincount(radix, minlength=1 << radix_bits).astype(np.int64)
    offsets = np.zeros(1 << radix_bits, dtype=np.int64)
    np.cumsum(histogram[:-1], out=offsets[1:])
    order = np.argsort(radix, kind="stable")
    output = RadixPartitionOutput(
        keys=keys[order],
        payloads=payloads[order],
        partition_offsets=offsets,
        radix_bits=radix_bits,
        start_bit=start_bit,
    )
    return output, histogram


def phase_results(
    output: RadixPartitionOutput,
    histogram: np.ndarray,
    device: str,
    variant: str,
    histogram_bill: tuple[TrafficCounter, TimeBreakdown],
    shuffle_bill: tuple[TrafficCounter, TimeBreakdown],
) -> tuple[OperatorResult, OperatorResult]:
    """The histogram and shuffle results of one pass, each from its bill."""
    return tuple(
        OperatorResult(
            value=value,
            time=time,
            traffic=traffic,
            device=device,
            variant=variant,
            stats={"rows": float(output.keys.shape[0]), "radix_bits": float(output.radix_bits)},
        )
        for value, (traffic, time) in ((histogram, histogram_bill), (None, shuffle_bill))
    )


def cpu_radix_partition(
    keys: np.ndarray,
    payloads: np.ndarray | None = None,
    radix_bits: int = 8,
    start_bit: int = 0,
) -> tuple[RadixPartitionOutput, OperatorResult, OperatorResult]:
    """Run one stable radix-partition pass on the CPU.

    Returns ``(output, histogram_result, shuffle_result)`` so callers (and
    the Figure 14 benchmark) can report the two phases separately.
    """
    if radix_bits <= 0 or radix_bits > 16:
        raise ValueError("radix_bits must be in [1, 16]")
    output, histogram = partition_pass(keys, payloads, radix_bits, start_bit)
    simulator = CPUSimulator()
    n = output.keys.shape[0]
    num_partitions = 1 << radix_bits
    moved_bytes = float(output.keys.nbytes + output.payloads.nbytes)

    histogram_traffic = TrafficCounter(
        sequential_read_bytes=float(output.keys.nbytes),
        sequential_write_bytes=float(num_partitions * 8 * _NUM_THREADS),
        compute_ops=float(n) * 2.0,
    )
    shuffle_traffic = TrafficCounter(
        sequential_read_bytes=moved_bytes,
        sequential_write_bytes=moved_bytes,
        shared_bytes=moved_bytes,
        compute_ops=float(n) * 4.0,
    )
    # Once the per-thread partition buffers exceed L1, partially-filled buffer
    # lines get evicted and re-fetched before they are full, so the scattered
    # flushes amplify the write traffic by up to a cache line per tuple; this
    # produces the Figure 14b knee past 8 radix bits.
    line_bytes = simulator.spec.cache_line_bytes
    buffer_bytes = num_partitions * line_bytes
    if buffer_bytes > _L1_BUFFER_BYTES:
        overflow_fraction = 1.0 - _L1_BUFFER_BYTES / buffer_bytes
        tuple_bytes = float(output.keys.dtype.itemsize + output.payloads.dtype.itemsize)
        amplification = overflow_fraction * float(n) * max(line_bytes - tuple_bytes, 0.0)
        shuffle_traffic.sequential_write_bytes += amplification
    histogram_time = simulator.run(histogram_traffic, use_simd=True, label="cpu-radix-histogram").time
    shuffle_time = simulator.run(
        shuffle_traffic, use_simd=True, non_temporal_writes=True, label="cpu-radix-shuffle"
    ).time
    return output, *phase_results(
        output, histogram, "cpu", "stable",
        (histogram_traffic, histogram_time), (shuffle_traffic, shuffle_time),
    )
