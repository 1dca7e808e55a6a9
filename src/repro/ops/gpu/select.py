"""GPU selection scans (Sections 3.2, 3.3, and 4.2).

Two implementations are provided:

* :func:`gpu_select` -- the tile-based single-kernel selection of
  Figure 4(b)/Figure 8: load a tile, evaluate the predicate, block-wide
  prefix sum, one atomic per thread block to claim output space, shuffle the
  matches into a contiguous run, and store coalesced.  ``variant="if"`` and
  ``variant="pred"`` only differ in how the predicate lane is written; on
  the GPU the difference does not matter (SIMT has no branch predictor) and
  the simulator reflects that.
* :func:`gpu_select_independent_threads` -- the three-kernel
  thread-per-stride baseline of Figure 4(a) used by earlier GPU databases:
  count, prefix sum, and a second full pass that writes matches to scattered
  per-thread offsets.  It reads the input twice and its writes are not
  coalesced, which is why it is ~9x slower in the Section 3.3 comparison.
"""

from __future__ import annotations

import numpy as np

from repro.crystal import (
    BlockContext,
    CrystalKernel,
    block_load,
    block_pred,
    block_scan,
    block_shuffle,
    block_store,
)
from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.sim.gpu import GPUSimulator, KernelLaunch

_VARIANTS = ("if", "pred")

#: Threads the independent-threads baseline strides the column over.
_NUM_THREADS = 409600


def gpu_select(
    y: np.ndarray,
    threshold: float,
    variant: str = "pred",
    threads_per_block: int = 128,
    items_per_thread: int = 4,
) -> OperatorResult:
    """Run ``SELECT y FROM R WHERE y < threshold`` as one fused Crystal kernel."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown GPU select variant {variant!r}; expected one of {_VARIANTS}")
    y = np.asarray(y)
    out = np.zeros_like(y)

    def body(ctx: BlockContext) -> np.ndarray:
        tile = block_load(ctx, y)
        tile = block_pred(ctx, tile, lambda values: values < threshold)
        offsets, _, total = block_scan(ctx, tile)
        cursor = ctx.atomic_add("output_cursor", total)
        shuffled = block_shuffle(ctx, tile, offsets)
        block_store(ctx, shuffled, out, cursor, total)
        return out[:total]

    kernel = CrystalKernel(
        body,
        threads_per_block=threads_per_block,
        items_per_thread=items_per_thread,
        label=f"gpu-select-{variant}",
    )
    result = kernel.run()
    n = y.shape[0]
    matched = result.value.shape[0]
    return OperatorResult(
        value=result.value,
        time=result.time,
        traffic=result.traffic,
        device="gpu",
        variant=variant,
        stats={
            "rows": float(n),
            "matched": float(matched),
            "selectivity": matched / n if n else 0.0,
            "occupancy": result.execution.occupancy,
        },
    )


def gpu_select_independent_threads(
    y: np.ndarray,
    threshold: float,
) -> OperatorResult:
    """The three-kernel thread-per-stride selection of Figure 4(a).

    Kernel K1 scans the column and counts matches per thread; K2 computes a
    prefix sum over the per-thread counts; K3 re-reads the column and writes
    each thread's matches starting at its prefix-sum offset.  The value
    returned matches :func:`gpu_select` exactly; only the simulated cost
    differs (two full reads, intermediate arrays, and scattered writes).
    """
    y = np.asarray(y)
    simulator = GPUSimulator()
    n = y.shape[0]

    mask = y < threshold
    matched = y[mask]

    # K1: strided read + per-thread counts.
    k1_traffic = TrafficCounter(
        sequential_read_bytes=float(y.nbytes),
        sequential_write_bytes=float(_NUM_THREADS * 4),
        compute_ops=float(n),
    )
    k1 = simulator.run_kernel(k1_traffic, KernelLaunch(items_per_thread=1, label="k1-count"))

    # K2: prefix sum over the per-thread counts (a Thrust-style scan).
    k2_traffic = TrafficCounter(
        sequential_read_bytes=float(_NUM_THREADS * 4),
        sequential_write_bytes=float(_NUM_THREADS * 4),
        compute_ops=float(_NUM_THREADS),
    )
    k2 = simulator.run_kernel(k2_traffic, KernelLaunch(items_per_thread=1, label="k2-prefix-sum"))

    # K3: second full read plus scattered, uncoalesced writes of the matches.
    k3_traffic = TrafficCounter(
        sequential_read_bytes=float(y.nbytes + _NUM_THREADS * 4),
        random_accesses=float(matched.shape[0]),
        random_working_set_bytes=float(max(matched.nbytes, 1)),
        random_access_bytes=32.0,
        compute_ops=float(n),
    )
    k3 = simulator.run_kernel(k3_traffic, KernelLaunch(items_per_thread=1, label="k3-scatter"))

    time = simulator.run_kernels([k1, k2, k3])
    traffic = TrafficCounter()
    traffic.merge(k1_traffic)
    traffic.merge(k2_traffic)
    traffic.merge(k3_traffic)
    return OperatorResult(
        value=matched,
        time=time,
        traffic=traffic,
        device="gpu",
        variant="independent-threads",
        stats={
            "rows": float(n),
            "matched": float(matched.shape[0]),
            "selectivity": matched.shape[0] / n if n else 0.0,
        },
    )
