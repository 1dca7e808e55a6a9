"""Fused tile-based kernels.

:class:`CrystalKernel` packages the pattern every Crystal query kernel
follows: create a :class:`~repro.crystal.context.BlockContext` with a launch
configuration, run a user-supplied body composed of block-wide functions,
and hand the accumulated traffic to the GPU simulator to obtain simulated
time.  The body is ordinary Python (mirroring the paper's point that
ordinary CUDA code mixes freely with Crystal functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.crystal.context import BlockContext
from repro.hardware.counters import TrafficCounter
from repro.sim.gpu import GPUExecution, GPUSimulator, KernelLaunch
from repro.sim.timing import TimeBreakdown


@dataclass
class KernelResult:
    """Output of running a fused Crystal kernel."""

    #: Whatever the kernel body returned (result arrays, aggregates, ...).
    value: Any
    #: Simulated execution on the GPU.
    execution: GPUExecution
    #: The context after the run (counters, traffic) for inspection.
    context: BlockContext

    @property
    def milliseconds(self) -> float:
        return self.execution.milliseconds

    @property
    def time(self) -> TimeBreakdown:
        return self.execution.time

    @property
    def traffic(self) -> TrafficCounter:
        return self.context.traffic


class CrystalKernel:
    """A fused query kernel expressed with block-wide functions.

    Example:
        >>> import numpy as np
        >>> from repro.crystal import CrystalKernel, block_load, block_pred
        >>> from repro.crystal import block_scan, block_shuffle, block_store
        >>> column = np.arange(16, dtype=np.int32)
        >>> def body(ctx):
        ...     out = np.zeros_like(column)
        ...     tile = block_load(ctx, column)
        ...     tile = block_pred(ctx, tile, lambda v: v > 7)
        ...     offsets, _, total = block_scan(ctx, tile)
        ...     cursor = ctx.atomic_add("out", total)
        ...     tile = block_shuffle(ctx, tile, offsets)
        ...     block_store(ctx, tile, out, cursor, total)
        ...     return out[:total]
        >>> kernel = CrystalKernel(body)
        >>> result = kernel.run()
        >>> list(result.value)
        [8, 9, 10, 11, 12, 13, 14, 15]
    """

    def __init__(
        self,
        body: Callable[[BlockContext], Any],
        threads_per_block: int = 128,
        items_per_thread: int = 4,
        label: str = "crystal-kernel",
    ) -> None:
        self.body = body
        self.label = label
        self.simulator = GPUSimulator()
        self.launch = KernelLaunch(
            threads_per_block=threads_per_block,
            items_per_thread=items_per_thread,
            # Two tile-sized 4-byte buffers, as in the Figure 8 kernel.
            shared_bytes_per_block=threads_per_block * items_per_thread * 4 * 2,
            label=label,
        )

    def run(self, *args: Any, **kwargs: Any) -> KernelResult:
        """Execute the kernel body and simulate its GPU runtime."""
        ctx = BlockContext(launch=self.launch)
        value = self.body(ctx, *args, **kwargs)
        execution = self.simulator.run_kernel(
            ctx.traffic, ctx.finalized_launch(), label=self.label
        )
        return KernelResult(value=value, execution=execution, context=ctx)
