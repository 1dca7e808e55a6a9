"""GPU projection (Section 4.1) as a fused Crystal kernel."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.crystal import BlockContext, CrystalKernel, Tile, block_load, block_store
from repro.ops.base import OperatorResult


def gpu_project(
    x1: np.ndarray,
    x2: np.ndarray,
    udf: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OperatorResult:
    """Compute ``udf(2 * x1 + 3 * x2)`` with a single fused GPU kernel.

    The kernel performs two ``block_load``s (one per column), the arithmetic
    on register-resident tiles, and a ``block_store`` of the result -- so it
    reads each input byte exactly once and is memory-bandwidth bound on the
    simulated V100 for both Q1 and the sigmoid Q2.
    """
    x1 = np.asarray(x1, dtype=np.float32)
    x2 = np.asarray(x2, dtype=np.float32)
    if x1.shape != x2.shape:
        raise ValueError("x1 and x2 must have equal length")

    out = np.zeros_like(x1)

    def body(ctx: BlockContext) -> np.ndarray:
        tile1 = block_load(ctx, x1)
        tile2 = block_load(ctx, x2)
        combined = 2.0 * tile1.values + 3.0 * tile2.values
        if udf is not None:
            combined = udf(combined)
            ctx.charge_compute(combined.shape[0] * 20.0)
        else:
            ctx.charge_compute(combined.shape[0] * 3.0)
        result_tile = Tile(values=combined.astype(np.float32))
        block_store(ctx, result_tile, out, 0, combined.shape[0])
        return out

    result = CrystalKernel(body, label="gpu-project").run()
    return OperatorResult(
        value=result.value,
        time=result.time,
        traffic=result.traffic,
        device="gpu",
        variant="crystal",
        stats={"rows": float(x1.shape[0])},
    )
