"""CPU projection (Section 4.1, queries Q1 and Q2).

Two variants are provided:

* ``naive`` -- the straightforward multi-threaded projection: each core
  scans its partition with scalar arithmetic and regular stores.
* ``opt`` -- the optimized version with SIMD arithmetic and non-temporal
  (streaming) stores that bypass the cache hierarchy; this is the variant
  that saturates memory bandwidth even for the sigmoid projection (Q2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.sim.cpu import CPUSimulator

#: Scalar operation count per output element for the linear combination Q1.
_LINEAR_OPS_PER_ELEMENT = 3.0
#: Scalar operation count per output element for the sigmoid UDF Q2
#: (multiply-adds plus a polynomial exp approximation).
_SIGMOID_OPS_PER_ELEMENT = 22.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function used as the UDF in Q2."""
    return 1.0 / (1.0 + np.exp(-x))


def cpu_project(
    x1: np.ndarray,
    x2: np.ndarray,
    udf: Callable[[np.ndarray], np.ndarray] | None = None,
    variant: str = "opt",
) -> OperatorResult:
    """Compute ``udf(2 * x1 + 3 * x2)`` over two float columns.

    Args:
        x1, x2: Input columns (4-byte floats in the microbenchmark).
        udf: Optional user-defined function applied to the combination
            (Q2 uses :func:`sigmoid`); ``None`` reproduces Q1.
        variant: ``"naive"`` or ``"opt"``.

    Returns:
        An :class:`~repro.ops.base.OperatorResult` whose value is the
        projected column.
    """
    if variant not in ("naive", "opt"):
        raise ValueError(f"unknown CPU project variant {variant!r}")
    x1 = np.asarray(x1, dtype=np.float32)
    x2 = np.asarray(x2, dtype=np.float32)
    if x1.shape != x2.shape:
        raise ValueError("x1 and x2 must have equal length")

    combined = 2.0 * x1 + 3.0 * x2
    result = udf(combined).astype(np.float32) if udf is not None else combined.astype(np.float32)

    n = x1.shape[0]
    ops_per_element = _SIGMOID_OPS_PER_ELEMENT if udf is not None else _LINEAR_OPS_PER_ELEMENT
    traffic = TrafficCounter(
        sequential_read_bytes=float(x1.nbytes + x2.nbytes),
        sequential_write_bytes=float(result.nbytes),
        compute_ops=float(n) * ops_per_element,
    )
    execution = CPUSimulator().run(
        traffic,
        use_simd=(variant == "opt"),
        non_temporal_writes=(variant == "opt"),
        label=f"cpu-project-{variant}",
    )
    return OperatorResult(
        value=result,
        time=execution.time,
        traffic=traffic,
        device="cpu",
        variant=variant,
        stats={"rows": float(n), "ops_per_element": ops_per_element},
    )
