"""CPU selection scans (Section 4.2, query Q3).

Three variants:

* ``if`` -- branching implementation (Figure 15a); pays the branch
  misprediction penalty when the selectivity is neither very low nor very
  high.
* ``pred`` -- branch-free predication (Figure 15b); turns the control
  dependency into a data dependency and always writes the slot.
* ``simd_pred`` -- vectorized selective stores with streaming writes
  (Polychroniou et al.); the variant that tracks the bandwidth model.

All variants use the vector-at-a-time two-pass scheme of Section 3.2: each
core counts matches in an L1-resident vector, claims output space from a
shared atomic cursor once per vector, and then copies the matches.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.sim.cpu import CPUSimulator

#: Entries per L1-resident vector a core processes between cursor updates.
VECTOR_SIZE = 1024

_VARIANTS = ("if", "pred", "simd_pred")


def _branch_miss_rate(selectivity: float) -> float:
    """Fraction of branches mispredicted at a given selectivity.

    A two-outcome branch with independent outcomes is mispredicted at a rate
    of roughly ``2 * s * (1 - s)``: fully predictable at 0 or 1, worst at 0.5.
    """
    return 2.0 * selectivity * (1.0 - selectivity)


def cpu_select(
    y: np.ndarray,
    threshold: float,
    variant: str = "simd_pred",
) -> OperatorResult:
    """Run ``SELECT y FROM R WHERE y < threshold`` on the CPU.

    Args:
        y: Input column.
        threshold: Selection constant ``v``.
        variant: ``"if"``, ``"pred"``, or ``"simd_pred"``.

    Returns:
        An :class:`~repro.ops.base.OperatorResult` whose value is the array
        of matching entries (in input order).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown CPU select variant {variant!r}; expected one of {_VARIANTS}")
    y = np.asarray(y)

    mask = y < threshold
    matched = y[mask]
    n = y.shape[0]
    selectivity = float(mask.mean()) if n else 0.0
    num_vectors = -(-n // VECTOR_SIZE) if n else 0

    traffic = TrafficCounter(
        sequential_read_bytes=float(y.nbytes),
        sequential_write_bytes=float(matched.nbytes),
        # Second pass over each vector is served from L1 (charged as shared).
        shared_bytes=float(y.nbytes),
        # One cursor update per vector; with ~1000 entries between updates
        # the counter is effectively uncontended (Section 3.2), so the
        # updates proceed in parallel across the cores.
        atomic_updates=float(num_vectors),
        atomic_targets=8.0,
        compute_ops=float(n) * 2.0,
    )

    use_simd = False
    non_temporal = False
    if variant == "if":
        traffic.data_dependent_branches = float(n)
        traffic.branch_miss_rate = _branch_miss_rate(selectivity)
        if selectivity == 0.0:
            # The branching variant writes nothing at selectivity zero.
            traffic.sequential_write_bytes = 0.0
    elif variant == "pred":
        # Predication always performs the (possibly discarded) store slot
        # write, touching the output line even for non-matching entries when
        # selectivity is low; model this as a small constant write overhead.
        traffic.compute_ops = float(n) * 3.0
    else:  # simd_pred
        use_simd = True
        non_temporal = True
        traffic.compute_ops = float(n) * 2.0

    execution = CPUSimulator().run(
        traffic,
        use_simd=use_simd,
        non_temporal_writes=non_temporal,
        label=f"cpu-select-{variant}",
    )
    return OperatorResult(
        value=matched,
        time=execution.time,
        traffic=traffic,
        device="cpu",
        variant=variant,
        stats={"rows": float(n), "selectivity": selectivity, "matched": float(matched.shape[0])},
    )
