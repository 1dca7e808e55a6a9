"""CPU LSB radix sort (Section 4.4).

The least-significant-bit radix sort chains stable radix-partition passes
from the low bits to the high bits of the key.  With 8 bits per pass (the
most the L1-resident partition buffers allow while staying bandwidth bound),
sorting 32-bit keys takes four passes -- the configuration whose runtime the
paper reports as 464 ms for 2^28 key/value pairs.

:func:`radix_sort` is the pass loop the GPU variants share: a device
supplies only its bit limit per pass and its partition pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.ops.cpu.radix_partition import cpu_radix_partition
from repro.sim.timing import TimeBreakdown

#: Key bits every sort orders: the paper's keys are 32-bit integers.
_KEY_BITS = 32


def _pass_plan(key_bits: int, max_bits: int) -> list[int]:
    """Split ``key_bits`` into per-pass radix widths of at most ``max_bits``.

    Matches the paper's plans: 32 bits at <=7 bits/pass -> [6, 6, 6, 7, 7];
    32 bits at <=8 bits/pass -> [8, 8, 8, 8].
    """
    num_passes = -(-key_bits // max_bits)
    base = key_bits // num_passes
    remainder = key_bits - base * num_passes
    plan = [base] * num_passes
    for i in range(remainder):
        plan[num_passes - 1 - i] += 1
    return plan


def radix_sort(
    keys: np.ndarray,
    payloads: np.ndarray | None,
    max_bits: int,
    partition: Callable[[np.ndarray, np.ndarray, int, int], tuple],
    device: str,
    variant: str,
) -> OperatorResult:
    """Sort 32-bit keys (with payloads) by stable passes from the low bits up.

    ``partition(keys, payloads, radix_bits, start_bit)`` runs one pass on the
    device and returns ``(output, histogram_result, shuffle_result)``; the
    passes' times (as ``pass{i}.hist.``/``pass{i}.shuffle.``) and traffic
    add up to the sort's bill.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise ValueError(f"radix sort expects integer keys, got {keys.dtype}")
    if np.any(keys < 0):
        raise ValueError("radix sort expects non-negative keys")
    if np.any(keys >= 1 << _KEY_BITS):
        raise ValueError(f"radix sort orders {_KEY_BITS}-bit keys; got a key >= 2**{_KEY_BITS}")
    plan = _pass_plan(_KEY_BITS, max_bits)

    total_time = TimeBreakdown()
    total_traffic = TrafficCounter()
    current_keys, current_payloads = keys, payloads
    start_bit = 0
    for pass_index, bits in enumerate(plan):
        output, hist_result, shuffle_result = partition(current_keys, current_payloads, bits, start_bit)
        current_keys, current_payloads = output.keys, output.payloads
        start_bit += bits
        total_time.merge(hist_result.time, prefix=f"pass{pass_index}.hist.")
        total_time.merge(shuffle_result.time, prefix=f"pass{pass_index}.shuffle.")
        total_traffic.merge(hist_result.traffic)
        total_traffic.merge(shuffle_result.traffic)

    return OperatorResult(
        value=(current_keys, current_payloads),
        time=total_time,
        traffic=total_traffic,
        device=device,
        variant=variant,
        stats={"rows": float(keys.shape[0]), "passes": float(len(plan))},
    )


def cpu_radix_sort(keys: np.ndarray, payloads: np.ndarray | None = None) -> OperatorResult:
    """Sort 32-bit keys (with payloads) using LSB radix sort, 8 bits per pass.

    Args:
        keys: Key column (non-negative integers below 2**32).
        payloads: Optional payload column carried along with the keys.

    Returns:
        An :class:`~repro.ops.base.OperatorResult` whose value is the tuple
        ``(sorted_keys, sorted_payloads)``.
    """
    return radix_sort(
        keys,
        payloads,
        8,
        lambda k, p, bits, start: cpu_radix_partition(k, p, bits, start_bit=start),
        "cpu",
        "lsb-8bit",
    )
