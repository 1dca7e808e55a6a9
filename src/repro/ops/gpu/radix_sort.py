"""GPU radix sort (Section 4.4): LSB (stable) and MSB (unstable) variants.

The LSB sort must use stable partition passes and is therefore limited to
7 bits per pass (five passes of 6,6,6,7,7 bits for 32-bit keys); the MSB
sort of Stehle & Jacobsen does not need stability and processes 8 bits per
pass (four passes).  The MSB variant is the one the paper compares against
the CPU's four-pass LSB sort (27.08 ms vs 464 ms at 2^28 entries).
"""

from __future__ import annotations

import numpy as np

from repro.ops.base import OperatorResult
from repro.ops.cpu.radix_sort import radix_sort
from repro.ops.gpu.radix_partition import MAX_STABLE_BITS, MAX_UNSTABLE_BITS, gpu_radix_partition


def gpu_radix_sort(
    keys: np.ndarray,
    payloads: np.ndarray | None = None,
    variant: str = "msb",
) -> OperatorResult:
    """Sort 32-bit keys (with payloads) on the GPU.

    Both variants are charged pass by pass at their own widths; for both,
    the sorted output comes from the shared stable passes from the low bits.

    Args:
        keys: Key column (non-negative integers below 2**32).
        payloads: Optional payload column.
        variant: ``"msb"`` (unstable passes, 8 bits each) or ``"lsb"``
            (stable passes, at most 7 bits each).
    """
    if variant not in ("msb", "lsb"):
        raise ValueError(f"unknown GPU sort variant {variant!r}")
    stable = variant == "lsb"
    return radix_sort(
        keys,
        payloads,
        MAX_STABLE_BITS if stable else MAX_UNSTABLE_BITS,
        lambda k, p, bits, start: gpu_radix_partition(k, p, bits, start_bit=start, stable=stable),
        "gpu",
        variant,
    )
