"""Block-wide shuffle: ``block_shuffle``.

Uses the bitmap and the per-item offsets produced by ``block_scan`` to
rearrange a tile so that all matched entries are contiguous at the front --
inside shared memory, so the subsequent ``block_store`` writes a dense,
coalesced run to global memory.  This is the step that converts the random
scattered writes of the thread-per-row approach into sequential writes
(Figure 6, "Gen shuffled tile").
"""

from __future__ import annotations

import numpy as np

from repro.crystal.context import BlockContext
from repro.crystal.tile import Tile


def block_shuffle(ctx: BlockContext, tile: Tile, offsets: np.ndarray | None = None) -> Tile:
    """Compact the matched entries of a tile into a contiguous prefix.

    Args:
        ctx: The enclosing kernel's block context.
        tile: Tile carrying a bitmap of matched entries (a tile without a
            bitmap is already dense and is returned compacted trivially).
        offsets: Per-item offsets from ``block_scan``.  They are accepted for
            interface fidelity (the CUDA kernel needs them to know where each
            thread writes); the compaction result does not depend on them
            because matched order is preserved either way.

    Returns:
        A new tile whose first entries are the matched values
        in their original order and whose ``size`` equals that count.
    """
    matched = tile.matched_values()
    compacted = np.zeros_like(tile.values)
    compacted[: matched.shape[0]] = matched

    if offsets is not None and tile.bitmap is not None:
        offsets = np.asarray(offsets)
        if offsets.shape[0] != tile.values.shape[0]:
            raise ValueError("offsets length must match tile length")

    # The shuffle stages the matched entries through shared memory and needs
    # one barrier so every thread sees the scan results before scattering.
    ctx.charge_shared(matched.nbytes + tile.values.nbytes)
    ctx.charge_barrier(1)
    return Tile(values=compacted, size=int(matched.shape[0]), in_registers=False)
