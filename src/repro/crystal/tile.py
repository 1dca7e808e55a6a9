"""The Tile: the unit of data a thread block processes at a time.

A :class:`Tile` wraps a NumPy array of items staged inside the thread block
(logically in shared memory or registers), together with an optional
validity bitmap produced by earlier selections.  Block-wide functions accept
and return tiles; the values array always has the *logical* tile capacity of
the kernel, with ``size`` marking how many leading entries are valid when
the tile is a partial (tail) tile or has been compacted by a shuffle.

In this reproduction a single ``Tile`` object usually carries *all* tiles of
a column at once (the "set of tiles" of the paper's definition): the logical
tiling is defined by the launch configuration and only matters for traffic
accounting, not for correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Tile:
    """A set of items staged inside a thread block.

    Attributes:
        values: The staged items.
        size: Number of valid leading entries (``len(values)`` by default).
        bitmap: Optional boolean validity mask aligned with ``values``;
            produced by ``block_pred`` and consumed by ``block_shuffle`` /
            ``block_load_sel``.
        in_registers: True when the values are held in registers rather than
            shared memory (the Crystal optimization for statically-indexed
            arrays, Section 3.3); only affects traffic accounting.
    """

    values: np.ndarray
    size: int | None = None
    bitmap: np.ndarray | None = None
    in_registers: bool = True

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.size is None:
            self.size = int(self.values.shape[0])
        if self.size < 0 or self.size > self.values.shape[0]:
            raise ValueError(
                f"tile size {self.size} outside [0, {self.values.shape[0]}]"
            )
        if self.bitmap is not None:
            self.bitmap = np.asarray(self.bitmap, dtype=bool)
            if self.bitmap.shape[0] != self.values.shape[0]:
                raise ValueError("bitmap length must match values length")

    @classmethod
    def empty(cls) -> "Tile":
        """An empty tile (zero valid items)."""
        return cls(values=np.empty(0, dtype=np.int32), size=0)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def valid_values(self) -> np.ndarray:
        """The valid leading entries as a NumPy array view."""
        return self.values[: self.size]

    def matched_values(self) -> np.ndarray:
        """Entries selected by the bitmap (all valid entries if no bitmap)."""
        if self.bitmap is None:
            return self.valid_values()
        return self.values[: self.size][self.bitmap[: self.size]]

    def with_bitmap(self, bitmap: np.ndarray) -> "Tile":
        """Return a new tile sharing values but carrying ``bitmap``."""
        return Tile(values=self.values, size=self.size, bitmap=bitmap, in_registers=self.in_registers)
