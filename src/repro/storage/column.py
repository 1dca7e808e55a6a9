"""Columns: named, typed, device-resident arrays of fixed-width values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.memory import Device


@dataclass
class Column:
    """A single column stored as a contiguous fixed-width array.

    The benchmark stores every column as 4-byte values (integers or floats)
    to keep comparisons across systems apples-to-apples (Section 5.2);
    other widths are allowed for intermediate results.
    """

    name: str
    values: np.ndarray
    device: Device = Device.CPU
    encoding: str | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ValueError(f"column {self.name!r} must be one-dimensional")

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def nbytes(self) -> int:
        """Size of the column data in bytes."""
        return int(self.values.nbytes)

    def to_device(self, device: Device) -> "Column":
        """Return a column with the same data marked as resident on ``device``.

        The data itself is shared (NumPy view); only the residency label
        changes.  PCIe transfer cost is accounted by the engine that performs
        the move, not here.
        """
        return Column(name=self.name, values=self.values, device=device, encoding=self.encoding)

    def head(self, n: int = 5) -> np.ndarray:
        """The first ``n`` values (for quick inspection in examples)."""
        return self.values[:n]

    def min(self) -> float:
        return float(self.values.min()) if len(self) else float("nan")

    def max(self) -> float:
        return float(self.values.max()) if len(self) else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Column({self.name!r}, n={len(self)}, dtype={self.dtype}, "
            f"device={self.device.value})"
        )
