"""Where data resides.

:class:`Device` names the memory a column lives in -- host DRAM or GPU
global memory -- so the generator can place a database on either device.
"""

from __future__ import annotations

import enum


class Device(enum.Enum):
    """Where a piece of data physically resides."""

    CPU = "cpu"
    GPU = "gpu"
