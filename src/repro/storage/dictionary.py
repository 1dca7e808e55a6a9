"""Dictionary encoding of string columns.

The benchmark dictionary encodes every string column into 4-byte integer
codes before loading and rewrites query predicates to compare against the
encoded value (e.g. ``s_region = 'ASIA'`` becomes ``s_region = 2``,
Section 5.2).  :class:`DictionaryEncoder` provides the encoding, the decode
path used when presenting results, and the predicate-rewrite lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DictionaryEncoder:
    """A sorted dictionary mapping strings to dense integer codes."""

    values: list[str] = field(default_factory=list)
    _code_of: dict[str, int] = field(default_factory=dict, repr=False)

    @classmethod
    def from_values(cls, values) -> "DictionaryEncoder":
        """Build a dictionary over the distinct values of ``values`` (sorted)."""
        distinct = sorted(set(str(v) for v in values))
        encoder = cls()
        for value in distinct:
            encoder.add(value)
        return encoder

    def add(self, value: str) -> int:
        """Add a value (if new) and return its code."""
        value = str(value)
        code = self._code_of.get(value)
        if code is not None:
            return code
        code = len(self.values)
        self.values.append(value)
        self._code_of[value] = code
        return code

    def encode_value(self, value: str) -> int:
        """Code of a single value; raises ``KeyError`` when absent.

        This is the lookup used to rewrite string predicates into integer
        comparisons.
        """
        return self._code_of[str(value)]

    def encode(self, values) -> np.ndarray:
        """Encode an iterable of values into an int32 code array."""
        return np.fromiter((self.encode_value(v) for v in values), dtype=np.int32)

    def decode(self, codes) -> list[str]:
        """Original strings for a sequence of codes, in one pass.

        Raises ``IndexError`` for a code out of range.
        """
        return list(map(self.values.__getitem__, codes))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: object) -> bool:
        return str(value) in self._code_of
