"""Linear-probing open-addressing hash table.

This is the hash table of Section 4.3: an array of slots, each holding a
4-byte key and a 4-byte payload, no pointers, probed with linear probing.
It is shared by the CPU and GPU join implementations (the algorithms differ
only in how the probe loop is scheduled, which the simulators account for).

Keys must be non-negative; the table reserves one sentinel value for empty
slots, exactly like the CUDA implementation reserves a key outside the
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sentinel stored in empty slots.  SSB keys and the microbenchmark keys are
#: all non-negative, matching the paper's setup.
EMPTY_KEY = np.int64(-1)
#: Logical bytes per slot: a 4-byte key and a 4-byte payload.
SLOT_BYTES = 8
#: Keys per slot a built table is sized for (the paper uses 50 %).
FILL_FACTOR = 0.5


def _next_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (int(value - 1).bit_length())


@dataclass
class _BuildStats:
    """Statistics from building the table (used by build-phase models)."""

    num_keys: int = 0
    num_slots: int = 0
    collisions: int = 0

    @property
    def fill_factor(self) -> float:
        return self.num_keys / self.num_slots if self.num_slots else 0.0


class LinearProbingHashTable:
    """An open-addressing hash table with linear probing.

    Args:
        num_slots: Number of slots; rounded up to a power of two so the hash
            can use a mask instead of a modulo.
    """

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ValueError("hash table needs at least one slot")
        self.num_slots = _next_power_of_two(num_slots)
        self._mask = self.num_slots - 1
        self._keys = np.full(self.num_slots, EMPTY_KEY, dtype=np.int64)
        self._values = np.zeros(self.num_slots, dtype=np.int64)
        self.build_stats = _BuildStats(num_slots=self.num_slots)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        values: np.ndarray | None = None,
    ) -> "LinearProbingHashTable":
        """Build a table over ``keys`` (and optional payloads).

        The table has ``len(keys) / FILL_FACTOR`` slots, rounded up to a
        power of two.
        """
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError("keys must be a one-dimensional array")
        if np.any(keys < 0):
            raise ValueError("keys must be non-negative (the sentinel is negative)")
        if values is None:
            values = np.zeros_like(keys)
        values = np.asarray(values)
        if values.shape != keys.shape:
            raise ValueError("values must align with keys")
        num_slots = max(1, int(np.ceil(keys.shape[0] / FILL_FACTOR)))
        table = cls(num_slots)
        table.insert(keys, values)
        return table

    @property
    def size_bytes(self) -> int:
        """Logical size of the table (what the paper's x-axes plot)."""
        return self.num_slots * self.slot_bytes

    @property
    def slot_bytes(self) -> int:
        return SLOT_BYTES

    @property
    def num_keys(self) -> int:
        return self.build_stats.num_keys

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        # Multiplicative (Knuth) hashing followed by a mask.  Deterministic
        # and fast; the distribution quality only affects collision counts.
        h = (keys.astype(np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        return (h & np.uint64(self._mask)).astype(np.int64)

    # ------------------------------------------------------------------
    def insert(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Insert key/value pairs; returns the number of collision steps.

        Duplicate keys are allowed (the last write wins), matching the
        microbenchmark's unique-key build relation and the SSB dimension
        tables, whose keys are unique.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise ValueError("keys and values must have equal length")
        if keys.shape[0] + self.build_stats.num_keys > self.num_slots:
            raise ValueError("hash table over capacity")

        positions = self._hash(keys)
        pending = np.arange(keys.shape[0])
        collisions = 0
        # Resolve collisions in rounds: in each round, every pending key
        # claims its current slot if that slot is empty and it is the first
        # pending key targeting it; the rest advance one slot.
        while pending.size:
            pos = positions[pending]
            slot_keys = self._keys[pos]
            empty = slot_keys == EMPTY_KEY
            duplicate = slot_keys == keys[pending]
            # First pending key per slot wins the claim this round.
            order = np.argsort(pos, kind="stable")
            pos_sorted = pos[order]
            first_of_slot = np.ones(pos_sorted.shape[0], dtype=bool)
            first_of_slot[1:] = pos_sorted[1:] != pos_sorted[:-1]
            winner = np.zeros(pos.shape[0], dtype=bool)
            winner[order] = first_of_slot
            claim = (empty & winner) | duplicate

            claim_idx = pending[claim]
            self._keys[positions[claim_idx]] = keys[claim_idx]
            self._values[positions[claim_idx]] = values[claim_idx]

            pending = pending[~claim]
            if pending.size:
                positions[pending] = (positions[pending] + 1) & self._mask
                collisions += int(pending.size)

        self.build_stats.num_keys += int(keys.shape[0])
        self.build_stats.collisions += collisions
        return collisions

    def probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the table with ``keys``.

        Returns ``(found, values)``: a boolean mask of keys present and the
        matching payloads (zero where absent).
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        found = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=np.int64)
        if n == 0:
            return found, values

        positions = self._hash(keys)
        active = np.arange(n)
        steps = 0
        while active.size:
            pos = positions[active]
            slot_keys = self._keys[pos]
            match = slot_keys == keys[active]
            empty = slot_keys == EMPTY_KEY

            matched_idx = active[match]
            found[matched_idx] = True
            values[matched_idx] = self._values[pos[match]]

            # Keys that neither matched nor hit an empty slot continue.
            active = active[~(match | empty)]
            if active.size:
                positions[active] = (positions[active] + 1) & self._mask
                steps += 1
                if steps > self.num_slots:
                    raise RuntimeError("probe did not terminate; table is corrupt")
        return found, values
