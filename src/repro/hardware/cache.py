"""Cache models.

Two complementary models are provided:

* :class:`AnalyticCacheModel` -- the closed-form hit-ratio model the paper
  uses in Section 4.3 and Section 5.3: a working set of size ``H`` probed
  uniformly at random against a cache of size ``S`` hits with probability
  ``min(S / H, 1)``.  This is what the cost models and the device simulators
  use, because it is exact for uniform random probing under LRU in the
  steady state and is independent of the data scale.
* :class:`SetAssociativeCache` -- a line-granular LRU set-associative cache
  simulator.  It is far too slow to run at the paper's data scale; it is
  the reference the test suite validates the analytic model against (the
  paper cites Mei & Chu's finding that the V100 L2 behaves as an LRU
  set-associative cache).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnalyticCacheModel:
    """Closed-form steady-state hit-ratio model for uniform random probing."""

    capacity_bytes: int
    line_bytes: int = 64

    def hit_ratio(self, working_set_bytes: float) -> float:
        """Probability a uniformly random probe hits this cache.

        Matches the paper's definition ``pi_K = min(S_K / H, 1)`` where
        ``S_K`` is the capacity of the level and ``H`` the hash-table
        (working-set) size.
        """
        if working_set_bytes <= 0:
            return 1.0
        return min(self.capacity_bytes / working_set_bytes, 1.0)

    def fits(self, working_set_bytes: float) -> bool:
        """True when the working set fits entirely in the cache."""
        return working_set_bytes <= self.capacity_bytes


@dataclass
class CacheStats:
    """Hit/miss statistics collected by :class:`SetAssociativeCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class SetAssociativeCache:
    """A line-granular LRU set-associative cache simulator.

    Addresses are byte addresses; every access touches exactly one line
    (accesses are assumed not to straddle lines, which holds for the aligned
    4/8-byte accesses issued by the operators).
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 64, associativity: int = 8) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("capacity, line size, and associativity must be positive")
        num_lines = capacity_bytes // line_bytes
        if num_lines == 0:
            raise ValueError("cache must hold at least one line")
        if num_lines % associativity != 0:
            # Round the associativity down to something that divides evenly;
            # fidelity matters more than matching an odd configuration.
            while num_lines % associativity != 0:
                associativity -= 1
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        # Each set is an ordered list of tags, most recently used last.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line

    def access(self, address: int) -> bool:
        """Access a byte address; returns True on a hit.

        A miss inserts the line, evicting the least recently used line of the
        set when the set is full.
        """
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.associativity:
            ways.pop(0)
        ways.append(tag)
        return False

    def access_many(self, addresses) -> CacheStats:
        """Access a sequence of byte addresses; returns the run's statistics."""
        run = CacheStats()
        for address in addresses:
            if self.access(int(address)):
                run.hits += 1
            else:
                run.misses += 1
        return run

    def warm(self, addresses) -> None:
        """Access addresses without recording statistics (cache warm-up)."""
        saved = CacheStats(self.stats.hits, self.stats.misses)
        for address in addresses:
            self.access(int(address))
        self.stats = saved

    def flush(self) -> None:
        """Invalidate all lines and reset statistics."""
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats.reset()
