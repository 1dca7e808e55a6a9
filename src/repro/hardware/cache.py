"""Cache models.

Two complementary models are provided:

* :class:`AnalyticCacheModel` -- the closed-form hit-ratio model the paper
  uses in Section 4.3 and Section 5.3: a working set of size ``H`` probed
  uniformly at random against a cache of size ``S`` hits with probability
  ``min(S / H, 1)``.  This is what the cost models and the device simulators
  use, because it is exact for uniform random probing under LRU in the
  steady state and is independent of the data scale.
* :class:`SetAssociativeCache` -- a line-granular LRU set-associative cache
  simulator.  It is far too slow to run at the paper's data scale but it is
  used by the test suite to validate the analytic model (the paper cites
  Mei & Chu's finding that the V100 L2 behaves as an LRU set-associative
  cache) and by the ablation experiments on small traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import CacheLevelSpec


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

    def miss_ratio(self, working_set_bytes: float) -> float:
        """Complement of :meth:`hit_ratio`."""
        return 1.0 - self.hit_ratio(working_set_bytes)

    def fits(self, working_set_bytes: float) -> bool:
        """True when the working set fits entirely in the cache."""
        return working_set_bytes <= self.capacity_bytes


@dataclass
class CacheHierarchy:
    """An ordered sequence of analytic cache levels (L1 -> L2 -> ... -> LLC).

    ``effective_capacity_bytes`` optionally reduces the capacity of a level,
    which the full-query model of Section 5.3 needs: the part hash table
    competes for the GPU L2 with the supplier and date hash tables, leaving
    only ``6 MB - 0.3 MB = 5.7 MB`` available.
    """

    levels: list[AnalyticCacheModel]

    @classmethod
    def from_specs(cls, specs: tuple[CacheLevelSpec, ...] | list[CacheLevelSpec]) -> "CacheHierarchy":
        return cls(levels=[AnalyticCacheModel(s.capacity_bytes, s.line_bytes) for s in specs])

    def hit_level(self, working_set_bytes: float) -> int | None:
        """Index of the smallest level the working set fits in, or ``None``."""
        for index, level in enumerate(self.levels):
            if level.fits(working_set_bytes):
                return index
        return None

    def memory_access_probability(self, working_set_bytes: float) -> float:
        """Probability a random probe misses every level and reaches memory."""
        if not self.levels:
            return 1.0
        return self.levels[-1].miss_ratio(working_set_bytes)

    def last_level(self) -> AnalyticCacheModel:
        return self.levels[-1]


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

    @classmethod
    def from_spec(cls, spec: CacheLevelSpec) -> "SetAssociativeCache":
        return cls(spec.capacity_bytes, spec.line_bytes, spec.associativity)

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

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)
