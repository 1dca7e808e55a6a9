"""Zone maps: per-zone column statistics for data skipping.

The paper's tile-based execution model prices a scan by the bytes it
actually moves (Section 3.3), and its compression discussion (Section 5.5)
argues the way to go faster once kernels saturate bandwidth is to *move
fewer bytes*.  Zone maps are the statistics side of that argument: each
column is summarized per fixed-size zone of rows (default 4096) by its
min/max -- plus an exact value bitset when the column's whole domain spans
at most 64 distinct integers, which covers SSB's flag-like columns
(``lo_discount``, ``lo_quantity``, ``d_year``) -- so a predicate can be
*folded* against the statistics and whole zones classified as

* **skip** -- no row can satisfy the predicate (never materialized),
* **take-all** -- every row satisfies it (taken without evaluation),
* **evaluate** -- the statistics are inconclusive; rows are evaluated.

Folding is sound, never exact: a zone is only classified skip/take-all
when the statistics *prove* the outcome for every row, so a pruned scan
produces byte-identical answers and profiles to an unpruned one.  On data
with locality (a fact table clustered by its date key -- the order real
lineorder data arrives in) pruning skips most zones of a selective scan;
on adversarially uniform data everything degenerates to *evaluate* and
the pipeline simply runs the PR 4 selection-vector plane.

:class:`TableZoneMaps` also owns the table's **packed column twins**:
non-negative integer columns whose domain fits ``<= 16`` bits are lazily
bit-packed (:class:`~repro.storage.compression.BitPackedColumn`) so filter
conjuncts and probe key gathers can read packed words
(:meth:`~repro.storage.compression.BitPackedColumn.unpack_at`) instead of
full-width 4-byte values.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.ssb.queries import And, FilterSpec, Leaf, Not, Or, as_pred
from repro.storage.compression import PACK_CHUNK_VALUES, BitPackedColumn, bits_needed
from repro.storage.table import Table

#: Rows per zone.  A power of two so selection-vector row ids map to zone
#: ids with one shift.
DEFAULT_ZONE_SIZE = 4096

#: Largest column domain (``max - min + 1``) that gets an exact per-zone
#: value bitset alongside min/max.
BITSET_DOMAIN = 64

#: Largest bit width at which a column gets a packed twin for compressed
#: gathers (the paper's small-domain SSB columns all fit).
PACKED_MAX_BITS = 16

#: Tri-state zone classifications.  ``SKIP < EVALUATE < TAKE`` so predicate
#: trees fold with ``minimum`` (And), ``maximum`` (Or), and negation (Not).
ZONE_SKIP = np.int8(-1)
ZONE_EVALUATE = np.int8(0)
ZONE_TAKE = np.int8(1)


def _is_numeric(value: object) -> bool:
    """Whether a resolved predicate constant is an honest number.

    Folding must stay silent (classify *evaluate*) for anything else --
    e.g. a string constant against a numeric column -- so the evaluation
    path raises exactly the error the unpruned executor would have raised
    instead of the zone map silently skipping the faulty comparison.
    """
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _zone_bitsets(values: np.ndarray, low: int, zone_size: int) -> np.ndarray:
    """Per-zone bitsets of ``values`` (bit ``v - low`` set iff ``v`` occurs).

    Reduced :data:`~repro.storage.compression.PACK_CHUNK_VALUES` rows (in
    whole zones) at a time, so the ``int64`` and ``uint64`` scratch is
    chunk-sized; column-wide it is 16 bytes per row (48 MB on a 3 M-row
    fact column, more than any query over it allocates).
    """
    step = max(PACK_CHUNK_VALUES // zone_size, 1) * zone_size
    parts = [np.empty(0, dtype=np.uint64)]
    for start in range(0, int(values.shape[0]), step):
        chunk = values[start : start + step]
        bits = np.uint64(1) << (chunk.astype(np.int64) - low).astype(np.uint64)
        parts.append(np.bitwise_or.reduceat(bits, np.arange(0, chunk.shape[0], zone_size, dtype=np.int64)))
    return np.concatenate(parts)


@dataclass(frozen=True)
class ColumnZoneStats:
    """Per-zone min/max (and optional exact value bitsets) of one column."""

    column: str
    zone_size: int
    num_rows: int
    #: Per-zone minima / maxima, ``int64``.
    mins: np.ndarray
    maxs: np.ndarray
    #: Column-wide bounds (``mins.min()`` / ``maxs.max()``).
    low: int
    high: int
    #: Per-zone value bitsets (bit ``v - low`` set iff ``v`` occurs in the
    #: zone) when the domain spans at most :data:`BITSET_DOMAIN` values.
    bitsets: np.ndarray | None

    @property
    def num_zones(self) -> int:
        return int(self.mins.shape[0])

    @classmethod
    def build(cls, column: str, values: np.ndarray, zone_size: int) -> "ColumnZoneStats":
        """Summarize ``values`` into per-zone statistics (one reduction pass)."""
        n = int(values.shape[0])
        starts = np.arange(0, n, zone_size, dtype=np.int64)
        mins = np.minimum.reduceat(values, starts).astype(np.int64)
        maxs = np.maximum.reduceat(values, starts).astype(np.int64)
        low = int(mins.min())
        high = int(maxs.max())
        bitsets = None
        if high - low + 1 <= BITSET_DOMAIN:
            bitsets = _zone_bitsets(values, low, zone_size)
        return cls(
            column=column,
            zone_size=zone_size,
            num_rows=n,
            mins=mins,
            maxs=maxs,
            low=low,
            high=high,
            bitsets=bitsets,
        )

    def extend(self, values: np.ndarray) -> "ColumnZoneStats":
        """Statistics of the grown column ``values``, reusing sealed zones.

        ``values`` is the *full* column after an append.  Zones that were
        fully sealed (every row already summarized) keep their min/max --
        and their bitsets, shifted when the column-wide ``low`` dropped --
        while the old partial tail zone and every new zone are re-reduced.
        The result is byte-identical to :meth:`build` over ``values`` (the
        extension tests hold the two together), so extended and fresh maps
        prune identically; only the work is delta-proportional.
        """
        n = int(values.shape[0])
        if n < self.num_rows:
            raise ValueError(
                f"column {self.column!r} shrank from {self.num_rows} to {n} rows; "
                f"zone statistics only extend under appends"
            )
        if n == self.num_rows:
            return self
        sealed = self.num_rows // self.zone_size
        tail_start = sealed * self.zone_size
        tail_values = values[tail_start:]
        starts = np.arange(0, n - tail_start, self.zone_size, dtype=np.int64)
        mins = np.concatenate(
            [self.mins[:sealed], np.minimum.reduceat(tail_values, starts).astype(np.int64)]
        )
        maxs = np.concatenate(
            [self.maxs[:sealed], np.maximum.reduceat(tail_values, starts).astype(np.int64)]
        )
        low = int(mins.min())
        high = int(maxs.max())
        bitsets = None
        if high - low + 1 <= BITSET_DOMAIN:
            # The old span is contained in the new one, so sealed-zone
            # bitsets (relative to the old low) re-base with one shift.
            tail_bitsets = _zone_bitsets(tail_values, low, self.zone_size)
            if sealed:
                # A new span <= 64 implies the (contained) old span was too,
                # so sealed zones always have bitsets to shift.
                head = self.bitsets[:sealed] << np.uint64(self.low - low)
            else:
                head = np.empty(0, dtype=np.uint64)
            bitsets = np.concatenate([head, tail_bitsets])
        return ColumnZoneStats(
            column=self.column,
            zone_size=self.zone_size,
            num_rows=n,
            mins=mins,
            maxs=maxs,
            low=low,
            high=high,
            bitsets=bitsets,
        )

    # ------------------------------------------------------------------
    def _membership(self, constants) -> np.uint64:
        """Bitset of the domain values appearing in ``constants``."""
        member = np.uint64(0)
        for value in constants:
            if self.low <= value <= self.high and float(value).is_integer():
                member |= np.uint64(1) << np.uint64(int(value) - self.low)
        return member

    def classify_spec(self, spec: FilterSpec, constant) -> np.ndarray:
        """Fold one comparison against the zone statistics (tri-state per zone).

        ``constant`` is the already-resolved value (dictionary codes for
        encoded specs).  Returns :data:`ZONE_TAKE` only where every row of
        the zone provably satisfies the comparison and :data:`ZONE_SKIP`
        only where provably no row can.
        """
        mins, maxs = self.mins, self.maxs
        op = spec.op
        if op in ("between",) and isinstance(constant, (tuple, list)) and len(constant) == 2:
            lo, hi = constant
            if not (_is_numeric(lo) and _is_numeric(hi)):
                return np.zeros(self.num_zones, dtype=np.int8)
            take = (lo <= mins) & (maxs <= hi)
            skip = (maxs < lo) | (mins > hi)
        elif op == "in":
            if not isinstance(constant, (tuple, list, set, frozenset, np.ndarray)) or not all(
                _is_numeric(v) for v in constant
            ):
                return np.zeros(self.num_zones, dtype=np.int8)
            hit_any = np.zeros(self.num_zones, dtype=bool)
            for value in constant:
                hit_any |= (mins <= value) & (value <= maxs)
            skip = ~hit_any
            if self.bitsets is not None:
                member = self._membership(constant)
                skip = skip | ((self.bitsets & member) == 0)
                take = (self.bitsets & ~member) == 0
            else:
                # Min/max alone can only prove membership for constant zones.
                take = (mins == maxs) & hit_any & np.isin(mins, np.asarray(list(constant)))
        elif op in ("eq", "ne", "lt", "le", "gt", "ge"):
            if not _is_numeric(constant):
                return np.zeros(self.num_zones, dtype=np.int8)
            if op == "eq" or op == "ne":
                take = (mins == constant) & (maxs == constant)
                skip = (maxs < constant) | (mins > constant)
                if self.bitsets is not None:
                    member = self._membership((constant,))
                    skip = skip | ((self.bitsets & member) == 0)
                if op == "ne":
                    take, skip = skip, take
            elif op == "lt":
                take, skip = maxs < constant, mins >= constant
            elif op == "le":
                take, skip = maxs <= constant, mins > constant
            elif op == "gt":
                take, skip = mins > constant, maxs <= constant
            else:  # ge
                take, skip = mins >= constant, maxs < constant
        else:
            return np.zeros(self.num_zones, dtype=np.int8)
        out = np.zeros(self.num_zones, dtype=np.int8)
        out[take] = ZONE_TAKE
        out[skip] = ZONE_SKIP
        return out


class TableZoneMaps:
    """Lazily-built zone statistics (and packed twins) for one table.

    Statistics are built per column on first use and memoized; the instance
    is meant to be cached per table by
    :class:`~repro.engine.cache.ZoneMapCache` and shared across queries.
    Only integer columns are summarized -- which covers every stored SSB
    column, since strings are dictionary-encoded to int32 codes at load
    time.
    """

    def __init__(self, table: Table, zone_size: int = DEFAULT_ZONE_SIZE) -> None:
        if zone_size < 1 or zone_size & (zone_size - 1):
            raise ValueError(f"zone_size must be a power of two, got {zone_size}")
        self.table = table
        self.zone_size = zone_size
        self.zone_shift = int(zone_size).bit_length() - 1
        self._stats: dict[str, ColumnZoneStats | None] = {}
        self._packed: dict[str, BitPackedColumn | None] = {}
        # Guards the lazy construction: morsel-parallel workers share one
        # instance per table, and a column's reduction/packing pass should
        # run once, not once per racing worker.
        self._lock = threading.Lock()

    @property
    def num_zones(self) -> int:
        return -(-self.table.num_rows // self.zone_size) if self.table.num_rows else 0

    def zone_of(self, sel: np.ndarray) -> np.ndarray:
        """Zone id of each row id in ``sel`` (one shift; zones are 2**k rows)."""
        return sel >> self.zone_shift

    # ------------------------------------------------------------------
    def stats(self, column: str) -> ColumnZoneStats | None:
        """Zone statistics for ``column`` (``None`` for non-integer/empty columns).

        Built on first use under the instance lock, so concurrent workers
        sharing the cached instance run each column's reduction pass
        exactly once.
        """
        if column in self._stats:
            return self._stats[column]
        with self._lock:
            if column not in self._stats:
                values = self.table[column] if column in self.table else None
                if values is None or values.shape[0] == 0 or not np.issubdtype(values.dtype, np.integer):
                    self._stats[column] = None
                else:
                    self._stats[column] = ColumnZoneStats.build(column, values, self.zone_size)
            return self._stats[column]

    def packed(self, column: str) -> BitPackedColumn | None:
        """The packed twin of ``column`` (``None`` if its domain needs > 16 bits).

        Packing keys off the zone statistics: non-negative integer columns
        whose max fits in :data:`PACKED_MAX_BITS` bits are packed once
        (under the instance lock, like :meth:`stats`) and memoized, so
        later selection-vector gathers can decode packed words instead of
        touching 4-byte values.
        """
        if column in self._packed:
            return self._packed[column]
        stats = self.stats(column)
        with self._lock:
            if column not in self._packed:
                if stats is None or stats.low < 0 or bits_needed(stats.high) > PACKED_MAX_BITS:
                    self._packed[column] = None
                else:
                    self._packed[column] = BitPackedColumn.pack(self.table.column(column))
            return self._packed[column]

    def packed_for(self, columns, *, build: bool = True) -> dict[str, BitPackedColumn]:
        """Packed twins for the subset of ``columns`` that have one.

        ``build=False`` returns only the twins already packed: packing reads
        the whole column, which a caller bound to O(rows it reads) must not.
        """
        out = {}
        for column in columns:
            twin = self.packed(column) if build else self._packed.get(column)
            if twin is not None:
                out[column] = twin
        return out

    # ------------------------------------------------------------------
    def extended_to(self, table: Table) -> "TableZoneMaps":
        """Zone maps for a grown version of this instance's table.

        The incremental-maintenance path of
        :class:`~repro.engine.cache.ZoneMapCache`: instead of throwing the
        statistics away on every append, each already-built column carries
        its sealed-zone stats forward (:meth:`ColumnZoneStats.extend`) and
        each packed twin repacks only the affected words
        (:meth:`~repro.storage.compression.BitPackedColumn.extend`) -- or
        repacks fresh in the rare case an append widens the bit width.
        Columns never touched stay lazy, exactly as in a fresh instance.

        ``table`` must be a same-name, append-grown successor (the cache
        guarantees this via the table version); extended statistics are
        byte-identical to freshly built ones.
        """
        ext = TableZoneMaps(table, zone_size=self.zone_size)
        with self._lock:
            carried_stats = dict(self._stats)
            carried_packed = dict(self._packed)
        for column, stats in carried_stats.items():
            if stats is None or column not in table:
                # None means empty/non-integer at build time; re-derive
                # lazily against the grown data instead of guessing.
                continue
            values = table[column]
            if values.shape[0] < stats.num_rows or not np.issubdtype(values.dtype, np.integer):
                continue
            ext._stats[column] = stats.extend(values)
        for column, packed in carried_packed.items():
            stats = ext._stats.get(column)
            if stats is None:
                continue  # stats not carried; the twin re-derives lazily
            if stats.low < 0 or bits_needed(stats.high) > PACKED_MAX_BITS:
                ext._packed[column] = None
                continue
            if packed is not None and bits_needed(stats.high) == packed.bit_width:
                ext._packed[column] = packed.extend(table[column][packed.num_values :])
            else:
                # The append widened the domain past the old bit width (or
                # the twin was never eligible before): pack fresh.
                ext._packed[column] = BitPackedColumn.pack(table.column(column))
        return ext

    # ------------------------------------------------------------------
    def classify(self, pred) -> np.ndarray | None:
        """Fold a predicate tree against the zone statistics.

        Returns a tri-state ``int8`` array of :attr:`num_zones` entries
        (:data:`ZONE_SKIP` / :data:`ZONE_EVALUATE` / :data:`ZONE_TAKE`), or
        ``None`` when the statistics prove nothing anywhere (every zone
        would be *evaluate*), so callers can fall straight through to the
        unpruned path.  Folding follows the tree shape: ``And`` is the
        tri-state minimum, ``Or`` the maximum, ``Not`` the negation --
        exactly the Kleene three-valued connectives.
        """
        cls = self._classify(as_pred(pred))
        if cls is None or not cls.any():
            return None
        return cls

    def _classify(self, pred) -> np.ndarray | None:
        if self.num_zones == 0:
            return None
        if isinstance(pred, Leaf):
            return self._classify_leaf(pred.spec)
        if isinstance(pred, And):
            out = np.full(self.num_zones, ZONE_TAKE, dtype=np.int8)
            for child in pred.children:
                folded = self._classify(child)
                out = np.minimum(out, ZONE_EVALUATE if folded is None else folded)
            return out
        if isinstance(pred, Or):
            out = np.full(self.num_zones, ZONE_SKIP, dtype=np.int8)
            for child in pred.children:
                folded = self._classify(child)
                out = np.maximum(out, ZONE_EVALUATE if folded is None else folded)
            return out
        if isinstance(pred, Not):
            folded = self._classify(pred.child)
            return None if folded is None else (-folded).astype(np.int8)
        raise TypeError(f"unsupported predicate node {type(pred).__name__}")

    def _classify_leaf(self, spec: FilterSpec) -> np.ndarray | None:
        stats = self.stats(spec.column)
        if stats is None:
            return None
        # Deferred import: expr builds on the storage layer.
        from repro.engine.expr import resolve_filter_value

        try:
            constant = resolve_filter_value(self.table, spec)
        except Exception:
            # Resolution problems (missing dictionary, unknown label) must
            # surface from the evaluation path, not vanish into a skip.
            return None
        return stats.classify_spec(spec, constant)


def cluster_by(db, table_name: str, column: str):
    """A database whose ``table_name`` rows are sorted by ``column``.

    Zone maps are statistics, and statistics need locality to prove
    anything: clustering a fact table by its date key (the order real
    lineorder data arrives in) is the physical-design decision that makes
    date-derived predicates prunable.  Dimension tables and dictionaries
    are shared with the source database; only the clustered table is
    re-materialized (stable sort, so equal-key runs keep their order).

    Clustering is a **one-shot physical-design decision, not an invariant**:
    the returned table starts at version 0 and rows appended to it later
    (:meth:`~repro.storage.Table.append`) land in arrival order at the
    tail, *not* in cluster order.  That is sound by construction -- zone
    classification folds per-zone statistics, so the unclustered tail
    zones simply classify as *evaluate* for predicates the sorted prefix
    can skip -- answers stay byte-identical, and the sorted prefix keeps
    pruning at full strength.  Pruning effectiveness over the tail only
    degrades to the uniform-data baseline until the caller re-clusters
    (runs ``cluster_by`` again over the grown table), which is the
    compaction step a production system would schedule; the appended-tail
    test in ``tests/test_zonemap.py`` pins both halves of this contract.
    """
    # Deferred import: Database lives above this module in the package.
    from repro.storage.database import Database

    table = db.table(table_name)
    order = np.argsort(table[column], kind="stable")
    clustered = Database(name=f"{db.name}_by_{column}")
    sorted_table = table.select_rows(order)
    sorted_table.name = table_name
    clustered.add_table(sorted_table)
    for name, other in db.tables.items():
        if name != table_name:
            clustered.add_table(other)
    return clustered

