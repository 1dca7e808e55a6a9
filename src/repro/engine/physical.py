"""The staged physical pipeline: LogicalPlan -> PhysicalPlan -> execution.

The paper's central result is that engine performance is determined by *how
work maps onto stages* -- build vs. probe passes, fused tile kernels vs.
operator-at-a-time materialization (Sections 3.3 and 5.2).  This module
makes those stages explicit: a declarative :class:`~repro.ssb.queries.SSBQuery`
is first normalized into a :class:`LogicalPlan`, then lowered to a
:class:`PhysicalPlan` of discrete operators:

* :class:`ScanFilter` -- one per top-level conjunct of the fact predicate,
* :class:`BuildLookup` -- one hash-table build per dimension join,
* :class:`ProbeJoin` -- the corresponding probe over the surviving rows,
* :class:`Aggregate` -- the final (grouped) reduction.

Each operator emits its own slice of the shared
:class:`~repro.engine.plan.QueryProfile` while executing exactly (NumPy), so
all six engines cost identical profiles to the seed monolithic executor
(:func:`~repro.engine.plan.execute_query_monolithic`) -- the differential
tests in ``tests/test_physical.py`` hold the two paths byte-identical.

The data plane is a **row span, then late-materialization selection
vectors**.  An execution covers fact rows ``[lo, hi)`` -- the whole table
for :func:`execute_physical`, one shard's range or one standing-query
tick's appended rows for :func:`execute_physical_partial` -- and until an
operator actually drops a row, "every row of the span is alive" is a state
(``sel is None``), not a materialized row-id vector: the first filter
conjunct and the first probe
read ``column[lo:hi]`` views, the sequential tile loads the paper prices at
``bytes / bandwidth`` (Sections 3.2 and 4.1-4.2), never a span-wide gather.
The first operator that drops rows compacts the survivors once
(``np.flatnonzero``), and every downstream operator -- later filter
conjuncts, probes, payload gathers, the measure expression, the group-by --
works at selection-vector width.  Payload codes ride along in the narrow
dtype of their dimension's lookup, and the grouped aggregate factorizes
packed-radix int64 keys (:func:`~repro.engine.plan.factorize_group_keys`)
instead of sorting row tuples.  Only the *mechanics* changed: answers and
profiles stay byte-identical to the full-width mask reference, so the cost
models are untouched (the ledger's ``ssb_uniform`` workload measures the
wall clock: ``engine.scan_ms``, ``engine.probe_ms``, ``engine.aggregate_ms``).

Those mechanics follow three rules (``tests/test_pipeline_selection.py``
holds each without reading a clock):

* **Indices are ``intp``, widened a tile at a time.**  NumPy gathers through
  a narrower index vector by casting it in buffered chunks (~4x the cost),
  so :class:`ProbeJoin` widens :data:`PROBE_TILE_ROWS` keys at a time into
  one reused, cache-resident ``intp`` buffer and gathers straight into
  its output -- the paper's ``BlockLoad`` -> ``BlockLookup`` (Section 3.3).
* **Compaction is by index vector, never by mask.**  A mask becomes
  ``np.flatnonzero(mask)`` once, and ``sel``, the surviving keys and every
  carried payload ride the same ``ndarray.take`` (a boolean-mask subscript
  costs ~5x that).
* **Dimension builds outlive the query**: a :class:`~repro.api.Session`
  runs every execution under its
  :class:`~repro.engine.cache.BuildArtifactCache`.  Every lookup has one
  layout: slot 0 answers the dimension key column's minimum
  (:attr:`BuildArtifact.key_base`, taken from the keys the build is already
  scanning), so a ``date`` lookup holds ~61 K entries, not the ~20 M a
  zero-based array over ``d_datekey`` would.

Tiling *whole operators* (a query as partials over row tiles) was measured
and loses at every tile size: NumPy kernels at 1-2 GB/s are
instruction-bound, so cache-resident temporaries cannot pay for the Python
per tile (``benchmarks/bench_fig09_tile_sizes.py`` keeps both sweeps).

On top of the selection vectors sits the **pruned, compression-aware scan
plane** (on whenever the execution context carries a
:class:`~repro.engine.cache.ZoneMapCache`, which a
:class:`~repro.api.Session`'s does by default): :func:`lower` folds
each fact-filter conjunct against per-zone min/max + tiny-domain bitset
statistics (:mod:`repro.storage.zonemap`) so :class:`ScanFilter` skips
provably-empty zones and takes provably-full ones whole -- in span state by
walking the maximal runs of equal class among the span's zones, one slice
scan per *evaluate* run; :class:`ProbeJoin`
skips fact zones whose key range cannot intersect the build's present keys
and drops its range-validity mask when statistics prove every key in
bounds; and sparse gathers decode ``<= 16``-bit columns from packed words.
All of it is *sound* -- zones are only skipped or taken when statistics
prove the outcome -- so answers and profiles remain byte-identical to the seed
executor (``tests/test_zonemap.py`` holds all three planes together, and
the ledger's date-clustered ``ssb_sharded`` workload reports what pruning
buys: ``zonemap.zones_skipped``, ``zonemap.rows_pruned``).

The decomposition buys what the monolithic pass could not offer, **shared
build artifacts**: :class:`BuildLookup` products are immutable
:class:`BuildArtifact` values keyed by ``(dimension, key_column,
payload_column, predicate)``; with a
:class:`~repro.engine.cache.BuildArtifactCache` in the context, queries
touching the same dimensions construct each distinct lookup exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.context import current
from repro.engine.cache import BuildArtifactCache, ZoneMapCache
from repro.engine.expr import (
    evaluate_pred,
    evaluate_pred_at,
    predicate_leaf_count,
    predicate_or_branches,
)
from repro.engine.plan import (
    HASH_ENTRY_BYTES,
    ColumnAccess,
    FilterStage,
    JoinStage,
    PartialAggregate,
    QueryProfile,
    build_dimension_lookup,
    combine_measures,
    factorize_group_keys,
    finalize_partial,
    grouped_aggregate_values,
    scalar_aggregate_values,
    validate_aggregate,
)
from repro.ssb.queries import AggregateSpec, Pred, SSBQuery, conjuncts
from repro.storage import Database, Table
from repro.storage.zonemap import (
    ZONE_EVALUATE,
    ZONE_SKIP,
    ZONE_TAKE,
    TableZoneMaps,
)

# ----------------------------------------------------------------------
# Logical plan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LogicalJoin:
    """One equi-join edge of the star: fact ``source_key`` = dimension key."""

    source_key: str
    dimension: str
    dimension_key: str
    predicate: Pred
    payload: str | None

    @property
    def build_key(self) -> Hashable:
        """Identity of this join's hash-table build.

        Two joins share a build artifact exactly when dimension, key column,
        payload column, and dimension predicate all coincide -- the key of
        :class:`~repro.engine.cache.BuildArtifactCache`.
        """
        return (self.dimension, self.dimension_key, self.payload, self.predicate)


@dataclass(frozen=True)
class LogicalPlan:
    """A normalized, engine-independent description of one query."""

    query: SSBQuery
    fact: str
    predicate: Pred
    joins: tuple[LogicalJoin, ...]
    group_by: tuple[str, ...]
    aggregate: AggregateSpec

    @classmethod
    def from_query(cls, query: SSBQuery) -> "LogicalPlan":
        """Normalize a declarative spec (legacy filter tuples included)."""
        joins = tuple(
            LogicalJoin(
                source_key=join.fact_key,
                dimension=join.dimension,
                dimension_key=join.dimension_key,
                predicate=join.predicate,
                payload=join.payload,
            )
            for join in query.joins
        )
        return cls(
            query=query,
            fact=query.fact,
            predicate=query.predicate,
            joins=joins,
            group_by=query.group_by,
            aggregate=query.aggregate,
        )


# ----------------------------------------------------------------------
# Build artifacts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BuildArtifact:
    """The immutable product of one dimension hash-table build.

    Carries the perfect-hash lookup arrays *and* every dimension-side
    quantity the profile's :class:`~repro.engine.plan.JoinStage` needs, so a
    probe against a cached artifact emits exactly the profile slice a fresh
    build would.  Arrays are marked read-only: artifacts are shared across
    queries in a batch, never copied.
    """

    dimension: str
    dimension_rows: int
    build_rows: int
    hash_table_bytes: float
    build_scan_bytes: float
    lookup: np.ndarray
    present: np.ndarray
    #: Key of slot 0: ``lookup[k - key_base]`` answers dimension key ``k``.
    #: Builds set it to the key column's minimum, so sparse key domains
    #: (dates) get compact arrays.
    key_base: int = 0
    #: Range of the keys actually present (``[0, -1]`` for an empty build),
    #: so probes can zone-skip fact rows whose keys cannot possibly match.
    key_low: int = 0
    key_high: int = -1


# ----------------------------------------------------------------------
# Execution state threaded through the operators
# ----------------------------------------------------------------------

#: A selection-vector gather reads packed words only when it touches fewer
#: than ``1/this`` of the fact rows (see :meth:`PipelineState.packed_for`).
PACKED_GATHER_DENOMINATOR = 32

#: Rows per probe tile (a multiple of the 4096-row zone; the 512 KiB slot
#: buffer stays L2 resident).  From ``test_probe_tile_sweep_measured`` in
#: ``benchmarks/bench_fig09_tile_sizes.py`` -- span-state probe of 4 M keys,
#: median/min ms of 6 interleaved rounds, 2 MiB L2: 2 K 19.0/16.9, 4 K
#: 16.2/14.2, 8 K 14.6/12.4, 16 K 12.3/11.5, 32 K 12.4/11.1, **64 K
#: 11.9/11.1**, 128 K 12.7/11.4, 256 K 12.9/12.5, 512 K 14.3/12.8, one tile
#: 17.2/16.5.
PROBE_TILE_ROWS = 64 * 1024


def _concat(pieces: list) -> np.ndarray:
    """Already-ascending pieces as one array (no copy for a single piece)."""
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def _survivors(mask: np.ndarray) -> np.ndarray | None:
    """Positions of the true entries of ``mask``; ``None`` when all are true."""
    return None if np.count_nonzero(mask) == mask.size else np.flatnonzero(mask)


@dataclass
class PipelineState:
    """Mutable state one query execution threads through its operators.

    The execution covers the fact rows of the **span** ``[lo, hi)``.  While
    ``sel`` is ``None`` every row of the span is alive and operators read
    contiguous ``column[lo:hi]`` views; the first operator that drops a row
    turns the survivors into a **selection vector** (:meth:`seed`): ``sel``
    holds their global row ids, ascending.  Every payload code array in
    ``group_columns`` is carried at the width of the alive rows and
    compacted in lockstep whenever an operator shrinks them -- late
    materialization: after the scan cuts the batch to its few surviving
    rows, no downstream operator touches span-width arrays again.
    """

    db: Database
    fact: Table
    query_name: str
    profile: QueryProfile
    rows_alive: float
    #: The row span ``[lo, hi)`` this execution covers.
    lo: int
    hi: int
    #: Zone statistics of the fact table (``None`` = data skipping off);
    #: ``zone_cache`` additionally collects the skip/take/evaluate counters.
    zones: TableZoneMaps | None = None
    zone_cache: ZoneMapCache | None = None
    #: Selection vector of surviving fact row ids (``None`` = whole span alive).
    sel: np.ndarray | None = None
    #: Filter columns already charged to the profile (each exactly once).
    charged: set = field(default_factory=set)
    #: Build artifacts by logical-join identity (``id()``), for the probes
    #: to consume.  Keyed by identity, not by build key, because hand-built
    #: predicates can hold unhashable constants (e.g. a list in an ``in``
    #: filter) -- such queries must still run, just without sharing.
    artifacts: dict = field(default_factory=dict)
    #: Payload code arrays by column name, at the width of the alive rows.
    group_columns: dict = field(default_factory=dict)
    #: The aggregate stage's output: the mergeable partial, and the answer
    #: finalized from it (set by :meth:`Aggregate.run`).
    partial: PartialAggregate | None = None
    value: object = None

    def rows(self) -> "np.ndarray | slice":
        """Index of the alive rows: the selection vector, or the span as a slice."""
        return self.sel if self.sel is not None else slice(self.lo, self.hi)

    def span_zones(self) -> slice:
        """The zone ids the span overlaps (the zones its counters may count)."""
        shift = self.zones.zone_shift
        first = self.lo >> shift
        return slice(first, ((self.hi - 1) >> shift) + 1 if self.hi > self.lo else first)

    def zone_runs(self, cls: np.ndarray | None):
        """Maximal runs of equal zone class over the span, as row ranges.

        Yields ascending ``(category, start, stop)`` with the rows clipped
        to ``[lo, hi)``, so a span may start and stop mid-zone.  Without a
        classification the whole span is one *evaluate* run; an empty span
        has no runs.
        """
        if self.hi <= self.lo:
            return
        if cls is None:
            yield ZONE_EVALUATE, self.lo, self.hi
            return
        zones = self.span_zones()
        span = cls[zones]
        shift = self.zones.zone_shift
        edges = [0, *(np.flatnonzero(span[1:] != span[:-1]) + 1).tolist(), span.size]
        for a, b in zip(edges, edges[1:]):
            start, stop = (zones.start + a) << shift, (zones.start + b) << shift
            yield span[a], max(start, self.lo), min(stop, self.hi)

    def seed(self, runs: list) -> None:
        """Leave span state for the survivors of ``runs`` -- if any row dropped.

        ``runs`` are ascending ``(start, stop, survivors)`` row ranges of
        the span, ``survivors`` as :func:`_survivors` returns them; span
        rows outside every run are dropped.  When nothing was dropped the
        span *stays* the selection (no row-id vector is built); otherwise
        the pieces concatenate already ascending.
        """
        alive = sum(b - a if idx is None else idx.size for a, b, idx in runs)
        self.rows_alive = float(alive)
        if alive == self.hi - self.lo:
            return
        pieces = []
        for a, b, idx in runs:
            if idx is None:
                idx = np.arange(a, b, dtype=np.int64)
            elif a:
                idx += a
            pieces.append(idx)
        self.sel = _concat(pieces)
        if self.group_columns:
            at = self.sel - self.lo
            for name, codes in self.group_columns.items():
                self.group_columns[name] = codes.take(at)

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the selection vector (and every carried payload) to ``keep``.

        ``keep`` is an **index vector** -- the ascending positions, within
        the current selection, of the survivors (``np.flatnonzero`` of the
        caller's mask, taken once).  The payload arrays stay aligned with
        ``sel`` by construction, so a probe that drops rows compacts them all
        in one pass over the (small) survivor set instead of re-gathering
        from full-width arrays.
        """
        self.sel = self.sel.take(keep)
        for name, codes in self.group_columns.items():
            self.group_columns[name] = codes.take(keep)
        self.rows_alive = float(self.sel.size)

    def record_zones(self, cls: np.ndarray, rows_pruned: int) -> None:
        """Count ``cls`` over the span's zones only, so the counters of
        zone-aligned shards add up to the single-process ones."""
        if self.zone_cache is None:
            return
        span = cls[self.span_zones()]
        skipped = int(np.count_nonzero(span == ZONE_SKIP))
        taken = int(np.count_nonzero(span == ZONE_TAKE))
        self.zone_cache.record(
            skipped=skipped,
            taken=taken,
            evaluated=int(span.size) - skipped - taken,
            rows_pruned=int(rows_pruned),
        )

    def packed_for(self, columns, width: int) -> dict | None:
        """Packed twins for ``columns``, for a gather of ``width`` rows.

        ``None`` when data skipping is off or the gather is too wide:
        decoding packed words costs shift/mask work per value, which a real
        machine buys back in bandwidth but a NumPy reproduction pays in
        wall clock, so the compressed gather path is reserved for sparse
        selections (< 1/:data:`PACKED_GATHER_DENOMINATOR` of the fact
        rows), where the byte saving is also at its largest.  The operator
        models in ``repro.ops`` charge the full packed-scan economics.

        Only a span over the whole table packs a twin on first use: packing
        reads the whole column, and a ranged execution -- an extended
        answer's appended rows -- must cost O(range).  A range decodes the
        twins already packed (a shard worker's are all pre-packed).
        """
        if self.zones is None or width * PACKED_GATHER_DENOMINATOR > self.fact.num_rows:
            return None
        whole = self.lo == 0 and self.hi == self.fact.num_rows
        return self.zones.packed_for(columns, build=whole) or None


# ----------------------------------------------------------------------
# Physical operators
# ----------------------------------------------------------------------


class ScanFilter:
    """Apply one top-level conjunct of the fact predicate to the scan.

    Models the selection stage of the pipelined probe pass: the paper's
    Section 4.2 selection variants (branching / predicated / SIMD selective
    stores) and the fused predicate lanes of the Crystal kernel (Section
    5.2).  Emits one filter :class:`~repro.engine.plan.ColumnAccess` per
    newly-referenced column (a single scan feeds every comparison, so each
    column's bytes are charged exactly once per query) and one
    :class:`~repro.engine.plan.FilterStage` recording the term's row shrink
    and branchiness.

    In span state the conjunct scans ``column[lo:hi]`` views and compacts
    the survivors into the selection vector once (``np.flatnonzero``);
    every later conjunct evaluates only at the surviving row ids
    (:func:`~repro.engine.expr.evaluate_pred_at`), so a selective leading
    term makes the rest of the predicate nearly free.

    With a zone classification attached (the pruning pass in :func:`lower`
    folds the term against the fact table's zone statistics), the scan is
    zone-granular: *skip* zones are never materialized, *take-all* zones
    join the selection vector without evaluating the predicate, and only
    *evaluate* zones run :func:`~repro.engine.expr.evaluate_pred_at` --
    one slice scan per run of such zones in span state, a gather (over
    packed column twins where the domain fits) once rows are sparse.
    Classification is sound, so the resulting selection vector (and
    therefore the profile) is byte-identical to the unpruned scan.
    """

    def __init__(self, term: Pred, zone_cls: np.ndarray | None = None) -> None:
        self.term = term
        #: Tri-state per-zone fold of ``term`` (None = statistics silent).
        self.zone_cls = zone_cls
        #: The exact :class:`TableZoneMaps` instance the classification was
        #: folded against (set by :func:`lower`).  Under streaming ingest a
        #: zone-count check is not enough -- an append can change the tail
        #: zone's *contents* without changing the zone count -- so at run
        #: time the classification only applies when the pipeline's maps
        #: are this very instance (the version-aware
        #: :class:`~repro.engine.cache.ZoneMapCache` memoizes one instance
        #: per version, making identity equivalent to version equality).
        self.zone_maps: TableZoneMaps | None = None

    def run(self, state: PipelineState) -> None:
        profile = state.profile
        for column in self.term.columns():
            if column in state.charged:
                continue
            state.charged.add(column)
            column_bytes = float(state.fact.column(column).nbytes)
            profile.column_accesses.append(
                ColumnAccess(
                    column=column, column_bytes=column_bytes, rows_needed=state.rows_alive, role="filter"
                )
            )
        rows_in = state.rows_alive
        cls = self.zone_cls
        if cls is not None and (
            state.zones is None
            or (self.zone_maps is not None and state.zones is not self.zone_maps)
            or cls.shape[0] != state.zones.num_zones
        ):
            cls = None  # classified against other data or geometry; ignore
        pruned = 0
        if state.sel is None:
            runs = []
            for category, a, b in state.zone_runs(cls):
                if category == ZONE_SKIP:
                    pruned += b - a
                elif category == ZONE_TAKE:
                    runs.append((a, b, None))
                else:
                    keep = evaluate_pred_at(state.fact, self.term, slice(a, b))
                    runs.append((a, b, _survivors(keep)))
            state.seed(runs)
        else:
            sel = state.sel
            columns = self.term.columns()
            if cls is None:
                keep = evaluate_pred_at(state.fact, self.term, sel, packed=state.packed_for(columns, sel.size))
            else:
                # Evaluate only the survivors sitting in *evaluate* zones.
                categories = cls.take(state.zones.zone_of(sel))
                keep = categories > 0
                undecided = np.flatnonzero(categories == 0)
                if undecided.size:
                    subset = sel.take(undecided)
                    keep[undecided] = evaluate_pred_at(
                        state.fact, self.term, subset, packed=state.packed_for(columns, subset.size)
                    )
                pruned = np.count_nonzero(categories < 0)
            state.compact(np.flatnonzero(keep))
        if cls is not None:
            state.record_zones(cls, pruned)
        profile.filter_stages.append(
            FilterStage(
                columns=self.term.columns(),
                rows_in=rows_in,
                rows_out=state.rows_alive,
                leaf_count=predicate_leaf_count(self.term),
                or_branches=predicate_or_branches(self.term),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScanFilter({self.term})"


class BuildLookup:
    """Build (or fetch) one dimension's perfect-hash lookup.

    Models the build pass of the invisible-join style star join: scan the
    (filtered) dimension once and write a dense key -> payload array, the
    paper's Section 5.3 hash-table estimate of ``8 bytes x |dimension|``
    (one 4-byte key, one 4-byte payload per entry).  The product is an
    immutable :class:`BuildArtifact`; with a
    :class:`~repro.engine.cache.BuildArtifactCache` in the execution
    context, distinct builds are constructed once and shared.
    """

    def __init__(self, join: LogicalJoin) -> None:
        self.join = join

    @property
    def key(self) -> Hashable:
        return self.join.build_key

    def build(self, db: Database) -> BuildArtifact:
        """Scan the dimension and construct the lookup arrays (uncached)."""
        return self._build_from(db.table(self.join.dimension).snapshot())

    def fetch_artifact(self, db: Database, cache: BuildArtifactCache | None) -> BuildArtifact:
        """The artifact for the dimension's *current* version, cached.

        The ingest-aware fetch path: one snapshot of the dimension pins the
        data, and the cache key is ``(build_key, version)`` of that very
        snapshot -- so the key and the built content can never disagree, an
        append to the dimension simply misses into a fresh versioned entry
        (stale versions age out of the LRU), and appends to *other* tables
        leave this dimension's artifacts hitting.
        """
        dimension = db.table(self.join.dimension).snapshot()
        if cache is None:
            return self._build_from(dimension)
        key = (self.key, dimension.version)
        return cache.fetch(db, key, lambda: self._build_from(dimension))

    def _build_from(self, dimension: Table) -> BuildArtifact:
        join = self.join
        dim_mask = evaluate_pred(dimension, join.predicate)
        build_rows = int(np.count_nonzero(dim_mask))
        keys = dimension[join.dimension_key]
        base = max(int(keys.min()), 0) if keys.shape[0] else 0
        lookup, present = build_dimension_lookup(
            dimension, join.dimension_key, dim_mask, join.payload, base=base
        )
        lookup.setflags(write=False)
        present.setflags(write=False)
        if build_rows:
            selected_keys = keys[dim_mask]
            key_low, key_high = int(selected_keys.min()), int(selected_keys.max())
        else:
            key_low, key_high = 0, -1
        build_scan_bytes = float(
            dimension.column(join.dimension_key).nbytes
            + sum(dimension.column(c).nbytes for c in join.predicate.columns())
            + (dimension.column(join.payload).nbytes if join.payload else 0)
        )
        return BuildArtifact(
            dimension=join.dimension,
            dimension_rows=dimension.num_rows,
            build_rows=build_rows,
            hash_table_bytes=float(HASH_ENTRY_BYTES * dimension.num_rows),
            build_scan_bytes=build_scan_bytes,
            lookup=lookup,
            present=present,
            key_base=base,
            key_low=key_low,
            key_high=key_high,
        )

    def run(self, state: PipelineState) -> None:
        # fetch_artifact() falls through to an uncached build when the key
        # is unhashable, so exotic hand-built predicates still execute.
        state.artifacts[id(self.join)] = self.fetch_artifact(state.db, current().builds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BuildLookup({self.join.dimension!r} on {self.join.dimension_key!r})"


class ProbeJoin:
    """Probe one dimension lookup with the surviving fact rows.

    Models the probe side of the chained star join: the dependent random
    accesses the CPU cannot hide behind its streaming scan and the
    L2-vs-global probe traffic of the fused GPU kernel (Section 5.3's
    cost-model case study).  Emits the join-key
    :class:`~repro.engine.plan.ColumnAccess` and the full
    :class:`~repro.engine.plan.JoinStage` (build-side numbers come from the
    consumed :class:`BuildArtifact`, so cached and fresh builds profile
    identically).

    Index vectors end to end: keys widen to ``intp`` slots a tile at a time
    (:meth:`_slot_tiles`), the hits become one ``np.flatnonzero`` vector, and
    surviving keys, selection and carried payloads ``take`` through it.

    Zone statistics refine the probe two ways, neither of which can change
    the surviving set: fact zones whose key range cannot intersect the
    artifact's present keys (``[key_low, key_high]``) are skipped before
    any key is gathered -- those rows would all miss -- and when the key
    column's statistics prove every key lands inside the lookup, the
    per-tile range-validity mask is dropped.
    """

    def __init__(self, join: LogicalJoin) -> None:
        self.join = join

    @staticmethod
    def _slot_tiles(artifact: BuildArtifact, keys: np.ndarray):
        """``(rows, slots)`` per :data:`PROBE_TILE_ROWS` tile of ``keys``:
        ``slots`` is ``keys[rows] - key_base`` widened to ``intp`` in one
        reused tile-sized buffer, so no key-wide ``intp`` vector exists."""
        buf = np.empty(min(keys.shape[0], PROBE_TILE_ROWS), dtype=np.intp)
        for start in range(0, keys.shape[0], PROBE_TILE_ROWS):
            tile = keys[start : start + PROBE_TILE_ROWS]
            slots = buf[: tile.shape[0]]
            np.copyto(slots, tile)
            if artifact.key_base:
                slots -= artifact.key_base
            yield slice(start, start + tile.shape[0]), slots

    @classmethod
    def _hits(cls, artifact: BuildArtifact, keys: np.ndarray, in_range: bool) -> np.ndarray:
        """Membership of each key in the build.  ``mode="clip"`` gathers
        straight into ``hit`` (``"raise"`` would buffer ``out``); unless every
        key is proven ``in_range``, each tile's validity mask is AND-ed in."""
        hit = np.empty(keys.shape[0], dtype=bool)
        size = artifact.lookup.shape[0]
        for rows, slots in cls._slot_tiles(artifact, keys):
            artifact.present.take(slots, mode="clip", out=hit[rows])
            if not in_range:
                # One unsigned compare: a negative slot wraps far above ``size``.
                hit[rows] &= slots.view(np.uintp) < size
        return hit

    @classmethod
    def _payload(cls, artifact: BuildArtifact, keys: np.ndarray) -> np.ndarray:
        """The payload code of each (present) key, in the lookup's narrow dtype."""
        codes = np.empty(keys.shape[0], dtype=artifact.lookup.dtype)
        for rows, slots in cls._slot_tiles(artifact, keys):
            artifact.lookup.take(slots, mode="clip", out=codes[rows])
        return codes

    def run(self, state: PipelineState) -> None:
        join = self.join
        artifact: BuildArtifact = state.artifacts[id(join)]
        fact = state.fact

        fact_keys = fact[join.source_key]
        column_bytes = float(fact.column(join.source_key).nbytes)
        state.profile.column_accesses.append(
            ColumnAccess(
                column=join.source_key, column_bytes=column_bytes, rows_needed=state.rows_alive, role="join_key"
            )
        )

        stats = state.zones.stats(join.source_key) if state.zones is not None else None
        in_range = (
            stats is not None
            and stats.low >= artifact.key_base
            and stats.high < artifact.key_base + artifact.lookup.shape[0]
        )
        # Fact zones whose key range misses every present key: every row in
        # them would probe and miss, so they can vanish without a gather.
        cls = None
        if stats is not None:
            skip_mask = (stats.maxs < artifact.key_low) | (stats.mins > artifact.key_high)
            if skip_mask.any():
                cls = np.where(skip_mask, ZONE_SKIP, ZONE_EVALUATE)

        probe_rows = state.rows_alive
        pruned = 0
        if state.sel is None:
            # Span state: probe contiguous key slices, one per run of zones
            # the statistics could not rule out, and compact once.
            runs, key_pieces = [], []
            for category, a, b in state.zone_runs(cls):
                if category == ZONE_SKIP:
                    pruned += b - a
                    continue
                keys = fact_keys[a:b]
                idx = _survivors(self._hits(artifact, keys, in_range))
                runs.append((a, b, idx))
                if join.payload is not None:
                    key_pieces.append(keys if idx is None else keys.take(idx))
            state.seed(runs)
        else:
            sel = state.sel
            # Entries sitting in skip zones would all miss: drop them
            # before any key is gathered.
            if cls is not None:
                undecided = np.flatnonzero(cls.take(state.zones.zone_of(sel)) >= 0)
                pruned = sel.size - undecided.size
                if pruned:
                    sel = sel.take(undecided)
            keys = self._gather_keys(state, fact_keys, sel)
            keep = np.flatnonzero(self._hits(artifact, keys, in_range))
            key_pieces = [keys.take(keep)] if join.payload is not None else []
            state.compact(undecided.take(keep) if pruned else keep)
        if cls is not None:
            state.record_zones(cls, pruned)
        selectivity = state.rows_alive / probe_rows if probe_rows else 0.0

        state.profile.joins.append(
            JoinStage(
                dimension=join.dimension,
                fact_key=join.source_key,
                dimension_rows=artifact.dimension_rows,
                build_rows=artifact.build_rows,
                hash_table_bytes=artifact.hash_table_bytes,
                probe_rows=probe_rows,
                selectivity=selectivity,
                has_payload=join.payload is not None,
                build_scan_bytes=artifact.build_scan_bytes,
            )
        )

        if join.payload is not None:
            # Payload codes materialize at selection-vector width, in the
            # lookup's narrow dtype (lower() guarantees the name is unique).
            state.group_columns[join.payload] = self._payload(artifact, _concat(key_pieces))

    def _gather_keys(self, state: PipelineState, fact_keys: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """Surviving rows' keys, read from the packed twin when one exists.

        Selection-vector key gathers are the probe's compressed scan path:
        a ``<= 16``-bit key column decodes from packed 64-bit words
        (word-aligned gather + shift/mask) instead of touching 4-byte
        values.  Span-state probes stream the plain column's ``[lo:hi]``
        slice -- a sequential scan is already optimal.
        """
        packed = state.packed_for((self.join.source_key,), sel.size)
        if packed is not None:
            return packed[self.join.source_key].unpack_at(sel)
        return fact_keys.take(sel)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbeJoin({self.join.dimension!r} via {self.join.source_key!r})"


class Aggregate:
    """Reduce the surviving rows to the (grouped) aggregate.

    Models the final stage of the single fused pass: the hash group-by
    aggregate the CPU keeps cache resident and the GPU updates with
    per-block atomics spread over the group slots (Section 5.2).  Emits the
    measure :class:`~repro.engine.plan.ColumnAccess` entries,
    ``result_input_rows``, ``num_groups``, and ``output_row_bytes``.
    """

    def __init__(self, group_by: tuple[str, ...], aggregate: AggregateSpec) -> None:
        self.group_by = group_by
        self.aggregate = aggregate

    def run(self, state: PipelineState) -> None:
        state.partial = self.run_partial(state)
        state.value = finalize_partial(state.partial)

    def run_partial(self, state: PipelineState) -> PartialAggregate:
        """Reduce the span's alive rows to their mergeable partial.

        The stage's only reduction (and its whole profile slice): over the
        full table :func:`~repro.engine.plan.finalize_partial` of the result
        is the answer (:meth:`run`), over a row range it is one input of
        :func:`~repro.engine.plan.combine_partials`.
        """
        profile = state.profile
        profile.result_input_rows = state.rows_alive
        agg = self.aggregate
        validate_aggregate(agg)
        op = agg.op

        rows = state.rows()
        count = int(state.rows_alive)
        measure_columns = []
        for column in agg.columns:
            column_bytes = float(state.fact.column(column).nbytes)
            profile.column_accesses.append(
                ColumnAccess(
                    column=column, column_bytes=column_bytes, rows_needed=state.rows_alive, role="measure"
                )
            )
            # Read the alive rows first (a view while nothing was ever
            # filtered), then widen: the float64 measure expression is
            # evaluated at their width, never at fact width.
            measure_columns.append(state.fact[column][rows].astype(np.float64))
        measure = combine_measures(agg, measure_columns)

        if not self.group_by:
            profile.num_groups = 1
            profile.output_row_bytes = 8.0
            if op == "avg":
                payload: object = (scalar_aggregate_values("sum", measure, count), count)
            else:
                payload = scalar_aggregate_values(op, measure, count)
            return PartialAggregate(op=op, grouped=False, group_by=(), payload=payload)
        missing = [name for name in self.group_by if name not in state.group_columns]
        if missing:
            raise ValueError(
                f"group-by column(s) {missing} are not payloads of any join in query "
                f"{state.query_name!r}"
            )
        payload = {}
        if count:
            # Packed-radix group keys: the carried payload codes mix into one
            # int64 key per row and factorize with bincount-style passes -- no
            # row-wise ``np.unique(..., axis=0)`` structured sort.
            unique_keys, inverse = factorize_group_keys([state.group_columns[name] for name in self.group_by])
            num_groups = len(unique_keys)
            if op == "avg":
                sums = grouped_aggregate_values("sum", measure, inverse, num_groups)
                counts = grouped_aggregate_values("count", None, inverse, num_groups)
                totals = [(float(total), int(n)) for total, n in zip(sums, counts)]
            else:
                totals = grouped_aggregate_values(op, measure, inverse, num_groups).tolist()
            payload = {tuple(int(x) for x in key): total for key, total in zip(unique_keys, totals)}
        profile.num_groups = max(len(payload), 1)
        profile.output_row_bytes = float(8 + 4 * len(self.group_by))
        return PartialAggregate(op=op, grouped=True, group_by=tuple(self.group_by), payload=payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Aggregate({self.aggregate.op!r}, group_by={self.group_by})"


# ----------------------------------------------------------------------
# Physical plan and lowering
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalPlan:
    """The staged operator pipeline of one query.

    Stages are explicit so the shard plane can pull every
    :class:`BuildLookup` out and run it once, in the parent, before any
    worker probes.
    """

    logical: LogicalPlan
    filters: tuple[ScanFilter, ...]
    builds: tuple[BuildLookup, ...]
    probes: tuple[ProbeJoin, ...]
    aggregate: Aggregate

    def operators(self) -> Iterable[object]:
        """Every operator in execution order (builds before their probes)."""
        yield from self.filters
        for build, probe in zip(self.builds, self.probes):
            yield build
            yield probe
        yield self.aggregate


def lower(logical: LogicalPlan, db: Database | None = None) -> PhysicalPlan:
    """Lower a logical plan to physical operators.

    With ``db`` and a :class:`~repro.engine.cache.ZoneMapCache` in the
    execution context, lowering runs the **zone pruning pass**: every
    top-level conjunct of the fact predicate is folded against the fact
    table's zone statistics
    (:meth:`~repro.storage.zonemap.TableZoneMaps.classify`) and the
    resulting skip / take-all / evaluate classification rides on its
    :class:`ScanFilter`, which seeds the selection vector zone-granularly.
    Without ``db`` (or with no zone cache) the plan is identical to the
    PR 4 selection-vector plane.
    """
    payloads: set[str] = set()
    for join in logical.joins:
        # Validate payload-name uniqueness at plan time: the old in-flight
        # check fired only after earlier probes had already mutated the
        # pipeline state, so a bad plan did real work before failing.
        if join.payload is not None:
            if join.payload in payloads:
                raise ValueError(
                    f"payload column {join.payload!r} is produced by more than one join in "
                    f"query {logical.query.name!r}; payload names must be unique"
                )
            payloads.add(join.payload)
    filters = tuple(ScanFilter(term) for term in conjuncts(logical.predicate))
    zone_cache = current().zones
    if db is not None and zone_cache is not None and logical.fact in db:
        maps = zone_cache.maps(db, db.table(logical.fact))
        if maps is not None:
            for scan in filters:
                scan.zone_cls = maps.classify(scan.term)
                scan.zone_maps = maps
    return PhysicalPlan(
        logical=logical,
        filters=filters,
        builds=tuple(BuildLookup(join) for join in logical.joins),
        probes=tuple(ProbeJoin(join) for join in logical.joins),
        aggregate=Aggregate(logical.group_by, logical.aggregate),
    )


def lower_query(query: SSBQuery, db: Database | None = None) -> PhysicalPlan:
    """Normalize and lower a declarative query spec in one step."""
    return lower(LogicalPlan.from_query(query), db)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _run_pipeline(
    db: Database,
    plan: PhysicalPlan,
    start: int,
    stop: int | None,
    artifacts: "tuple[BuildArtifact, ...] | None",
) -> PipelineState:
    """Filters and probes of ``plan`` over fact rows ``[start, stop)``.

    The one execution loop behind both entry points (``stop=None`` means
    the table's end); the caller finishes the returned state with the
    aggregate stage, final or partial.
    """
    # One snapshot pins the fact table for the whole execution: a concurrent
    # append publishes a new (version, columns) state, but every operator
    # here keeps reading this frozen, mutually consistent one -- the
    # "admitted at version v, never a torn batch" guarantee.
    fact = db.table(plan.logical.fact).snapshot()
    if stop is None:
        stop = fact.num_rows
    if not 0 <= start <= stop <= fact.num_rows:
        raise ValueError(f"row range [{start}, {stop}) does not lie within the {fact.num_rows} fact rows")
    n = stop - start
    zone_cache = current().zones
    zones = zone_cache.maps(db, fact) if zone_cache is not None else None
    state = PipelineState(
        db=db,
        fact=fact,
        query_name=plan.logical.query.name,
        profile=QueryProfile(query=plan.logical.query.name, fact_rows=n, fact_filter_selectivity=1.0),
        rows_alive=float(n),
        lo=start,
        hi=stop,
        zones=zones,
        zone_cache=zone_cache if zones is not None else None,
    )
    for probe, artifact in zip(plan.probes, artifacts or ()):
        state.artifacts[id(probe.join)] = artifact

    for scan in plan.filters:
        scan.run(state)
    state.profile.fact_filter_selectivity = state.rows_alive / n if n else 0.0

    for build, probe in zip(plan.builds, plan.probes):
        if id(probe.join) not in state.artifacts:
            build.run(state)
        probe.run(state)
    return state


def execute_physical(db: Database, plan: PhysicalPlan) -> tuple[object, QueryProfile]:
    """Run a physical plan stage by stage, collecting the query profile.

    Returns the same ``(value, profile)`` pair as the monolithic reference
    executor -- byte-identically.  Caches reach the operators through the
    execution context (:func:`repro.context.current`) and no other way.
    """
    return execute_physical_with_partials(db, plan)[:2]


def execute_physical_with_partials(
    db: Database, plan: PhysicalPlan
) -> tuple[object, QueryProfile, tuple[PartialAggregate, ...]]:
    """:func:`execute_physical`, plus the partials its answer was merged from.

    The whole table is one span, so the partials are one partial over
    ``[0, n)``.  The execution memo keeps them with the answer, so a read
    after an append folds only the appended rows into them
    (:meth:`~repro.engine.cache.ExecutionCache.fetch`).
    """
    state = _run_pipeline(db, plan, 0, None, None)
    plan.aggregate.run(state)
    return state.value, state.profile, (state.partial,)


def execute_physical_partial(
    db: Database,
    plan: PhysicalPlan,
    start: int,
    stop: int | None,
    artifacts: "tuple[BuildArtifact, ...] | None" = None,
) -> tuple[PartialAggregate, QueryProfile]:
    """Run a physical plan over fact rows ``[start, stop)``: one shard's
    range, or the rows a standing query's tick or a cached answer has not
    folded in yet (``stop=None`` means the end of the table).

    The ranged pipeline is the ordinary pipeline with its span set to the
    row range -- :func:`execute_physical` is the same loop over
    ``[0, n)``.  The range is *not* turned into row ids: the first filter
    and the first probe read ``column[start:stop]`` slices exactly as the
    single-process plane streams whole columns, so a partial over half the
    rows costs about half the query, and a selection vector appears only
    once an operator has dropped rows.  Row ids stay global, so zone
    classifications, packed-twin word offsets, and probe zone skipping all
    apply unchanged per shard, and the range may start and stop mid-zone.

    ``artifacts``, when given, are the parent-built dimension lookups in
    plan order; the per-shard builds are skipped and every shard probes the
    very same immutable artifacts the monolithic plane would.  The returned
    profile is this shard's *slice*;
    :func:`~repro.engine.plan.fold_shard_profiles` reassembles the
    monolithic profile from the slices, byte-identically.
    """
    state = _run_pipeline(db, plan, start, stop, artifacts)
    return plan.aggregate.run_partial(state), state.profile
