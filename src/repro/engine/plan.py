"""Shared functional execution and profiling of SSB queries.

Every engine computes the same answer; what differs is *how* the work maps
onto hardware.  :func:`execute_query` runs a query functionally (exact
NumPy evaluation) and simultaneously collects a :class:`QueryProfile`: the
per-stage cardinalities, selectivities, column footprints, and hash-table
sizes that the engines need to charge traffic according to their respective
execution strategies (pipelined single pass on the CPU, fused tile kernel on
the GPU, operator-at-a-time with materialization for the MonetDB-like
baseline, and so on).

Production execution runs through the staged physical pipeline of
:mod:`repro.engine.physical` (discrete ScanFilter / BuildLookup / ProbeJoin
/ Aggregate operators, whose builds can be shared across a query batch).
:func:`execute_query_monolithic` is the seed single-pass executor, retained
verbatim as the differential-testing reference: the pipeline must produce
byte-identical answers and profiles (see ``tests/test_physical.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.context import activate_context, current
from repro.engine.expr import evaluate_pred, predicate_leaf_count, predicate_or_branches
from repro.ssb.queries import AGGREGATE_OPS, AggregateSpec, SSBQuery, conjuncts
from repro.storage import Database, Table

#: Bytes per dimension hash-table entry: a 4-byte key and a 4-byte payload
#: (the paper's perfect-hashing estimate, Section 5.3).
HASH_ENTRY_BYTES = 8


@dataclass
class JoinStage:
    """Profile of one fact-to-dimension join inside a query."""

    dimension: str
    fact_key: str
    dimension_rows: int
    build_rows: int
    hash_table_bytes: float
    #: Rows of the fact table that reach this join (after earlier stages).
    probe_rows: float
    #: Fraction of probed rows that survive this join.
    selectivity: float
    #: Whether the query needs a payload column from this dimension.
    has_payload: bool
    #: Bytes of dimension columns scanned to build the hash table.
    build_scan_bytes: float


@dataclass
class FilterStage:
    """Profile of one top-level conjunct of the fact-table predicate.

    Besides the row counts, the stage records the predicate's *shape*: a
    fused band predicate (one ``between``, or any pure conjunction)
    evaluates branch-free in a single pass, while each extra OR alternative
    costs another predicated pass on SIMD CPUs, a data-dependent branch on
    compiled scalar engines, and a whole extra materialized operator on
    operator-at-a-time engines (Section 4.2's selection variants).
    """

    columns: tuple[str, ...]
    #: Rows alive when the term is applied / surviving it.
    rows_in: float
    rows_out: float
    #: Single-column comparisons in the term (1 for a fused band predicate).
    leaf_count: int
    #: Extra disjunctive alternatives (0 for any pure conjunction).
    or_branches: int


@dataclass
class ColumnAccess:
    """Profile of one fact-column access inside the pipelined probe pass."""

    column: str
    column_bytes: float
    #: Rows still alive when this column is first needed.
    rows_needed: float
    #: Purpose of the access: "filter", "join_key", or "measure".
    role: str


@dataclass
class QueryProfile:
    """Everything an engine needs to cost a query without re-executing it."""

    query: str
    fact_rows: int
    fact_filter_selectivity: float
    column_accesses: list[ColumnAccess] = field(default_factory=list)
    filter_stages: list[FilterStage] = field(default_factory=list)
    joins: list[JoinStage] = field(default_factory=list)
    #: Rows surviving all filters and joins (the rows that reach the aggregate).
    result_input_rows: float = 0.0
    #: Number of output groups (1 for a scalar aggregate).
    num_groups: int = 1
    #: Bytes per output row (group keys + aggregate).
    output_row_bytes: float = 16.0

    def copy(self) -> "QueryProfile":
        """A private copy: fresh stage lists holding fresh stage records."""
        return replace(
            self,
            column_accesses=[replace(access) for access in self.column_accesses],
            filter_stages=[replace(stage) for stage in self.filter_stages],
            joins=[replace(stage) for stage in self.joins],
        )

    def fact_bytes_accessed_full(self) -> float:
        """Total bytes of the fact columns the query touches (full columns)."""
        return sum(access.column_bytes for access in self.column_accesses)

    def selective_column_bytes(self, line_bytes: int) -> float:
        """Fact-column bytes touched under the min(full-scan, line-per-row) rule."""
        total = 0.0
        for access in self.column_accesses:
            per_row = access.rows_needed * line_bytes
            total += min(access.column_bytes, per_row)
        return total

    def filter_leaf_count(self) -> int:
        """Single-column comparisons across every fact-filter term."""
        return sum(stage.leaf_count for stage in self.filter_stages)

    def filter_or_branches(self) -> int:
        """Extra disjunctive alternatives across every fact-filter term (0 = fused)."""
        return sum(stage.or_branches for stage in self.filter_stages)


def narrowest_signed_dtype(low: int, high: int) -> np.dtype:
    """The narrowest signed integer dtype whose range covers ``[low, high]``."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return np.dtype(dtype)
    raise OverflowError(f"payload range [{low}, {high}] exceeds int64")


def build_dimension_lookup(
    dimension: Table, key_column: str, mask: np.ndarray, payload_column: str | None, base: int = 0
):
    """Build a dense key -> payload lookup for a (filtered) dimension.

    Dimension keys in SSB are dense integers, so a perfect-hash array is both
    what a high-performance implementation would use and what the paper's
    hash-table size estimate assumes.  Returns ``(lookup, present)``: the
    payload array and a parallel membership mask, so payload values carry no
    in-band "no match" sentinel and may take any value (including negatives).

    The payload array is stored at the narrowest signed dtype that covers the
    selected payload values (the paper stores everything as 4-byte values;
    most SSB payloads -- years, dictionary codes of small domains -- fit in
    one or two bytes), so probes gather and carry small codes, not int64.

    ``base`` offsets the arrays: slot ``i`` answers key ``base + i``.  The
    pipeline passes the key column's minimum so date-style keys
    (``d_datekey`` starts at 19920101) index a ~61 K-entry array instead of
    a ~20 M-entry one; probes subtract the artifact's base before gathering.
    The default (keys index from 0) is the monolithic reference's layout.

    A key the selection holds twice raises :class:`ValueError`: the array
    keeps one payload per key, while SQL's join would match the fact row
    once per dimension row.  Duplicates only among unselected rows build.
    """
    keys = dimension[key_column]
    max_key = int(keys.max()) if keys.shape[0] else 0
    if base and keys.shape[0] == 0:
        base = 0
    selected = np.flatnonzero(mask)
    if payload_column is not None and selected.size:
        payload = dimension[payload_column]
        chosen = payload[selected]
        dtype = narrowest_signed_dtype(min(int(chosen.min()), 0), int(chosen.max()))
    else:
        payload = np.zeros(keys.shape[0], dtype=np.int8)
        chosen = payload[selected]
        dtype = np.dtype(np.int8)
    lookup = np.zeros(max_key + 1 - base, dtype=dtype)
    present = np.zeros(max_key + 1 - base, dtype=bool)
    slots = keys[selected] - base if base else keys[selected]
    lookup[slots] = chosen.astype(dtype)
    present[slots] = True
    if np.count_nonzero(present) != selected.size:
        unique, counts = np.unique(keys[selected], return_counts=True)
        duplicate = int(unique[np.argmax(counts > 1)])
        raise ValueError(
            f"dimension {dimension.name!r} holds key {duplicate} more than once in join "
            f"key column {key_column!r}; a dimension join needs unique keys"
        )
    return lookup, present


def scalar_aggregate(op: str, measure: np.ndarray | None, selected: np.ndarray) -> float | None:
    """Reduce the selected measure values to one scalar under ``op``.

    Over an empty selection, ``count`` is 0, ``sum`` is 0.0, and
    ``min``/``max``/``avg`` are ``None`` (SQL's NULL): there is no row to
    take a minimum of, and fabricating 0.0 would be indistinguishable from
    a measured value.
    """
    values = None if measure is None else measure[selected]
    return scalar_aggregate_values(op, values, int(selected.size))


def scalar_aggregate_values(op: str, values: np.ndarray | None, count: int) -> float | None:
    """:func:`scalar_aggregate` over already-gathered measure values.

    The selection-vector pipeline gathers measures at selection-vector width
    before reducing; ``count`` is the number of surviving rows (``values``
    is ``None`` for ``count``, which needs no measure expression).
    """
    if op == "count":
        return float(count)
    if count == 0:
        return 0.0 if op == "sum" else None
    if op == "sum":
        return float(values.sum())
    if op == "min":
        return float(values.min())
    if op == "max":
        return float(values.max())
    return float(values.mean())  # avg


def grouped_aggregate(
    op: str, measure: np.ndarray | None, selected: np.ndarray, inverse: np.ndarray, num_groups: int
) -> np.ndarray:
    """Per-group reduction of the selected measure values under ``op``.

    Every group has at least one member (groups come from ``np.unique`` over
    the selected rows), so the count divisor for ``avg`` is never zero.
    """
    values = None if measure is None else measure[selected]
    return grouped_aggregate_values(op, values, inverse, num_groups)


def grouped_aggregate_values(
    op: str, values: np.ndarray | None, inverse: np.ndarray, num_groups: int
) -> np.ndarray:
    """:func:`grouped_aggregate` over already-gathered measure values."""
    if op == "count":
        return np.bincount(inverse, minlength=num_groups).astype(np.float64)
    if op == "sum":
        return np.bincount(inverse, weights=values, minlength=num_groups)
    if op == "avg":
        counts = np.bincount(inverse, minlength=num_groups)
        return np.bincount(inverse, weights=values, minlength=num_groups) / counts
    out = np.full(num_groups, np.inf if op == "min" else -np.inf)
    reducer = np.minimum if op == "min" else np.maximum
    reducer.at(out, inverse, values)
    return out


#: Domain size beyond which the packed-key group-by abandons the dense
#: ``bincount`` remap for a sort-based ``np.unique`` over the packed int64
#: keys.  The remap's scratch arrays are O(domain) regardless of row count,
#: so this is a hard cap (~64 MB of transient scratch at the limit); every
#: SSB group-by domain (years x brands, city x city x year, ...) sits far
#: below it.
PACKED_DENSE_LIMIT = 1 << 22


def factorize_group_keys(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unique key tuples (lexicographically sorted) and inverse, via packed keys.

    Equivalent to ``np.unique(np.stack(key_arrays, axis=1), axis=0,
    return_inverse=True)`` but radically cheaper: each group column's values
    span a small range (dictionary codes, years), so the columns mix into a
    single int64 radix key (first column most significant, which preserves
    lexicographic order).  Small key domains factorize with two
    ``np.bincount``-style passes and no sort at all; large ones fall back to
    a 1-D ``np.unique`` over the packed keys, still far cheaper than the
    row-wise ``axis=0`` structured sort.  Column ranges that cannot mix into
    int64 fall back to ``np.unique(..., axis=0)`` unchanged.
    """
    lows = [int(a.min()) for a in key_arrays]
    widths = [int(a.max()) - low + 1 for a, low in zip(key_arrays, lows)]
    span = 1
    for width in widths:
        span *= width
        if span > 2**62:
            stacked = np.stack([a.astype(np.int64) for a in key_arrays], axis=1)
            return np.unique(stacked, axis=0, return_inverse=True)

    packed = np.zeros(key_arrays[0].shape[0], dtype=np.int64)
    for array, low, width in zip(key_arrays, lows, widths):
        packed *= width
        packed += array.astype(np.int64) - low

    if span <= PACKED_DENSE_LIMIT:
        counts = np.bincount(packed, minlength=span)
        unique_packed = np.flatnonzero(counts)
        remap = np.zeros(span, dtype=np.int64)
        remap[unique_packed] = np.arange(unique_packed.size)
        inverse = remap[packed]
    else:
        unique_packed, inverse = np.unique(packed, return_inverse=True)

    columns = []
    rest = unique_packed
    for low, width in zip(reversed(lows), reversed(widths)):
        columns.append(rest % width + low)
        rest = rest // width
    unique = np.stack(list(reversed(columns)), axis=1)
    return unique, inverse


def validate_aggregate(aggregate: AggregateSpec) -> None:
    """Reject malformed aggregate specs with the executor's error messages.

    Shared by the monolithic reference executor and the physical pipeline's
    Aggregate operator, so hand-built specs fail identically on both paths.
    """
    if aggregate.op not in AGGREGATE_OPS:
        raise ValueError(f"unsupported aggregate op {aggregate.op!r}; expected one of {AGGREGATE_OPS}")
    if not aggregate.columns and aggregate.op != "count":
        raise ValueError(f"aggregate op {aggregate.op!r} needs at least one measure column")
    if aggregate.columns and aggregate.op == "count":
        raise ValueError(
            "'count' counts surviving rows and takes no measure columns; "
            "charging a measure scan would distort the cost model"
        )
    if aggregate.combine is not None and len(aggregate.columns) != 2:
        raise ValueError(
            f"measure combinator {aggregate.combine!r} needs exactly two columns, got {len(aggregate.columns)}"
        )
    if aggregate.combine is None and len(aggregate.columns) > 1:
        raise ValueError(
            f"{len(aggregate.columns)} measure columns need a combinator ('mul' or 'sub')"
        )


def combine_measures(aggregate: AggregateSpec, measure_columns: list[np.ndarray]) -> np.ndarray | None:
    """The (validated) aggregate's measure expression over its input columns."""
    if not measure_columns:
        return None  # count: no measure expression needed
    if aggregate.combine == "mul":
        return measure_columns[0] * measure_columns[1]
    if aggregate.combine == "sub":
        return measure_columns[0] - measure_columns[1]
    if aggregate.combine is None:
        return measure_columns[0]
    raise ValueError(f"unsupported measure combinator {aggregate.combine!r}")


def execute_query(db: Database, query: SSBQuery) -> tuple[object, QueryProfile]:
    """Execute ``query`` against ``db`` and collect its execution profile.

    Returns ``(value, profile)`` where ``value`` is the scalar aggregate for
    flight-1 queries or a dict mapping group-key tuples (dictionary codes /
    integers) to the aggregate for grouped queries.

    Execution runs through the staged physical pipeline
    (:mod:`repro.engine.physical`): the query is lowered to discrete
    ScanFilter / BuildLookup / ProbeJoin / Aggregate operators whose
    dimension builds are shared when the execution context
    (:mod:`repro.context`) carries a
    :class:`~repro.engine.cache.BuildArtifactCache`.

    When it carries an :class:`~repro.engine.cache.ExecutionCache` (a
    :class:`~repro.api.Session` runs the same query on several engines), the
    functional pass happens once and subsequent calls replay the memoized
    answer and profile; after an append to the fact table, the memoized
    answer is extended by the appended rows (:func:`_extend_answer`)
    instead of recomputed.
    """
    cache = current().cache
    if cache is not None:
        return cache.fetch(db, query, _execute_query_uncached, _extend_answer)
    return _execute_query_uncached(db, query)[:2]


def _execute_query_uncached(db: Database, query: SSBQuery):
    """``(value, profile, partials)``: the answer, its profile, and the
    partial aggregates the answer was merged from (one per shard)."""
    # Deferred import: physical builds on this module's profile dataclasses
    # and helpers, so a top-level import would be circular.
    from repro.engine.physical import execute_physical_with_partials, lower_query

    # With a shard binding active (Session(shards=N) / run(shards=N)), the
    # uncached execution fans out over the worker-process pool and merges
    # partial aggregates; the binding sits *inside* the execution memo so a
    # cached answer replays without touching the pool.
    binding = current().shards
    if binding is not None:
        return binding.execute(db, query)
    # Lowering sees the database so the zone-map pruning pass (when a
    # ZoneMapCache is active) can classify zones per filter term.
    return execute_physical_with_partials(db, lower_query(query, db))


def _extend_answer(db: Database, query: SSBQuery, profile: QueryProfile, partials):
    """A memoized answer carried forward to the fact table's current rows.

    ``profile`` and ``partials`` are an earlier execution's over fact rows
    ``[0, profile.fact_rows)``; the fact table has grown since, and the
    dimensions have not.  Runs the pipeline over the appended rows only, in
    this process (the range is one batch or a few: dispatching it to shard
    workers would cost more than it runs), and folds that slice in.
    Returns ``(value, profile, partials)`` like :func:`_execute_query_uncached`,
    or ``None`` when the table holds fewer rows than the earlier execution
    read (it was replaced, not appended to).
    """
    from repro.engine import physical

    rows = profile.fact_rows
    if db.table(query.fact).num_rows < rows:
        return None
    with activate_context(replace(current(), shards=None)):
        # Lowered through the module, so a tracer patching
        # ``physical.lower_query`` sees extensions too.
        fresh, fresh_profile = physical.execute_physical_partial(
            db, physical.lower_query(query, db), rows, None
        )
    partial = combine_partials([*partials, fresh])
    value = finalize_partial(partial)
    # The fresh slice goes first: it read the current snapshot, whose
    # column sizes are the ones the folded profile must carry.
    return value, fold_shard_profiles([fresh_profile, profile], value), (partial,)


@dataclass(frozen=True)
class PartialAggregate:
    """The aggregate of one query over one range of fact rows, still mergeable.

    This is the only form in which any plane produces an answer: the
    single-process pipeline reduces ``[0, n)`` to one partial, ``shards=N``
    to one per row range, a standing query to one per ingest tick -- the
    tile-local partials the paper's ``BlockAggregate`` combines (Sections
    3.3 and 5.2).  :func:`combine_partials` folds partials over disjoint
    ranges into the partial over their union and :func:`finalize_partial`
    turns a partial into the answer.

    The payload keeps exactly what makes that fold exact: ``sum``/``count``
    carry a float (0.0 over an empty range), ``min``/``max`` a float or
    ``None`` (an empty range has no extremum to offer), and ``avg`` its
    ``(sum, count)`` decomposition, so the average is one division at the
    very end.  A grouped partial carries a dict from group-key tuple to the
    same per-op payload; a group the range never saw is simply absent.  SSB
    measures are integer-valued with totals far below 2**53, so float64
    partial sums are exact and combining them is associative and
    commutative -- which is what makes every plane's answer
    *byte-identical* to :func:`execute_query_monolithic`, not merely close.
    """

    op: str
    grouped: bool
    group_by: tuple[str, ...]
    payload: object


def _combine_payloads(op: str, held, new):
    """One group's (or a scalar query's) payloads from two ranges, as one."""
    if held is None:
        return new
    if new is None:
        return held
    if op == "avg":
        return (held[0] + new[0], held[1] + new[1])
    if op in ("sum", "count"):
        return held + new
    return min(held, new) if op == "min" else max(held, new)


def combine_partials(partials) -> PartialAggregate:
    """The partial over the union of ``partials``' disjoint row ranges.

    Associative and commutative, with the partial over an empty range as
    its identity: ``sum``/``count`` add, ``min``/``max`` compare (``None``
    and absent groups yield to the other side), ``avg`` adds its ``(sum,
    count)`` halves.  The inputs are left untouched.
    """
    partials = list(partials)
    if not partials:
        raise ValueError("cannot merge zero partial aggregates")
    first = partials[0]
    payload = dict(first.payload) if first.grouped else first.payload
    for partial in partials[1:]:
        if first.grouped:
            for key, new in partial.payload.items():
                payload[key] = _combine_payloads(first.op, payload.get(key), new)
        else:
            payload = _combine_payloads(first.op, payload, partial.payload)
    return PartialAggregate(first.op, first.grouped, first.group_by, payload)


def _final_value(op: str, payload) -> float | None:
    if op == "avg":
        total, count = payload
        # The very division the reference performs, over the same exact
        # integers; ``None`` (SQL's NULL) when no row survived.
        return total / count if count else None
    return None if payload is None else float(payload)


def finalize_partial(partial: PartialAggregate) -> object:
    """The answer a partial over the whole table stands for.

    Same shape as :func:`execute_query`'s value: a scalar (or ``None``) for
    an ungrouped query, a dict of group-key tuple -> float for a grouped
    one, keys in lexicographic order like :func:`factorize_group_keys`'
    sorted unique keys.
    """
    if not partial.grouped:
        return _final_value(partial.op, partial.payload)
    return {key: _final_value(partial.op, partial.payload[key]) for key in sorted(partial.payload)}


def merge_partial_aggregates(partials) -> object:
    """The final answer from per-range partials (any order; ranges disjoint)."""
    return finalize_partial(combine_partials(partials))


def fold_shard_profiles(profiles, value) -> QueryProfile:
    """Reassemble the monolithic :class:`QueryProfile` from per-shard slices.

    Sharding partitions the fact rows exactly, so every *extensive*
    quantity (row counts: ``fact_rows``, ``rows_in``/``rows_out``,
    ``probe_rows``, ``rows_needed``, ``result_input_rows``) is the plain
    sum of the shard slices, while every *intensive* or artifact-derived
    quantity (column bytes, hash-table bytes, dimension rows, predicate
    shape) is identical in every slice and taken from the first.  Column
    bytes are the whole column's size *in the snapshot the slice read*, so
    when slices come from different snapshots -- an answer extended after
    an append (:func:`_extend_answer`) -- the first slice must be the one
    that read the newest snapshot, or the fold charges the column sizes of
    the table before the append.  The two
    derived ratios are recomputed from the summed exact integers with the
    same single float division the monolithic executor performs --
    ``fact_filter_selectivity`` from the last filter stage's survivors,
    each join's ``selectivity`` from the rows alive after it (the next
    join's ``probe_rows``, or ``result_input_rows`` after the last) -- so
    the folded profile is byte-identical to the single-process one.
    ``num_groups`` comes from the merged ``value``.

    Per-shard slices align positionally by construction: operator order is
    fixed by the plan, and each shard charges the same columns in the same
    order regardless of its data.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("cannot fold zero shard profiles")
    first = profiles[0]
    n = sum(p.fact_rows for p in profiles)
    alive_after_filters = sum(
        (p.filter_stages[-1].rows_out if p.filter_stages else float(p.fact_rows))
        for p in profiles
    )
    folded = QueryProfile(
        query=first.query,
        fact_rows=n,
        fact_filter_selectivity=alive_after_filters / n if n else 0.0,
    )
    for i, access in enumerate(first.column_accesses):
        folded.column_accesses.append(
            ColumnAccess(
                column=access.column,
                column_bytes=access.column_bytes,
                rows_needed=sum(p.column_accesses[i].rows_needed for p in profiles),
                role=access.role,
            )
        )
    for i, stage in enumerate(first.filter_stages):
        folded.filter_stages.append(
            FilterStage(
                columns=stage.columns,
                rows_in=sum(p.filter_stages[i].rows_in for p in profiles),
                rows_out=sum(p.filter_stages[i].rows_out for p in profiles),
                leaf_count=stage.leaf_count,
                or_branches=stage.or_branches,
            )
        )
    folded.result_input_rows = sum(p.result_input_rows for p in profiles)
    for i, join in enumerate(first.joins):
        probe_rows = sum(p.joins[i].probe_rows for p in profiles)
        if i + 1 < len(first.joins):
            alive_after = sum(p.joins[i + 1].probe_rows for p in profiles)
        else:
            alive_after = folded.result_input_rows
        folded.joins.append(
            JoinStage(
                dimension=join.dimension,
                fact_key=join.fact_key,
                dimension_rows=join.dimension_rows,
                build_rows=join.build_rows,
                hash_table_bytes=join.hash_table_bytes,
                probe_rows=probe_rows,
                selectivity=alive_after / probe_rows if probe_rows else 0.0,
                has_payload=join.has_payload,
                build_scan_bytes=join.build_scan_bytes,
            )
        )
    folded.num_groups = max(len(value), 1) if isinstance(value, dict) else 1
    folded.output_row_bytes = first.output_row_bytes
    return folded


def execute_query_monolithic(db: Database, query: SSBQuery) -> tuple[object, QueryProfile]:
    """The seed single-pass executor, kept as the pipeline's reference.

    Behaviourally identical to :func:`execute_query` (the physical pipeline
    must produce byte-identical answers and profiles -- the differential
    tests in ``tests/test_physical.py`` hold the two paths together), but
    with no operator seams: no build sharing, no per-stage decomposition.
    Never consults the caches.
    """
    # Snapshot once so a concurrent append cannot tear the pass (same
    # guarantee as the pipeline executor; see physical.execute_physical).
    fact = db.table(query.fact)
    if hasattr(fact, "snapshot"):
        fact = fact.snapshot()
    n = fact.num_rows
    profile = QueryProfile(query=query.name, fact_rows=n, fact_filter_selectivity=1.0)

    # ------------------------------------------------------------------
    # Fact-table predicate.  Top-level conjuncts apply one at a time (so the
    # profile records the term-by-term shrink of the surviving rows, as the
    # legacy filter list did); within the whole predicate each referenced
    # column's bytes are charged exactly once, no matter how many leaves of
    # an OR/NOT tree mention it -- a single scan feeds every comparison.
    # ------------------------------------------------------------------
    alive = np.ones(n, dtype=bool)
    rows_alive = float(n)
    charged: set[str] = set()
    for term in conjuncts(query.predicate):
        for column in term.columns():
            if column in charged:
                continue
            charged.add(column)
            column_bytes = float(fact.column(column).nbytes)
            profile.column_accesses.append(
                ColumnAccess(column=column, column_bytes=column_bytes, rows_needed=rows_alive, role="filter")
            )
        rows_in = rows_alive
        alive &= evaluate_pred(fact, term)
        rows_alive = float(np.count_nonzero(alive))
        profile.filter_stages.append(
            FilterStage(
                columns=term.columns(),
                rows_in=rows_in,
                rows_out=rows_alive,
                leaf_count=predicate_leaf_count(term),
                or_branches=predicate_or_branches(term),
            )
        )
    profile.fact_filter_selectivity = rows_alive / n if n else 0.0

    # ------------------------------------------------------------------
    # Dimension joins (in the order given by the query plan)
    # ------------------------------------------------------------------
    group_columns: dict[str, np.ndarray] = {}
    for join in query.joins:
        dimension = db.table(join.dimension)
        if hasattr(dimension, "snapshot"):
            dimension = dimension.snapshot()
        dim_mask = evaluate_pred(dimension, join.predicate)
        build_rows = int(np.count_nonzero(dim_mask))
        lookup, present = build_dimension_lookup(dimension, join.dimension_key, dim_mask, join.payload)

        fact_keys = fact[join.fact_key]
        column_bytes = float(fact.column(join.fact_key).nbytes)
        profile.column_accesses.append(
            ColumnAccess(column=join.fact_key, column_bytes=column_bytes, rows_needed=rows_alive, role="join_key")
        )

        payload_codes = np.zeros(n, dtype=np.int64)
        valid_key = (fact_keys >= 0) & (fact_keys < lookup.shape[0])
        candidate = alive & valid_key
        candidate_keys = fact_keys[candidate]
        payload_codes[candidate] = lookup[candidate_keys]
        matched = candidate.copy()
        matched[candidate] = present[candidate_keys]

        probe_rows = rows_alive
        rows_alive_after = float(np.count_nonzero(matched))
        selectivity = rows_alive_after / probe_rows if probe_rows else 0.0

        build_scan_bytes = float(
            dimension.column(join.dimension_key).nbytes
            + sum(dimension.column(c).nbytes for c in join.predicate.columns())
            + (dimension.column(join.payload).nbytes if join.payload else 0)
        )
        profile.joins.append(
            JoinStage(
                dimension=join.dimension,
                fact_key=join.fact_key,
                dimension_rows=dimension.num_rows,
                build_rows=build_rows,
                hash_table_bytes=float(HASH_ENTRY_BYTES * dimension.num_rows),
                probe_rows=probe_rows,
                selectivity=selectivity,
                has_payload=join.payload is not None,
                build_scan_bytes=build_scan_bytes,
            )
        )

        alive = matched
        rows_alive = rows_alive_after
        if join.payload is not None:
            if join.payload in group_columns:
                raise ValueError(
                    f"payload column {join.payload!r} is produced by more than one join in "
                    f"query {query.name!r}; payload names must be unique"
                )
            group_columns[join.payload] = payload_codes

    profile.result_input_rows = rows_alive

    # ------------------------------------------------------------------
    # Aggregate (and group-by)
    # ------------------------------------------------------------------
    agg = query.aggregate
    validate_aggregate(agg)

    measure_columns = []
    for column in agg.columns:
        column_bytes = float(fact.column(column).nbytes)
        profile.column_accesses.append(
            ColumnAccess(column=column, column_bytes=column_bytes, rows_needed=rows_alive, role="measure")
        )
        measure_columns.append(fact[column].astype(np.float64))
    measure = combine_measures(agg, measure_columns)

    selected = np.flatnonzero(alive)
    if not query.has_group_by:
        value: object = scalar_aggregate(agg.op, measure, selected)
        profile.num_groups = 1
        profile.output_row_bytes = 8.0
        return value, profile

    missing = [name for name in query.group_by if name not in group_columns]
    if missing:
        raise ValueError(
            f"group-by column(s) {missing} are not payloads of any join in query {query.name!r}"
        )
    key_arrays = [group_columns[name][selected] for name in query.group_by]
    if selected.size == 0:
        value = {}
    else:
        stacked = np.stack(key_arrays, axis=1)
        unique_keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
        totals = grouped_aggregate(agg.op, measure, selected, inverse, unique_keys.shape[0])
        value = {tuple(int(x) for x in key): float(total) for key, total in zip(unique_keys, totals)}
    profile.num_groups = max(len(value), 1)
    profile.output_row_bytes = float(8 + 4 * len(query.group_by))
    return value, profile
