"""Process-parallel sharded execution: escape the GIL, keep byte-identity.

The morsel-parallel thread pool (``Session.run_many(workers=N)``) tops out
where NumPy holds the GIL: one Python process cannot use more than roughly
one core's worth of the kernels that dominate SSB queries.  This module
shards a *single query* across worker **processes** instead:

1. The fact table's columns (and bit-packed twins) are published once per
   ``(table, version)`` into shared memory (:mod:`repro.storage.shm`) --
   workers map the same physical pages read-only, zero copies.
2. :func:`shard_ranges` splits the fact rows into zone-aligned ranges, so
   each shard's rows cover whole zones and zone-map pruning applies per
   shard exactly as it does monolithically.
3. Dimension lookups are built **once in the parent**
   (:meth:`~repro.engine.physical.BuildLookup.fetch_artifact`, through the
   session's shared build cache) and shipped to the workers -- inline for
   small artifacts, through shared memory for large ones
   (:data:`INLINE_ARTIFACT_BYTES` decides).
4. Each worker runs the zone-pruned selection-vector pipeline over its row
   range (:func:`~repro.engine.physical.execute_physical_partial`) and
   returns a mergeable :class:`~repro.engine.plan.PartialAggregate`
   plus its profile slice.
5. The parent merges (:func:`~repro.engine.plan.merge_partial_aggregates`)
   and folds the profile slices back into the monolithic shape
   (:func:`~repro.engine.plan.fold_shard_profiles`) -- answers *and*
   profiles stay byte-identical to the single-process planes, which is the
   differential guarantee ``tests/test_sharded.py`` pins.  The per-shard
   partials go back with the answer, so the execution memo can later fold
   appended rows into them.

The executor owns a persistent :class:`~concurrent.futures.
ProcessPoolExecutor` (lifecycle tied to ``Session.close()``) and a
:class:`~repro.storage.shm.SharedMemoryRegistry` with strict unlink
discipline, and it is installed per-execution as the ``shards`` field of
the execution context (:mod:`repro.context`) so the engine layer routes
through it without importing it.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.context import current
from repro.faults import SHARD_TASK, FaultAction, TransientFaultError
from repro.engine.physical import (
    BuildArtifact,
    execute_physical_partial,
    execute_physical_with_partials,
    lower_query,
)
from repro.engine.plan import PartialAggregate, QueryProfile, fold_shard_profiles, merge_partial_aggregates
from repro.ssb.queries import SSBQuery
from repro.storage.shm import (
    SharedMemoryRegistry,
    ShmArraySpec,
    TableExport,
    export_table,
)
from repro.storage.zonemap import DEFAULT_ZONE_SIZE

#: Artifacts whose lookup + present arrays exceed this many bytes ship to
#: workers through shared memory; smaller ones pickle inline with the task
#: (cheaper than a segment round-trip for e.g. a 64-entry year lookup).
INLINE_ARTIFACT_BYTES = 256 * 1024

#: Failures one retry round of :meth:`ShardExecutor.execute` can recover
#: from: a poisoned pool (worker death), a hung task (per-task timeout), a
#: torn-down segment (attach after an unlink -- re-export fixes it), and an
#: injected/declared transient.  Anything else is a real query error and
#: propagates immediately.
RECOVERABLE_SHARD_FAILURES = (
    BrokenExecutor,
    FuturesTimeoutError,
    FileNotFoundError,
    TransientFaultError,
)


def shard_ranges(num_rows: int, shards: int, zone_size: int = DEFAULT_ZONE_SIZE) -> list[tuple[int, int]]:
    """Zone-aligned ``[start, stop)`` row ranges, one per shard.

    Zones are distributed as evenly as integer division allows, so every
    shard boundary (except the table's tail) lands on a zone boundary and
    per-zone statistics, packed-word offsets, and zone-granular skipping
    remain valid inside each shard.  With more shards than zones, the
    excess shards get empty ranges (``start == stop``); callers skip them
    at submission time.  Ranges partition ``[0, num_rows)`` exactly.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if zone_size < 1:
        raise ValueError(f"zone_size must be >= 1, got {zone_size}")
    zones = -(-num_rows // zone_size) if num_rows else 0
    ranges = []
    for i in range(shards):
        z0 = i * zones // shards
        z1 = (i + 1) * zones // shards
        ranges.append((z0 * zone_size, min(z1 * zone_size, num_rows)))
    return ranges


# ----------------------------------------------------------------------
# Task manifests (pickled parent -> worker)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InlineArtifact:
    """A parent-built dimension lookup small enough to pickle with the task."""

    artifact: BuildArtifact


@dataclass(frozen=True)
class ShmArtifact:
    """A parent-built dimension lookup shipped through shared memory.

    Carries the artifact's scalar fields plus segment specs for the two
    arrays; ``token`` identifies the artifact so workers reconstruct each
    one once per process and reuse it across tasks.
    """

    token: str
    dimension: str
    dimension_rows: int
    build_rows: int
    hash_table_bytes: float
    build_scan_bytes: float
    lookup: ShmArraySpec
    present: ShmArraySpec
    key_base: int
    key_low: int
    key_high: int


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to run one shard of one query."""

    export: TableExport
    query: SSBQuery
    start: int
    stop: int
    artifacts: tuple[InlineArtifact | ShmArtifact, ...]
    #: Whether the parent session runs the zone-pruned plane; workers build
    #: their zone caches with the same geometry so shard pipelines take the
    #: same pruning decisions the monolithic pipeline would.
    zones: bool
    zone_size: int
    #: An armed fault the worker executes before the shard runs (chaos
    #: testing only; ``None`` on every production task).  Armed parent-side
    #: because the execution context does not cross the process boundary.
    fault: FaultAction | None = None


class ShardStats(NamedTuple):
    """Counters of one :class:`ShardExecutor` (see ``Session.counters()``)."""

    #: Queries dispatched through the shard pool.
    queries: int
    #: Shard tasks run (non-empty ranges actually submitted).
    tasks: int
    #: Queries routed back to the monolithic path (off-database, or an
    #: empty fact table -- nothing to shard).
    fallbacks: int
    #: Worker processes the persistent pool currently holds (0 = not spun up).
    workers: int
    #: Recoverable-failure retry rounds absorbed (pool rebuilt, segments
    #: re-exported, or tasks simply resubmitted).
    retries: int = 0
    #: Worker pools discarded after a failure and rebuilt on the next round.
    pool_rebuilds: int = 0
    #: Queries that exhausted the retry budget and fell back to the
    #: monolithic plane (the ladder's last rung -- still byte-identical).
    failure_fallbacks: int = 0


class ShardBinding:
    """One execution's view of the shard pool: an effective shard count.

    The opaque ``shards`` field of the execution context: the engine layer
    reads ``shards`` (cache keys) and calls ``execute``
    (dispatch); everything else stays behind the executor.
    """

    __slots__ = ("executor", "shards")

    def __init__(self, executor: "ShardExecutor", shards: int) -> None:
        self.executor = executor
        self.shards = shards

    def execute(self, db, query: SSBQuery) -> tuple[object, QueryProfile, tuple[PartialAggregate, ...]]:
        return self.executor.execute(db, query, self.shards)


class ShardExecutor:
    """The parent-side owner of the worker pool and the shared-memory plane.

    One per :class:`~repro.api.Session` (created lazily on the first
    ``shards > 1`` execution, torn down by ``Session.close()``).  The pool
    is persistent: workers keep their attached segments, reconstructed
    tables, zone statistics, and artifact reconstructions across queries,
    so steady-state dispatch ships only a small manifest per shard.

    Thread-safe: the morsel-parallel thread pool and the asyncio service's
    executor threads may dispatch concurrently; pool creation, export
    caching, artifact-ref assignment, and counters all mutate under one
    lock, while the actual shard waits happen outside it.
    """

    def __init__(
        self,
        db,
        *,
        start_method: str | None = None,
        retry_budget: int = 2,
        task_timeout_s: float | None = None,
    ) -> None:
        if start_method is not None and start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} is not available on this platform; "
                f"choose from {multiprocessing.get_all_start_methods()}"
            )
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be positive, got {task_timeout_s}")
        self.db = db
        self.start_method = start_method
        #: Recoverable failures one query absorbs before the monolithic
        #: fallback rung; per-task result wait (None = no hang guard).
        self.retry_budget = retry_budget
        self.task_timeout_s = task_timeout_s
        self.registry = SharedMemoryRegistry()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        #: One export per fact table name; re-exporting a newer version
        #: releases the old version's segments (workers re-attach by spec).
        self._exports: dict[str, tuple[int, TableExport, list[str]]] = {}
        #: Shared-memory refs of the large artifacts, least recently shipped
        #: first, by ``id(artifact)``; an entry pins its artifact so the id
        #: stays unique while it is tabled.  Bounded: each query trims the
        #: table to the build cache's size and unlinks what falls out.
        self._artifact_refs: OrderedDict[int, tuple[BuildArtifact, ShmArtifact]] = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False
        self.queries = 0
        self.tasks = 0
        self.fallbacks = 0
        self.retries = 0
        self.pool_rebuilds = 0
        self.failure_fallbacks = 0

    # ------------------------------------------------------------------
    def bind(self, shards: int) -> ShardBinding:
        """A context binding that dispatches at ``shards`` parallelism."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        return ShardBinding(self, shards)

    def stats(self) -> ShardStats:
        with self._lock:
            return ShardStats(
                queries=self.queries,
                tasks=self.tasks,
                fallbacks=self.fallbacks,
                workers=self._pool_workers,
                retries=self.retries,
                pool_rebuilds=self.pool_rebuilds,
                failure_fallbacks=self.failure_fallbacks,
            )

    def close(self) -> None:
        """Shut the worker pool down and unlink every shared segment.

        Idempotent and exception-safe: a second close (``Session.close``
        racing the registry's atexit hook) returns immediately, a pool
        poisoned by worker death must not abort the shutdown, and the
        registry is closed unconditionally -- its own unlink path already
        tolerates names that vanished underneath it, so segments are never
        double-unlinked.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            self._pool_workers = 0
            self._exports.clear()
            self._artifact_refs.clear()
        try:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may still raise
            pass
        finally:
            self.registry.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def execute(
        self, db, query: SSBQuery, shards: int
    ) -> tuple[object, QueryProfile, tuple[PartialAggregate, ...]]:
        """Run ``query`` sharded ``shards`` ways; fall back monolithically
        when there is nothing to shard (off-database, or an empty fact).

        Returns ``(value, profile, partials)``: the merged answer, the
        folded profile, and the per-shard partials the answer merges.

        Must be called under the session's execution context (the normal
        ``Session._execute`` path): zone maps, the cache parent-side builds
        go through, and the fault plan all come from
        :func:`repro.context.current`.

        Failure handling is a ladder, each rung cheaper than the last:
        recoverable failures (:data:`RECOVERABLE_SHARD_FAILURES`) are
        repaired in place -- a poisoned pool is discarded and rebuilt, a
        torn-down segment's export is released and re-published at fresh
        names -- and only the *missing* shard tasks are resubmitted, under
        a per-query ``retry_budget``; exhausting the budget drops to the
        monolithic plane (``failure_fallbacks``), which computes the same
        bytes from the parent's own arrays.  Completed shards are never
        re-run: a partial computed against the old export merges with
        partials from the re-export byte-identically, because both alias
        the same frozen snapshot.  Real query errors (bad column, bad
        spec) propagate immediately -- retrying them cannot help.
        """
        fact_name = getattr(query, "fact", None)
        tables = getattr(db, "tables", None)
        if (
            db is not self.db
            or shards < 2
            or fact_name is None
            or tables is None
            or fact_name not in tables
        ):
            return self._fallback(db, query)
        # Whatever lowering rejects raises here in the parent, before any
        # pool work happens.
        plan = lower_query(query, db)
        fact = db.table(fact_name).snapshot()
        n = fact.num_rows
        if n == 0:
            return self._fallback(db, query)

        context = current()
        faults = context.faults
        # Workers rebuild the parent's zone cache from its geometry, so shard
        # pipelines take the pruning decisions the monolithic one would.
        zones = context.zones
        zone_size = zones.zone_size if zones is not None else DEFAULT_ZONE_SIZE
        ranges = [r for r in shard_ranges(n, shards, zone_size) if r[1] > r[0]]
        # Deferred import keeps the worker module (and its module globals)
        # out of the parent's hot path until sharding is actually used.
        from repro.engine.shard_worker import run_shard_task

        results: dict[int, tuple] = {}
        budget = self.retry_budget
        export = None
        artifacts: tuple = ()
        while len(results) < len(ranges):
            error: BaseException | None = None
            futures: dict[int, object] = {}
            try:
                if export is None:
                    export = self._export_for(db, fact)
                    build_cache = context.builds
                    artifacts = tuple(
                        self._artifact_ref(build.fetch_artifact(db, build_cache)) for build in plan.builds
                    )
                    # Refs outlive their artifact's stay in the build cache
                    # by at most its size -- and never lose this query's own.
                    resident = build_cache.maxsize if build_cache is not None else 0
                    self._trim_artifact_refs(max(resident, len(artifacts)))
                pool = self._ensure_pool(shards)
                for i in range(len(ranges)):
                    if i in results:
                        continue
                    start, stop = ranges[i]
                    futures[i] = pool.submit(
                        run_shard_task,
                        ShardTask(
                            export=export,
                            query=query,
                            start=start,
                            stop=stop,
                            artifacts=artifacts,
                            zones=zones is not None,
                            zone_size=zone_size,
                            fault=faults.arm(SHARD_TASK) if faults is not None else None,
                        ),
                    )
            except RECOVERABLE_SHARD_FAILURES as exc:
                error = exc
            for i, future in futures.items():
                try:
                    results[i] = future.result(timeout=self.task_timeout_s)
                except RECOVERABLE_SHARD_FAILURES as exc:
                    if error is None:
                        error = exc
            if error is None:
                continue
            if isinstance(error, (BrokenExecutor, FuturesTimeoutError)):
                # Worker death poisons the whole pool; a hung task may as
                # well have.  Discard it -- the next round builds a fresh
                # one (segments survive: the parent owns them).
                self._discard_pool()
            if isinstance(error, FileNotFoundError):
                # A segment name vanished under an attach (worker-side
                # unlink, foreign janitor).  Release the export's surviving
                # names and re-publish at fresh ones next round.
                self._invalidate_export(fact_name)
                export = None
            if budget <= 0:
                with self._lock:
                    self.failure_fallbacks += 1
                return execute_physical_with_partials(db, plan)
            budget -= 1
            with self._lock:
                self.retries += 1

        ordered = [results[i] for i in range(len(ranges))]
        partials = [partial for partial, _, _ in ordered]
        profiles = [profile for _, profile, _ in ordered]
        value = merge_partial_aggregates(partials)
        profile = fold_shard_profiles(profiles, value)
        if zones is not None:
            for _, _, (skipped, taken, evaluated, rows_pruned) in ordered:
                if skipped or taken or evaluated or rows_pruned:
                    zones.record(
                        skipped=skipped, taken=taken, evaluated=evaluated, rows_pruned=rows_pruned
                    )
        with self._lock:
            self.queries += 1
            self.tasks += len(ranges)
        return value, profile, tuple(partials)

    def _fallback(self, db, query: SSBQuery) -> tuple[object, QueryProfile, tuple[PartialAggregate, ...]]:
        with self._lock:
            self.fallbacks += 1
        return execute_physical_with_partials(db, lower_query(query, db))

    def _discard_pool(self) -> None:
        """Drop the (presumed poisoned) pool; the next round rebuilds it."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_workers = 0
            if pool is not None:
                self.pool_rebuilds += 1
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken pools may raise
                pass

    def _invalidate_export(self, fact_name: str) -> None:
        """Forget ``fact_name``'s export (and every shm artifact ref).

        Releases whatever segment names survive -- the registry tolerates
        names an unlink fault already removed -- so the next round's
        re-export publishes under fresh names and workers re-attach
        cleanly.  Artifact refs are dropped wholesale: artifacts are built
        in the parent and re-shared cheaply, and a concurrent query racing
        this release simply takes the same recovery path.
        """
        with self._lock:
            held = self._exports.pop(fact_name, None)
        if held is not None:
            self.registry.release(held[2])
        self._trim_artifact_refs(0)

    def _trim_artifact_refs(self, keep: int) -> None:
        """Unlink all but the ``keep`` most recently shipped artifact refs."""
        names = []
        with self._lock:
            while len(self._artifact_refs) > keep:
                _, ref = self._artifact_refs.popitem(last=False)[1]
                names += [ref.lookup.segment, ref.present.segment]
        if names:
            self.registry.release(names)

    # ------------------------------------------------------------------
    def _ensure_pool(self, shards: int) -> ProcessPoolExecutor:
        """The persistent worker pool, grown (never shrunk) to ``shards``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardExecutor is closed")
            if self._pool is None or self._pool_workers < shards:
                old = self._pool
                context = multiprocessing.get_context(self.start_method)
                self._pool = ProcessPoolExecutor(max_workers=shards, mp_context=context)
                self._pool_workers = shards
            else:
                old = None
            pool = self._pool
        if old is not None:
            old.shutdown(wait=True)
        return pool

    def _export_for(self, db, fact) -> TableExport:
        """The fact table's shared-memory manifest, one per (name, version).

        Exporting warms the parent's packed twins for *every* fact column
        first (through the active zone cache, so the parent and the workers
        share one deterministic compression plan per version), then copies
        columns and twin words into fresh segments.  A newer version
        releases the previous version's segments -- workers hold their own
        attachments, so in-flight shards on the old version finish safely;
        the pages are freed when the last attachment closes.
        """
        version = fact.version
        with self._lock:
            held = self._exports.get(fact.name)
            if held is not None and held[0] == version:
                return held[1]
        packed: dict = {}
        zone_cache = current().zones
        if zone_cache is not None:
            maps = zone_cache.maps(db, fact)
            if maps is not None:
                packed = {name: maps.packed(name) for name in fact.columns}
        export = export_table(self.registry, fact, packed)
        names = [spec.segment for _, item in export.columns for spec in (item.spec,)]
        names += [item.words.segment for _, item in export.packed if item is not None]
        with self._lock:
            held = self._exports.get(fact.name)
            if held is not None and held[0] == version:
                # A racing thread exported the same version first; keep its
                # manifest and release ours.
                stale = names
                export = held[1]
            else:
                stale = held[2] if held is not None else []
                self._exports[fact.name] = (version, export, names)
        if stale:
            self.registry.release(stale)
        return export

    def _artifact_ref(self, artifact: BuildArtifact) -> InlineArtifact | ShmArtifact:
        """How to ship ``artifact``: inline pickle or shared segments, by size."""
        nbytes = int(artifact.lookup.nbytes) + int(artifact.present.nbytes)
        if nbytes <= INLINE_ARTIFACT_BYTES:
            return InlineArtifact(artifact=artifact)
        with self._lock:
            held = self._artifact_refs.get(id(artifact))
            if held is not None:
                self._artifact_refs.move_to_end(id(artifact))
                return held[1]
        lookup_spec = self.registry.share_array(np.asarray(artifact.lookup))
        present_spec = self.registry.share_array(np.asarray(artifact.present))
        ref = ShmArtifact(
            token=lookup_spec.segment,
            dimension=artifact.dimension,
            dimension_rows=artifact.dimension_rows,
            build_rows=artifact.build_rows,
            hash_table_bytes=artifact.hash_table_bytes,
            build_scan_bytes=artifact.build_scan_bytes,
            lookup=lookup_spec,
            present=present_spec,
            key_base=artifact.key_base,
            key_low=artifact.key_low,
            key_high=artifact.key_high,
        )
        with self._lock:
            held = self._artifact_refs.setdefault(id(artifact), (artifact, ref))
        if held[1] is not ref:  # a racing thread shared this artifact first
            self.registry.release([lookup_spec.segment, present_spec.segment])
        return held[1]


def partial_for_range(db, query: SSBQuery, start: int, stop: int):
    """Run one shard's partial in-process (test/experimentation helper).

    Lowers under the current execution context and returns the
    ``(partial, profile)`` pair a worker would have produced for the range
    -- handy for property-style merge tests that need adversarial splits
    without paying for a process pool.
    """
    return execute_physical_partial(db, lower_query(query, db), start, stop)
