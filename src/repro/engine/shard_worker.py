"""The worker-process side of sharded execution.

This module is imported inside pool worker processes (its entry point,
:func:`run_shard_task`, must be a top-level function so tasks pickle under
the ``spawn`` start method).  Workers are long-lived and stateless from the
parent's point of view: everything a task needs arrives in its
:class:`~repro.engine.shard.ShardTask` manifest, and everything expensive a
worker derives from a manifest is memoized in process-global caches so
steady-state tasks pay only the partial-pipeline work itself:

* ``_SEGMENTS`` -- attached :class:`multiprocessing.shared_memory.
  SharedMemory` handles by segment name.  These must outlive every array
  view over them, so they live for the whole worker process.
* ``_TABLES`` -- reconstructed ``(Database, ZoneMapCache)`` pairs keyed by
  the export's ``(table, version)`` plus the zone geometry.  The zone
  cache's :class:`~repro.storage.zonemap.TableZoneMaps` is pre-populated
  with the parent's bit-packed twins (attached, not re-packed) for every
  column, so a worker never derives packing eligibility or repacks; only
  the cheap per-column min/max reductions happen worker-side, lazily.
* ``_ARTIFACTS`` -- :class:`~repro.engine.physical.BuildArtifact`
  reconstructions of shm-shipped lookups, by token.

Workers never build dimension tables at all: every probe consumes a
parent-built artifact, which is what keeps the sharded plane's profile
slices (build rows, hash-table bytes) identical to the monolithic plane's.
"""

from __future__ import annotations

from repro.context import ExecutionContext, activate_context
from repro.engine.cache import ZoneMapCache
from repro.engine.physical import BuildArtifact, execute_physical_partial, lower_query
from repro.engine.shard import InlineArtifact, ShardTask, ShmArtifact
from repro.faults import FaultAction, execute_fault, unlink_segment
from repro.storage.database import Database
from repro.storage.shm import attach_array, attach_table

#: Attached segment handles by name -- keep-alive for every array view this
#: process holds (see module docstring).
_SEGMENTS: dict = {}
#: ``(table, version, zones, zone_size)`` -> (db, zone_cache).
_TABLES: dict = {}
#: Shm-shipped build artifacts by token.
_ARTIFACTS: dict = {}


def _database_for(task: ShardTask) -> tuple[Database, ZoneMapCache]:
    """The reconstructed single-table database (and zone cache) of a task."""
    export = task.export
    key = (export.name, export.version, task.zones, task.zone_size)
    held = _TABLES.get(key)
    if held is not None:
        return held
    table, packed = attach_table(export, _SEGMENTS)
    db = Database(name=f"shard-{export.name}", tables={export.name: table})
    zone_cache = ZoneMapCache(db, zone_size=task.zone_size)
    if task.zones:
        maps = zone_cache.maps(db, table)
        # Pre-populate every column's packed slot with the parent's twin
        # (or its None verdict): the compression plan is decided once, in
        # the parent, and workers must follow it -- both to skip the O(n)
        # packing pass and so every shard gathers from identical words.
        for name in table.columns:
            maps._packed[name] = packed.get(name)
    _TABLES[key] = (db, zone_cache)
    return db, zone_cache


def _resolve_artifact(ref: InlineArtifact | ShmArtifact) -> BuildArtifact:
    """An artifact ref back into a probe-ready :class:`BuildArtifact`."""
    if isinstance(ref, InlineArtifact):
        return ref.artifact
    held = _ARTIFACTS.get(ref.token)
    if held is not None:
        return held
    lookup = attach_array(ref.lookup, _SEGMENTS)
    present = attach_array(ref.present, _SEGMENTS)
    artifact = BuildArtifact(
        dimension=ref.dimension,
        dimension_rows=ref.dimension_rows,
        build_rows=ref.build_rows,
        hash_table_bytes=ref.hash_table_bytes,
        build_scan_bytes=ref.build_scan_bytes,
        lookup=lookup,
        present=present,
        key_base=ref.key_base,
        key_low=ref.key_low,
        key_high=ref.key_high,
    )
    _ARTIFACTS[ref.token] = artifact
    return artifact


def _apply_fault(task: ShardTask) -> None:
    """Execute the task's armed fault, if any (chaos testing only).

    ``kill``/``raise``/``latency`` run through the shared
    :func:`~repro.faults.execute_fault`.  ``unlink`` is worker-shaped: it
    tears the export's first column segment out of ``/dev/shm`` and drops
    this process's memoized reconstructions of the export, so the re-attach
    deterministically observes :class:`FileNotFoundError` even on a warm
    pool -- the exact debris a crashed owner leaves for a sibling.
    """
    action: "FaultAction | None" = task.fault
    if action is None:
        return
    if action.mode != "unlink":
        execute_fault(action)
        return
    export = task.export
    unlink_segment(export.columns[0][1].spec.segment)
    for key in [k for k in _TABLES if k[0] == export.name and k[1] == export.version]:
        del _TABLES[key]
    names = {item.spec.segment for _, item in export.columns}
    names |= {item.words.segment for _, item in export.packed if item is not None}
    for name in names:
        segment = _SEGMENTS.pop(name, None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a view outlived the memo
                pass


def run_shard_task(task: ShardTask):
    """Execute one shard and return ``(partial, profile, zone_delta)``.

    ``zone_delta`` is the 4-tuple of zone counters this task accumulated
    (skipped, taken, evaluated, rows pruned), read as the before/after
    difference of the worker's zone cache so the parent can fold shard
    pruning activity into its own counters.  Exceptions propagate to the
    parent through the future, carrying the worker traceback.
    """
    _apply_fault(task)
    db, zone_cache = _database_for(task)
    artifacts = tuple(_resolve_artifact(ref) for ref in task.artifacts)
    before = zone_cache.info()
    # The whole context is rebuilt from the manifest: a fork-started worker
    # inherits a copy of whatever the submitting thread had installed (the
    # parent's caches, its fault plan), a spawn-started one nothing.  No
    # fault plan here -- the parent armed this task's fault and shipped it.
    with activate_context(ExecutionContext(zones=zone_cache if task.zones else None)):
        plan = lower_query(task.query, db)
        partial, profile = execute_physical_partial(db, plan, task.start, task.stop, artifacts=artifacts)
    after = zone_cache.info()
    delta = (
        after.zones_skipped - before.zones_skipped,
        after.zones_taken - before.zones_taken,
        after.zones_evaluated - before.zones_evaluated,
        after.rows_pruned - before.rows_pruned,
    )
    return partial, profile, delta
