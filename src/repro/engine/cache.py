"""The session's caches, and the scopes that make them ambient.

Engines answer ``execute_query(db, query)`` -- a signature with no room for
state -- so whatever an execution consults besides its arguments travels as
one frozen :class:`~repro.context.ExecutionContext` in one ContextVar
(:mod:`repro.context`); engine code reads ``current().<field>`` and treats
``None`` as "off".  The fields:

* ``cache`` -- an :class:`ExecutionCache`, memoizing the whole functional
  pass.  Every engine answers a query by first running the shared
  functional executor (:func:`repro.engine.plan.execute_query`) and then
  costing the collected profile under its own hardware model.  The *answer*
  and the *profile* depend only on ``(database, query)``, so when one query
  runs on several engines -- :meth:`repro.api.Session.compare` across the
  paper's six execution strategies -- the functional pass is pure repeated
  work.  An entry also keeps what a :class:`~repro.api.Session` finished
  from it (the decoded rows, and per engine the costed result), so a
  repeated query on an engine replays without re-executing, re-costing or
  re-decoding.  Everything leaves an entry as a private shallow copy
  (answers hold only immutable scalars and tuples, profiles copy per
  stage), so no caller can mutate another caller's view.

* ``builds`` -- a :class:`BuildArtifactCache`, memoizing one *stage* of that
  pass: the dimension hash-table builds of the physical pipeline
  (:class:`repro.engine.physical.BuildLookup`).  A build artifact depends
  only on ``(dimension, key_column, payload_column, predicate)``, so
  queries touching the same dimensions construct each distinct lookup once.
  Artifacts are immutable (their arrays are marked read-only), so sharing
  is safe without copying.

* ``zones`` -- a :class:`ZoneMapCache`, the data-skipping statistics of the
  pruned scan plane: one lazily-built
  :class:`~repro.storage.zonemap.TableZoneMaps` per table (zone min/max,
  tiny-domain bitsets, packed column twins).  Statistics depend only on
  the stored data, never on a query, so one cache serves every query a
  :class:`~repro.api.Session` runs; it also accumulates the pipeline's
  zone skip/take/evaluate counters, surfaced through
  ``Session.cache_info("zones")``.

* ``shards`` -- the sharded-execution binding: an opaque object carrying
  ``shards`` (the effective shard count, which :meth:`ExecutionCache._key`
  folds into memo keys) and ``execute(db, query)`` (the shard-pool
  dispatch :func:`repro.engine.plan._execute_query_uncached` routes
  through; see :meth:`repro.engine.shard.ShardExecutor.bind`).  Kept opaque
  so this module never imports the shard executor; only a session's
  context ever carries one.

* ``faults`` -- a :class:`~repro.faults.FaultPlan` (chaos testing); its
  scope lives beside the plan in :mod:`repro.faults.plan`.

Why a ContextVar and not a module global: nested scopes restore the previous
context on exit via tokens, and concurrent executions (threads or asyncio
tasks) each see their own binding.  Pool threads and
``loop.run_in_executor`` do **not** inherit the submitter's context, so
:meth:`repro.api.Session._execute` installs the session's context on the
executing thread itself (:meth:`repro.api.Session.context` is the one place
a session's state becomes ambient).  :func:`activate`,
:func:`activate_builds` and :func:`activate_zones` replace one field of the
current context for callers that drive the engine without a session.

All three caches key by **(table, version)** under streaming ingest
(:meth:`repro.storage.Table.append` bumps a monotonic per-table version),
and two of them *extend* what a fact append leaves behind instead of
rebuilding it.  Execution memo keys fold in :func:`table_versions`, so a
read after an append misses; the miss finds the entry of the version
before (same query, same dimension versions, same shard width) and folds
only the appended rows into the partial aggregates it kept
(:meth:`ExecutionCache.fetch`), so a read after a batch costs O(batch).
Build-artifact keys carry the dimension's version
(:meth:`repro.engine.physical.BuildLookup.fetch_artifact`), and
:meth:`ZoneMapCache.maps` extends a grown table's statistics incrementally.
An append to one dimension therefore invalidates exactly that dimension's
artifacts and the answers that join it; every other entry keeps hitting.

The caches are thread-safe: LRU mutation happens under an
:class:`threading.RLock`, so one cache instance can back a morsel-parallel
``Session.run_many(workers=N)`` batch.  The build cache goes further and
arbitrates racing misses exactly-once (in-flight events), because a build
artifact is expensive shared state; the execution cache lets racing workers
duplicate a computation instead of serializing whole query executions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Hashable, NamedTuple

from repro.context import activate_context, current


class CacheInfo(NamedTuple):
    """Counters of one :class:`ExecutionCache` (mirrors ``functools``)."""

    hits: int
    misses: int
    size: int
    maxsize: int


class CounterSnapshot(NamedTuple):
    """A point-in-time reading of every cache counter a Session carries.

    Snapshots subtract (``after - before``) into a delta covering exactly
    the work done between the two readings, which is how the serving layer
    attributes cache behaviour to a single request: snapshot around one
    execution and read e.g. ``delta.execution_hits`` to learn whether the
    answer was replayed from the execution memo.  Counters are monotonic,
    so deltas taken on one thread are exact when the session is quiet and a
    best-effort attribution when other workers run concurrently.
    """

    execution_hits: int = 0
    execution_misses: int = 0
    #: Misses answered by folding appended fact rows into the entry of the
    #: previous version (each one is also counted in ``execution_misses``).
    execution_extensions: int = 0
    build_hits: int = 0
    build_misses: int = 0
    zone_hits: int = 0
    zone_misses: int = 0
    zones_skipped: int = 0
    zones_taken: int = 0
    zones_evaluated: int = 0
    rows_pruned: int = 0
    zone_extensions: int = 0
    #: Process-parallel sharded execution: queries dispatched to the shard
    #: pool, shard tasks run, and queries that fell back to the monolithic
    #: path (off-database, or an empty fact table).
    shard_queries: int = 0
    shard_tasks: int = 0
    shard_fallbacks: int = 0
    #: Fault recovery: shard-task retry rounds absorbed, worker pools torn
    #: down and rebuilt after a failure, and queries that exhausted their
    #: retry budget and fell back to the monolithic plane.
    shard_retries: int = 0
    pool_rebuilds: int = 0
    failure_fallbacks: int = 0

    def __sub__(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        return CounterSnapshot(*(a - b for a, b in zip(self, earlier)))

    @property
    def execution_cached(self) -> bool:
        """Whether the covered work replayed at least one memoized execution."""
        return self.execution_hits > 0

    @property
    def builds_shared(self) -> bool:
        """Whether the covered work reused at least one shared build artifact."""
        return self.build_hits > 0


def snapshot_counters(
    execution: "ExecutionCache | None",
    builds: "BuildArtifactCache | None",
    zones: "ZoneMapCache | None",
    shards: object | None = None,
) -> CounterSnapshot:
    """One consistent-enough reading across a session's caches (and shard pool).

    Each cache is read under its own lock; there is no global lock ordering
    the reads, so a snapshot taken while workers run is a best-effort
    point in time -- exactly what delta attribution needs, and no more.
    ``shards`` is the session's shard executor, if one has been spun up
    (anything with a ``stats()`` returning ``queries``/``tasks``/
    ``fallbacks``).
    """
    exec_info = execution.info() if execution is not None else None
    build_info = builds.info() if builds is not None else None
    zone_info = zones.info() if zones is not None else None
    shard_info = shards.stats() if shards is not None else None
    return CounterSnapshot(
        execution_hits=exec_info.hits if exec_info else 0,
        execution_misses=exec_info.misses if exec_info else 0,
        execution_extensions=execution.extensions if execution is not None else 0,
        build_hits=build_info.hits if build_info else 0,
        build_misses=build_info.misses if build_info else 0,
        zone_hits=zone_info.hits if zone_info else 0,
        zone_misses=zone_info.misses if zone_info else 0,
        zones_skipped=zone_info.zones_skipped if zone_info else 0,
        zones_taken=zone_info.zones_taken if zone_info else 0,
        zones_evaluated=zone_info.zones_evaluated if zone_info else 0,
        rows_pruned=zone_info.rows_pruned if zone_info else 0,
        zone_extensions=zone_info.extended if zone_info else 0,
        shard_queries=shard_info.queries if shard_info else 0,
        shard_tasks=shard_info.tasks if shard_info else 0,
        shard_fallbacks=shard_info.fallbacks if shard_info else 0,
        shard_retries=shard_info.retries if shard_info else 0,
        pool_rebuilds=shard_info.pool_rebuilds if shard_info else 0,
        failure_fallbacks=shard_info.failure_fallbacks if shard_info else 0,
    )


def table_versions(db, query) -> "tuple[tuple[str, int], ...] | None":
    """The ``(table, version)`` pairs a query's answer depends on, sorted.

    The versioning half of every cache key: an answer (and its profile)
    is a pure function of the query spec plus the contents of the fact
    table and every joined dimension, and contents are identified by the
    table's monotonic :attr:`~repro.storage.Table.version`.  Returns
    ``None`` for hand-built specs whose shape cannot be introspected --
    those fall through uncached, exactly like unhashable specs do.
    """
    try:
        names = [query.fact, *(join.dimension for join in query.joins)]
    except (AttributeError, TypeError):
        return None
    tables = getattr(db, "tables", None)
    if tables is None:
        return None
    versions = {
        name: getattr(tables[name], "version", 0) for name in names if name in tables
    }
    return tuple(sorted(versions.items()))


def private_value(value):
    """A copy of an answer that its receiver may mutate freely.

    An answer is a scalar (immutable) or a dict whose keys are tuples of
    ints and whose values are floats or ``None``, so one shallow copy is a
    whole private copy.
    """
    return dict(value) if isinstance(value, dict) else value


class _Entry:
    """One memoized query: the functional pass and what was finished from it."""

    __slots__ = ("value", "profile", "partials", "decoded", "products")

    def __init__(self, value, profile, partials=()) -> None:
        self.value = value
        self.profile = profile
        #: The partial aggregates ``value`` was merged from, over fact rows
        #: ``[0, profile.fact_rows)``; empty when the compute kept none, and
        #: then the entry cannot be extended.
        self.partials = partials
        #: Engine-independent decoded output (set by :meth:`record`).
        self.decoded = None
        #: Engine key -> that engine's finished product, replayed on a hit.
        self.products: dict = {}


class ExecutionCache:
    """An LRU memo of finished query executions, keyed by query spec.

    An entry holds the functional pass ``(value, profile)``, the decoded
    output a session built from it, and per engine the costed product that
    engine finished from it -- one LRU slot, so eviction drops all of them
    together.  :meth:`fetch` memoizes the functional pass for engines;
    :meth:`replay` and :meth:`record` let a session skip the engine entirely
    once its product is stored.  Nothing stored is ever handed out: answers
    leave as :func:`private_value` copies and profiles as
    :meth:`~repro.engine.plan.QueryProfile.copy`.

    The cache is bound to one database at construction: queries are hashable
    frozen dataclasses, databases are not, so ``fetch`` falls through to an
    uncached execution whenever it is handed a different database (or an
    unhashable hand-built query).

    An entry is **extendable**: it keeps the partial aggregates its answer
    was merged from, over the fact rows its profile counts.  When the fact
    table grows, the next read misses (the fact version is in the key), and
    :meth:`fetch` folds just the appended rows into the previous version's
    entry instead of recomputing (``extensions`` counts these).  The new
    entry replaces its predecessor, which no current read could hit again.

    Thread safety: every LRU mutation (lookup + recency bump, insert, evict,
    counters) happens under an :class:`threading.RLock`, so concurrent
    ``run_many(workers=N)`` batches share one cache without corrupting the
    ``OrderedDict``.  The *computation* runs outside the lock -- two workers
    racing on the same query may both execute it (the answers are identical;
    one result wins the insert), which is the right trade for a memo whose
    compute is a whole query execution.
    """

    def __init__(self, db: object, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.db = db
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.extensions = 0
        self._entries: OrderedDict = OrderedDict()
        #: Lineage index: a key without its fact version -> ``(fact version,
        #: key)`` of the newest resident entry of that lineage.
        self._latest: dict = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def key(self, db, query):
        """The memo key: the spec plus the versions of the tables it reads.

        Folding :func:`table_versions` into the key is how streaming
        ingest invalidates by ``(table, version)`` instead of wiping the
        memo: an append bumps the fact (or one dimension's) version, so
        post-append fetches simply miss into a new entry while answers for
        other tables -- and for the *old* version, while it stays resident
        -- keep replaying.  Stale versions age out of the LRU naturally.
        ``None`` means "don't cache" (another database, or an unhashable or
        uninspectable spec).  The key is rebuilt on every call -- versions
        move -- but hashing it is cheap: an
        :class:`~repro.ssb.queries.SSBQuery` keeps its hash after the first
        use, so every later dict operation on the key reuses it.
        """
        if db is not self.db:
            return None
        try:
            hash(query)
        except TypeError:  # a hand-built spec holding e.g. a list constant
            return None
        versions = table_versions(db, query)
        if versions is None:
            return None
        # Sharded executions (shards > 1) memoize under their own keys:
        # answers and folded profiles are byte-identical to the monolithic
        # plane, but per-request counter attribution differs (shard tasks
        # ran), so a replay must not masquerade as the other plane's entry.
        # shards=1 (and the threaded path) share the plain key -- the
        # regression tests in ``tests/test_sharded.py`` pin both behaviours.
        binding = current().shards
        if binding is not None and getattr(binding, "shards", 1) > 1:
            return (query, versions, ("shards", binding.shards))
        return (query, versions)

    def fetch(self, db, query, compute: Callable, extend: Callable | None = None):
        """``compute(db, query)``, memoized per (query, table versions).

        ``compute`` returns ``(value, profile)`` or ``(value, profile,
        partials)``.  On a miss, when the entry of an older fact version of
        the same lineage (:meth:`_lineage`) is resident and kept its
        partials, ``extend(db, query, profile, partials)`` carries it
        forward instead, returning the same triple, or ``None`` to fall back
        to ``compute``.  An extension that raises leaves its predecessor
        intact.  Stores the result itself, unless a racing read already
        stored a newer fact version of its lineage, and hands every caller
        -- the computing one included -- private copies.
        """
        key = self.key(db, query)
        if key is None:
            return compute(db, query)[:2]
        prior = prior_key = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
            else:
                self.misses += 1
                lineage, version = self._lineage(key)
                latest = self._latest.get(lineage)
                if latest is not None and version is not None and latest[0] < version:
                    prior_key = latest[1]
                    prior = self._entries.get(prior_key)
        if entry is None:
            result = None
            if prior is not None and prior.partials and extend is not None:
                result = extend(db, query, prior.profile, prior.partials)
            extended = result is not None
            if not extended:
                result = compute(db, query)
            entry = _Entry(*result)
            with self._lock:
                if extended:
                    self.extensions += 1
                    # The predecessor answers a version no read sees again.
                    self._entries.pop(prior_key, None)
                newest = self._latest.get(lineage)
                # Keys only grow, so a result older than its lineage's newest
                # entry can never be hit: storing it could only evict that entry.
                if version is None or newest is None or newest[0] <= version:
                    self._entries[key] = entry
                    if version is not None:
                        self._latest[lineage] = (version, key)
                    while len(self._entries) > self.maxsize:
                        evicted, _ = self._entries.popitem(last=False)
                        self._forget(evicted)
        return private_value(entry.value), entry.profile.copy()

    @staticmethod
    def _lineage(key):
        """``(lineage, fact version)`` of a memo key.

        The lineage is the key with the fact table's version taken out --
        the query, its dimensions' versions, the shard width -- so every
        version of one answer over a growing fact table shares it.
        """
        query, versions, *width = key
        fact = getattr(query, "fact", None)
        dimensions = tuple(pair for pair in versions if pair[0] != fact)
        return (query, dimensions, *width), dict(versions).get(fact)

    def _forget(self, key) -> None:
        """Drop the lineage index's pointer to an evicted ``key`` (lock held)."""
        lineage, _ = self._lineage(key)
        latest = self._latest.get(lineage)
        if latest is not None and latest[1] == key:
            del self._latest[lineage]

    def stores(self, key, engine: Hashable) -> bool:
        """Whether :meth:`replay` would find ``engine``'s product under
        ``key``.  Counts nothing and never blocks: the lock is tried without
        waiting, and a lock held by another thread reads as ``False``, so an
        event-loop caller can ask without stalling its loop.
        """
        if not self._lock.acquire(blocking=False):
            return False
        try:
            entry = self._entries.get(key)
            return entry is not None and engine in entry.products
        finally:
            self._lock.release()

    def replay(self, key, engine: Hashable):
        """``(value, decoded, product)`` stored for ``engine`` under ``key``.

        A stored product counts as one hit.  All three are the stored
        objects: the caller copies whatever it hands out that is mutable.
        ``None`` (nothing counted) when the entry or this engine's product
        is absent: the caller then runs the engine, whose :meth:`fetch`
        counts instead.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or engine not in entry.products:
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry.value, entry.decoded, entry.products[engine]

    def record(self, key, engine: Hashable, decoded, product) -> None:
        """Store ``engine``'s finished product (and the decoded output) under
        ``key``, if the entry is still resident; the caller must not mutate
        either afterwards."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.decoded = decoded
                entry.products[engine] = product

    def info(self) -> CacheInfo:
        """Hit/miss counters and occupancy."""
        with self._lock:
            return CacheInfo(self.hits, self.misses, len(self._entries), self.maxsize)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._latest.clear()
            self.hits = 0
            self.misses = 0
            self.extensions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionCache({self.info()})"


class BuildArtifactCache:
    """An LRU memo of dimension build artifacts, shared across queries.

    Keys are the full identity of a hash-table build -- ``(dimension,
    key_column, payload_column, predicate)`` -- so two joins share an
    artifact exactly when a real batched executor could reuse the build.
    The cache is bound to one database at construction (artifacts embed that
    database's arrays); :meth:`fetch` for a different database falls through
    to an uncached build, exactly like :class:`ExecutionCache`.

    Thread safety: LRU mutation is guarded by an :class:`threading.RLock`,
    and -- unlike :class:`ExecutionCache` -- misses are arbitrated
    **exactly-once**: the first worker to miss a key registers an in-flight
    event and builds outside the lock; every other worker racing on the same
    key waits on the event and then takes the hit path.  A morsel-parallel
    ``Session.run_many(workers=N)`` therefore constructs each distinct
    artifact once no matter how the batch lands on the workers, and
    ``misses`` counts real constructions.
    """

    def __init__(self, db: object, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.db = db
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: dict = {}

    # ------------------------------------------------------------------
    def fetch(self, db, key: Hashable, build: Callable[[], object]):
        """``build()``, memoized under ``key`` for the bound database.

        Hand-built specs can hold unhashable constants (e.g. a list inside a
        predicate); those fall through to an uncached build rather than
        erroring, so exotic queries still run -- they just never share.
        """
        if db is not self.db:
            return build()
        try:
            hash(key)
        except TypeError:  # unhashable hand-built predicate
            return build()
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return cached
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = pending = threading.Event()
                    self.misses += 1
                    owner = True
                else:
                    owner = False
            if not owner:
                # Another worker is constructing this artifact; wait and
                # re-check (the entry may also have been evicted by the time
                # we wake, in which case we become the new owner).
                pending.wait()
                continue
            try:
                artifact = build()
            except BaseException:
                with self._lock:
                    del self._inflight[key]
                    pending.set()  # waiters retry; one becomes the new owner
                raise
            with self._lock:
                self._entries[key] = artifact
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                del self._inflight[key]
                pending.set()
            return artifact

    def info(self) -> CacheInfo:
        """Hit/miss counters and occupancy."""
        with self._lock:
            return CacheInfo(self.hits, self.misses, len(self._entries), self.maxsize)

    def clear(self) -> None:
        """Drop every artifact and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BuildArtifactCache({self.info()})"


class ZoneInfo(NamedTuple):
    """Counters of one :class:`ZoneMapCache`.

    ``hits``/``misses`` count zone-map *constructions* per table (a miss
    builds the table's statistics holder, a hit reuses it); the zone
    counters accumulate what the pruned scan plane did with the
    classifications: zones proven empty and never materialized
    (``zones_skipped``), zones taken whole without evaluating the predicate
    (``zones_taken``), zones the statistics could not decide
    (``zones_evaluated``), and the total rows data skipping excluded
    without touching (``rows_pruned``).
    """

    hits: int
    misses: int
    tables: int
    zones_skipped: int
    zones_taken: int
    zones_evaluated: int
    rows_pruned: int
    #: Incremental zone-map maintenance events: an append-grown table whose
    #: statistics were *extended* (sealed zones reused, tail re-reduced,
    #: packed twins repacked only in the affected words) instead of rebuilt.
    extended: int = 0


class ZoneMapCache:
    """Per-table zone statistics plus the pipeline's data-skipping counters.

    Bound to one database like the other caches; :meth:`maps` for a
    different database returns ``None`` (callers fall back to the unpruned
    plane).  Thread-safe: the table dict and the counters mutate under an
    :class:`threading.RLock` here, and each
    :class:`~repro.storage.zonemap.TableZoneMaps` guards its own lazy
    per-column construction, so racing workers build every column's
    statistics (and packed twin) exactly once.
    """

    def __init__(self, db: object, zone_size: int | None = None) -> None:
        # Deferred import: the storage layer must not depend on this module.
        from repro.storage.zonemap import DEFAULT_ZONE_SIZE

        if zone_size is not None and (zone_size < 1 or zone_size & (zone_size - 1)):
            # Fail at construction, not deep inside the first query's lowering.
            raise ValueError(f"zone_size must be a power of two, got {zone_size}")
        self.db = db
        self.zone_size = DEFAULT_ZONE_SIZE if zone_size is None else zone_size
        self.hits = 0
        self.misses = 0
        self.extended = 0
        self.zones_skipped = 0
        self.zones_taken = 0
        self.zones_evaluated = 0
        self.rows_pruned = 0
        self._tables: dict = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def maps(self, db, table):
        """The (memoized) zone statistics of ``table``, or ``None`` off-database.

        Version-aware: the cached :class:`TableZoneMaps` is bound to one
        frozen snapshot of the table, and a request for a *newer* version
        (the table grew by appends) extends it incrementally -- sealed-zone
        statistics and packed-twin words carry forward, only the tail is
        re-reduced (``extended`` counts these maintenance events).  A
        same-version request is a plain hit; anything that is not an
        append-grown successor (shrunk, replaced) rebuilds from scratch.
        One version of each table's maps is resident at a time, so every
        caller of a given version receives the *same instance* -- which is
        what lets :class:`~repro.engine.physical.ScanFilter` check
        classification staleness by identity.
        """
        from repro.storage.zonemap import TableZoneMaps

        if db is not self.db:
            return None
        snap = table.snapshot() if hasattr(table, "snapshot") else table
        version = getattr(snap, "version", 0)
        with self._lock:
            maps = self._tables.get(snap.name)
            if maps is not None:
                cached_version = getattr(maps.table, "version", 0)
                if cached_version == version and maps.table.num_rows == snap.num_rows:
                    self.hits += 1
                    return maps
                if cached_version < version and maps.table.num_rows <= snap.num_rows:
                    maps = maps.extended_to(snap)
                    self._tables[snap.name] = maps
                    self.extended += 1
                    return maps
            self.misses += 1
            maps = TableZoneMaps(snap, zone_size=self.zone_size)
            self._tables[snap.name] = maps
            return maps

    def record(self, skipped: int = 0, taken: int = 0, evaluated: int = 0, rows_pruned: int = 0) -> None:
        """Accumulate one operator's zone classification outcome."""
        with self._lock:
            self.zones_skipped += skipped
            self.zones_taken += taken
            self.zones_evaluated += evaluated
            self.rows_pruned += rows_pruned

    def info(self) -> ZoneInfo:
        """Construction and data-skipping counters."""
        with self._lock:
            return ZoneInfo(
                hits=self.hits,
                misses=self.misses,
                tables=len(self._tables),
                zones_skipped=self.zones_skipped,
                zones_taken=self.zones_taken,
                zones_evaluated=self.zones_evaluated,
                rows_pruned=self.rows_pruned,
                extended=self.extended,
            )

    def clear(self) -> None:
        """Drop every table's statistics and reset the counters."""
        with self._lock:
            self._tables.clear()
            self.hits = 0
            self.misses = 0
            self.extended = 0
            self.zones_skipped = 0
            self.zones_taken = 0
            self.zones_evaluated = 0
            self.rows_pruned = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZoneMapCache({self.info()})"


# ----------------------------------------------------------------------
# Per-field scopes over the one execution context (repro.context)
# ----------------------------------------------------------------------


@contextmanager
def activate(cache: ExecutionCache):
    """Route ``execute_query`` calls through ``cache`` for the duration."""
    with activate_context(replace(current(), cache=cache)):
        yield cache


@contextmanager
def activate_builds(cache: BuildArtifactCache):
    """Route physical-pipeline dimension builds through ``cache`` for the duration."""
    with activate_context(replace(current(), builds=cache)):
        yield cache


@contextmanager
def activate_zones(cache: "ZoneMapCache"):
    """Enable zone-map data skipping (and packed gathers) for the duration."""
    with activate_context(replace(current(), zones=cache)):
        yield cache
