"""The Session facade: one entry point for running queries on any engine.

A :class:`Session` binds a :class:`~repro.storage.Database` to the engines
of :data:`repro.engine.ENGINES` and exposes a uniform execution surface::

    session = Session(db)
    result = session.run(QUERIES["q2.1"], engine="gpu")
    print(result)                       # decoded d_year / p_brand1 labels
    results = session.run_many(QUERIES.values(), engine="cpu")
    table = session.compare(my_query, engines=["cpu", "gpu", "coprocessor"])
    print(table)

Queries can be :class:`~repro.ssb.queries.SSBQuery` specs or (unbuilt)
:class:`~repro.api.builder.QueryBuilder` instances -- builders are built
(and schema-validated) against the session's database automatically.  With
``optimize=True`` the query's joins are rearranged into the cheapest order
by :class:`~repro.engine.planner.JoinOrderPlanner` before execution.

The session runs the functional pass
(:func:`~repro.engine.plan.execute_query`) and the chosen engine only
prices it (:func:`~repro.engine.result.bill`): an engine is a hardware
model, and every engine answers with the same value.  Results come back as
:class:`~repro.api.resultset.ResultSet`: that answer plus named,
dictionary-decoded output columns.

Sessions memoize the functional pass (its answer and profile) per query, so
``compare`` across N engines executes the answer once and replays it N-1
times.  The same cache entry keeps the decoded rows and each engine's
costed result, so a query repeated on an engine is a replay: no execution,
no ``simulate``, no decode -- only fresh copies of the result's containers.
Pass ``cache=False`` (to the constructor or per call) to opt out, and read
:meth:`Session.cache_info` for hit/miss counters.

Dimension builds are cached on every path: each execution runs under the
session's :class:`~repro.engine.cache.BuildArtifactCache`, keyed by
``(build key, dimension version)``, so a repeated join constructs its
lookup once and an append to a dimension misses exactly that dimension's
entries.  :meth:`Session.cache_info('builds') <Session.cache_info>` reports
the build hit/miss counters.

``run_many(..., workers=N)`` executes the batch morsel-parallel: each
query is a morsel pulled by a pool of N threads, with the session's
lock-protected caches shared across workers -- racing builds are
arbitrated exactly-once by the
:class:`~repro.engine.cache.BuildArtifactCache`.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.api.builder import QueryBuilder
from repro.api.resultset import ResultSet
from repro.context import ExecutionContext, activate_context
from repro.engine import ENGINES, available_engines, resolve_engine
from repro.engine.cache import (
    BuildArtifactCache,
    CacheInfo,
    CounterSnapshot,
    ExecutionCache,
    ZoneInfo,
    ZoneMapCache,
    private_value,
    snapshot_counters,
)
from repro.engine.planner import JoinOrderPlanner
from repro.engine.plan import execute_query
from repro.engine.result import QueryResult, bill
from repro.faults import FaultPlan, ResiliencePolicy
from repro.sim.timing import TimeBreakdown
from repro.ssb.queries import SSBQuery
from repro.storage import Database
from repro.storage.wal import DurabilityConfig, DurabilityManager, RecoveryReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ingest imports api)
    import numpy as np

    from repro.ingest.standing import StandingQuery

#: The engines Session.compare uses when none are named: the paper's three
#: execution strategies (Figure 3's comparison).
DEFAULT_COMPARE_ENGINES = ("cpu", "gpu", "coprocessor")

#: Relative tolerance for cross-engine answer agreement.  Engines share one
#: functional executor today, but numerically independent implementations
#: (or replayed caches) must not report disagreement over float rounding in
#: ``avg``-style aggregates.
AGREEMENT_REL_TOL = 1e-9
AGREEMENT_ABS_TOL = 1e-12


def _scalars_agree(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=AGREEMENT_REL_TOL, abs_tol=AGREEMENT_ABS_TOL)
    return a == b


def values_agree(a, b) -> bool:
    """Whether two engine answers match, within float tolerance per group."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_scalars_agree(a[key], b[key]) for key in a)
    return _scalars_agree(a, b)


def _private_result(result: QueryResult, value) -> QueryResult:
    """``result`` answering ``value``, with a fresh copy of every container
    it exposes (time components, traffic and its notes, stats)."""
    return QueryResult(
        query=result.query,
        engine=result.engine,
        value=private_value(value),
        time=TimeBreakdown(dict(result.time.components)),
        traffic=replace(result.traffic, notes=list(result.traffic.notes)),
        stats=dict(result.stats),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One engine's line in a comparison table."""

    engine: str
    simulated_ms: float
    rows: int
    agrees: bool
    speedup_vs_slowest: float


class Comparison:
    """Tidy per-engine results of one query run on several engines."""

    def __init__(self, query: SSBQuery, results: "dict[str, ResultSet]") -> None:
        self.query = query
        self.results = results

    @property
    def consistent(self) -> bool:
        """Whether every engine produced the same answer (float-tolerant)."""
        values = [result.value for result in self.results.values()]
        return all(values_agree(value, values[0]) for value in values)

    @property
    def fastest(self) -> str:
        """Key of the engine with the lowest simulated time."""
        return min(self.results, key=lambda key: self.results[key].simulated_ms)

    @property
    def answer(self) -> ResultSet:
        """The first engine's (decoded) result set, as the reference answer."""
        return next(iter(self.results.values()))

    def rows(self) -> list[ComparisonRow]:
        """Per-engine summary rows, fastest first."""
        reference = next(iter(self.results.values())).value
        slowest_ms = max(result.simulated_ms for result in self.results.values())
        rows = [
            ComparisonRow(
                engine=key,
                simulated_ms=result.simulated_ms,
                rows=result.rows,
                agrees=values_agree(result.value, reference),
                speedup_vs_slowest=(
                    slowest_ms / result.simulated_ms if result.simulated_ms else float("inf")
                ),
            )
            for key, result in self.results.items()
        ]
        return sorted(rows, key=lambda row: row.simulated_ms)

    def as_dicts(self) -> list[dict]:
        """The comparison as tidy records (one dict per engine)."""
        return [
            {
                "query": self.query.name,
                "engine": row.engine,
                "simulated_ms": row.simulated_ms,
                "rows": row.rows,
                "agrees": row.agrees,
                "speedup_vs_slowest": row.speedup_vs_slowest,
            }
            for row in self.rows()
        ]

    def __str__(self) -> str:
        lines = [f"query {self.query.name}: {len(self.results)} engines, consistent={self.consistent}"]
        lines.append(f"  {'engine':<16} {'simulated_ms':>12} {'rows':>8} {'agrees':>7} {'speedup':>8}")
        for row in self.rows():
            lines.append(
                f"  {row.engine:<16} {row.simulated_ms:>12.4f} {row.rows:>8} "
                f"{str(row.agrees):>7} {row.speedup_vs_slowest:>7.1f}x"
            )
        answer = self.answer
        if isinstance(answer, ResultSet) and len(answer):
            preview = answer.sort_values().head(5)
            lines.append(f"  answer ({min(len(answer), 5)} of {len(answer)} rows, decoded):")
            lines.extend("    " + line for line in str(preview).splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comparison({self.query.name!r}, engines={sorted(self.results)})"


class Session:
    """A database bound to the engines and the join-order planner."""

    def __init__(
        self,
        db: Database,
        *,
        cache: bool = True,
        zones: bool = True,
        shards: int | None = None,
        shard_start_method: str | None = None,
        resilience: ResiliencePolicy | None = None,
        faults: FaultPlan | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.db = db
        #: The failure-handling knobs every layer consults: the shard
        #: executor takes its retry budget and task timeout from here, and
        #: :class:`~repro.service.QueryService` its retry/breaker ladder.
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        #: Deterministic fault injection (chaos testing): when set, every
        #: execution's context carries this plan so the instrumented sites
        #: (shard tasks, shm attach/export) fire on schedule.  ``None`` --
        #: the production default -- keeps every site a no-op.
        self.faults = faults
        self._planner: JoinOrderPlanner | None = None
        self._engines: dict[str, object] = {}
        self._cache = ExecutionCache(db) if cache else None
        self._build_cache = BuildArtifactCache(db)
        # The pruned, compression-aware scan plane (zone-map data skipping +
        # packed column twins) is the default; ``zones=False`` falls back to
        # the unpruned selection-vector plane.  Answers and profiles are
        # identical either way -- only the work done differs.
        self._zone_cache = ZoneMapCache(db) if zones else None
        # Process-parallel sharded execution (``shards=N`` here or per call):
        # the executor -- worker pool + shared-memory plane -- is constructed
        # lazily on the first ``shards > 1`` execution and torn down by
        # :meth:`close`.  ``shard_start_method`` pins the multiprocessing
        # start method (``fork``/``spawn``/``forkserver``); None means the
        # platform default.
        self._default_shards = shards
        self._shard_start_method = shard_start_method
        self._shards: "object | None" = None
        self._shard_lock = threading.Lock()
        self._closed = False
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        #: ``cache is not False`` -> the unsharded context last built for it;
        #: rebuilt when :attr:`faults` is reassigned (see :meth:`context`).
        self._contexts: "dict[bool, ExecutionContext]" = {}
        self._standing: "dict[str, StandingQuery]" = {}
        self._standing_lock = threading.Lock()
        # Crash-consistent durability (``durability=DurabilityConfig(...)``):
        # the manager opens (and validates) the WAL, recovers any durable
        # state already in the directory -- a fresh directory recovers to a
        # trivial no-op, so construction doubles as ``Session.open`` -- and
        # then hooks every table so appends log-then-publish.
        self._durability: DurabilityManager | None = None
        if durability is not None:
            self._durability = DurabilityManager(db, durability, faults=self.faults)
            self._durability.recover()
            self._durability.attach()

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, db: Database, *, durability: DurabilityConfig, **kwargs) -> "Session":
        """Open a session over ``db`` with durable state recovered.

        The documented recovery entry point: loads the newest valid
        checkpoint from ``durability.dir``, replays the WAL tail in version
        order (truncating a torn tail cleanly), and returns a session whose
        version frontier is byte-identical to the last durable state --
        then keeps logging, so the next crash recovers too.  Equivalent to
        ``Session(db, durability=durability, ...)``; this name exists so
        call sites read as what they do.
        """
        return cls(db, durability=durability, **kwargs)

    @property
    def durability(self) -> DurabilityManager | None:
        """The durability manager, or ``None`` for an in-memory session."""
        return self._durability

    @property
    def recovery(self) -> "RecoveryReport | None":
        """What the most recent :meth:`recover` pass found (None if never)."""
        return self._durability.last_recovery if self._durability else None

    def recover(self) -> "RecoveryReport":
        """Re-run recovery from the durability directory (idempotent)."""
        if self._durability is None:
            raise ValueError("session has no durability configured; pass durability=DurabilityConfig(...)")
        return self._durability.recover()

    def checkpoint(self) -> str:
        """Force a checkpoint now; returns the new snapshot's path."""
        if self._durability is None:
            raise ValueError("session has no durability configured; pass durability=DurabilityConfig(...)")
        return self._durability.checkpoint()

    # ------------------------------------------------------------------
    @property
    def planner(self) -> JoinOrderPlanner:
        """The (lazily constructed) join-order planner for this database."""
        if self._planner is None:
            self._planner = JoinOrderPlanner(self.db)
        return self._planner

    def engine(self, name: str):
        """The engine called ``name``, instantiated once per session."""
        key = resolve_engine(name)
        if key not in self._engines:
            self._engines[key] = ENGINES[key](self.db)
        return self._engines[key]

    def prepare(self, query: SSBQuery | QueryBuilder, *, optimize: bool = False) -> SSBQuery:
        """Resolve a builder into a validated spec, optionally reordering joins.

        ``optimize=True`` reorders the joins cost-based when the planner can
        identify them uniquely; a query joining the same dimension twice (a
        role-playing dimension) executes in its written order instead.
        """
        if isinstance(query, QueryBuilder):
            query = query.build(self.db)
        if not isinstance(query, SSBQuery):
            raise TypeError(f"expected an SSBQuery or QueryBuilder, got {type(query).__name__}")
        dimensions = {join.dimension for join in query.joins}
        if optimize and len(query.joins) > 1 and len(dimensions) == len(query.joins):
            query = self.planner.reorder(query)
        return query

    # ------------------------------------------------------------------
    def cache_info(self, cache: str = "execution") -> CacheInfo | ZoneInfo:
        """Hit/miss counters of one of the session's caches.

        ``cache="execution"`` (the default) reports the functional-execution
        memo; ``cache="builds"`` reports the dimension-build artifact cache
        every execution -- standing-query reads included -- fetches its
        lookups through (a replayed query moves neither counter);
        ``cache="zones"`` reports the zone-map statistics cache and the
        data-skipping counters (zones skipped / taken whole / evaluated,
        rows pruned without being touched).  :meth:`clear_caches` drops all
        three caches and zeroes every counter reported here in one call.
        """
        if cache == "builds":
            return self._build_cache.info()
        if cache == "zones":
            if self._zone_cache is None:
                return ZoneInfo(0, 0, 0, 0, 0, 0, 0)
            return self._zone_cache.info()
        if cache != "execution":
            raise ValueError(f"unknown cache {cache!r}; expected 'execution', 'builds', or 'zones'")
        if self._cache is None:
            return CacheInfo(hits=0, misses=0, size=0, maxsize=0)
        return self._cache.info()

    def counters(self) -> CounterSnapshot:
        """A point-in-time snapshot of every cache counter, for delta math.

        Snapshots subtract: ``session.counters() - before`` covers exactly
        the work done since ``before`` was taken.  The serving layer
        (:class:`repro.service.QueryService`) brackets each request with a
        pair of snapshots to stamp its :class:`~repro.service.RequestTrace`
        with per-request cache behaviour.
        """
        return snapshot_counters(
            self._cache, self._build_cache, self._zone_cache, shards=self._shards
        )

    def shard_executor(self):
        """The session's process-shard executor, created lazily on first use.

        Owns the persistent worker pool and the shared-memory fact-table
        exports (see :mod:`repro.engine.shard`); lifecycle is tied to
        :meth:`close`.  A closed session refuses: a pool (and ``/dev/shm``
        exports) built after :meth:`close` would have nothing to close it.
        """
        with self._shard_lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self._shards is None:
                from repro.engine.shard import ShardExecutor

                self._shards = ShardExecutor(
                    self.db,
                    start_method=self._shard_start_method,
                    retry_budget=self.resilience.shard_retry_budget,
                    task_timeout_s=self.resilience.shard_task_timeout_s,
                )
            return self._shards

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The session's shared worker pool, created lazily on first use.

        ``run_many(workers=N)`` keeps its own per-call pools (a batch gets
        exactly N threads); this handle is for long-lived callers -- the
        async :class:`~repro.service.QueryService` dispatches admitted
        queries onto it -- so one session serves any number of concurrent
        submitters without spawning a pool per request.  Sized to the
        hardware, torn down by :meth:`close`; a closed session refuses, as
        :meth:`shard_executor` does, since a pool built after :meth:`close`
        would have nothing to shut it down.
        """
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=os.cpu_count() or 1, thread_name_prefix="repro-session"
                )
            return self._executor

    def close(self) -> None:
        """Shut down the shared executor and the shard pool (idempotent;
        caches stay intact, so unsharded runs keep working).  Closing the
        shard executor unlinks every shared-memory segment the session
        published, so a closed session leaves ``/dev/shm`` exactly as it
        found it -- and sharded runs and :attr:`executor` raise from then on.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)
        with self._shard_lock:
            shards, self._shards = self._shards, None
        if shards is not None:
            shards.close()
        if self._durability is not None:
            # Final fsync + detach the table hooks; the directory itself
            # stays behind, ready for the next Session.open.
            self._durability.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def clear_caches(self) -> None:
        """Drop the execution, build-artifact, and zone-map caches in one call.

        Every cache's entries are dropped *and* its counters are reset to
        zero (hits, misses, and the zone-skipping tallies reported by
        :meth:`cache_info`), so a benchmark or test can bracket a phase with
        ``clear_caches()`` and read fresh counters afterwards.  Note that
        ingest does **not** need this: appends bump the owning table's
        version, and every cache keys (or validates) its entries by
        ``(table, version)``, so an entry of an older version is never
        replayed -- after a fact append it is extended on next read --
        and ``clear_caches`` is for reclaiming memory or resetting
        counters, not for correctness.
        """
        if self._cache is not None:
            self._cache.clear()
        self._build_cache.clear()
        if self._zone_cache is not None:
            self._zone_cache.clear()

    # ------------------------------------------------------------------
    def table_versions(self) -> dict[str, int]:
        """The current published version of every table in the database.

        Versions start at 0 and bump once per successful
        :meth:`~repro.storage.Table.append`.  The serving layer stamps each
        request's trace with this mapping so a replayed trace records
        exactly which data every query ran against.
        """
        return {
            name: getattr(table, "version", 0)
            for name, table in sorted(self.db.tables.items())
        }

    def ingest(self, table: str, arrays: "dict[str, np.ndarray | Sequence]") -> int:
        """Append one micro-batch to ``table``; returns its new version.

        The append is atomic (seal-then-publish: readers admitted before the
        version flip keep the old columns, readers after it see the whole
        batch) and is all the work done here, besides a checkpoint when the
        log has grown enough.  Caches are *not* cleared -- they key by
        ``(table, version)``, so artifacts built against other tables keep
        hitting, a memoized answer over a grown fact table is extended on
        next read (only the appended rows are folded in), and one that
        joins a grown dimension is recomputed.  Standing queries are
        maintained the same way, on their next read.
        """
        version = self.db.table(table).append(arrays)
        if self._durability is not None:
            # The append itself is already durable (the WAL record was
            # fsynced before the version flip); this only asks whether the
            # log has grown enough to be folded into a checkpoint.
            self._durability.maybe_checkpoint()
        return version

    def register_standing(
        self, query: SSBQuery | QueryBuilder, *, name: str | None = None
    ) -> "StandingQuery":
        """Register an aggregate query that is maintained on read.

        The query is evaluated once, in full, at the current version.  After
        that each ``.answer()`` of the returned
        :class:`~repro.ingest.StandingQuery` handle folds only the fact rows
        appended since the previous read into the partial aggregate it keeps
        (and re-evaluates in full after a dimension append) --
        byte-identical to a from-scratch run at every version (the
        differential suite proves it).  Appends do no work for it.  A query
        whose first evaluation raises is not registered.
        """
        from repro.ingest.standing import StandingQuery

        prepared = self.prepare(query)
        key = name if name is not None else prepared.name
        # Refuse a taken name before doing the work; the insert re-checks
        # against a concurrent registration.
        if key in self.standing_queries():
            raise ValueError(f"standing query {key!r} already registered")
        standing = StandingQuery(self, prepared, name=key)
        standing.refresh()
        with self._standing_lock:
            if key in self._standing:
                raise ValueError(f"standing query {key!r} already registered")
            self._standing[key] = standing
        return standing

    def unregister_standing(self, name: str) -> None:
        """Remove a standing query registered under ``name``."""
        with self._standing_lock:
            del self._standing[name]

    def standing_queries(self) -> "dict[str, StandingQuery]":
        """A snapshot of the registered standing queries, by name."""
        with self._standing_lock:
            return dict(self._standing)

    def context(self, *, cache: bool | None = None, shards: int | None = None) -> ExecutionContext:
        """This session's state as the context of one execution -- the only
        place its caches, shard pool and fault plan become ambient.

        ``cache=False`` leaves the execution memo out; ``shards`` overrides
        the session-level default, and a count of 1 (or none) deliberately
        leaves the binding out so the execution shares cache entries -- and
        the cache key -- with the single-process and morsel-threaded paths.

        The context is frozen, so an unsharded one is built once per
        ``cache`` setting and handed out again until :attr:`faults` is
        reassigned: a served hit asks twice (the look on the event loop,
        then :meth:`run`).  A sharded one is built per call, so a closed
        session's :meth:`shard_executor` refusal is met on every call.
        """
        effective = shards if shards is not None else self._default_shards
        if effective is not None and effective < 1:
            raise ValueError(f"shards must be >= 1, got {effective}")
        memo = cache is not False
        context = self._contexts.get(memo)
        if context is None or context.faults is not self.faults:
            context = self._contexts[memo] = ExecutionContext(
                cache=self._cache if memo else None,
                builds=self._build_cache,
                zones=self._zone_cache,
                faults=self.faults,
            )
        if effective is not None and effective > 1:
            return replace(context, shards=self.shard_executor().bind(effective))
        return context

    def _stored(self, engine_name: str, prepared: SSBQuery, shards: int | None = None) -> bool:
        """Whether :meth:`run` would replay ``engine_name``'s stored product
        for ``prepared`` instead of running an engine.  Counts nothing and
        never waits for the memo's lock (a busy lock reads as not stored),
        so the serving layer can ask on its event loop.
        """
        engine_key = resolve_engine(engine_name)
        with activate_context(self.context(shards=shards)) as context:
            memo = context.cache
            key = memo.key(self.db, prepared) if memo is not None else None
            return key is not None and memo.stores(key, engine_key)

    def _execute(
        self,
        engine_name: str,
        prepared: SSBQuery,
        cache: bool | None,
        shards: int | None = None,
    ) -> ResultSet:
        engine_key = resolve_engine(engine_name)
        chosen = self.engine(engine_key)
        # Installed here, on the executing thread: pool threads and
        # ``loop.run_in_executor`` do not inherit the submitter's context,
        # and this is the one place every execution path flows through.
        with activate_context(self.context(cache=cache, shards=shards)) as context:
            memo = context.cache
            key = memo.key(self.db, prepared) if memo is not None else None
            if key is not None:
                stored = memo.replay(key, engine_key)
                if stored is not None:
                    value, (columns, records), product = stored
                    return ResultSet(_private_result(product, value), prepared, columns, records)
            raw = bill(chosen, prepared, *execute_query(self.db, prepared))
            result = ResultSet.from_result(self.db, prepared, raw)
            # Appends only grow versions, so an unchanged key proves the run
            # read exactly the versions the product is stored under.
            if key is not None and memo.key(self.db, prepared) == key:
                memo.record(key, engine_key, (result.columns, result.records), _private_result(raw, None))
        return result

    # ------------------------------------------------------------------
    def run(
        self,
        query: SSBQuery | QueryBuilder,
        engine: str = "cpu",
        *,
        optimize: bool = False,
        cache: bool | None = None,
        shards: int | None = None,
    ) -> ResultSet:
        """Execute one query on one engine, returning a decoded ResultSet.

        ``shards=N`` (N > 1) runs the query process-parallel: the fact rows
        split into zone-aligned ranges, each range executes in a worker
        process over the shared-memory fact columns, and the partial
        aggregates merge in this process -- byte-identical answers and
        profiles, without the GIL.  Overrides the session-level default.
        """
        prepared = self.prepare(query, optimize=optimize)
        return self._execute(engine, prepared, cache, shards=shards)

    def run_many(
        self,
        queries: Iterable[SSBQuery | QueryBuilder],
        engine: str = "cpu",
        *,
        optimize: bool = False,
        cache: bool | None = None,
        workers: int = 1,
        return_exceptions: bool = False,
        shards: int | None = None,
    ) -> "list[ResultSet | Exception]":
        """Execute a batch of queries on one engine, results in input order.

        Each query is one morsel, executed exactly like :meth:`run` would.
        ``workers=N`` (N > 1) pulls the morsels through a pool of N threads
        sharing the session's lock-protected caches; the
        :class:`~repro.engine.cache.BuildArtifactCache` arbitrates in-flight
        builds, so each distinct dimension lookup is constructed exactly
        once no matter how the batch lands on the workers
        (``cache_info("builds")`` reports the hit/miss counters).

        ``return_exceptions=True`` turns per-query failures into in-place
        results: a query that raises contributes its exception object at its
        input position instead of aborting the batch, so the surviving
        queries' ResultSets still come back, in order.  The default
        (``False``) raises the first failure in input order -- with
        ``workers > 1`` after the pool has drained, because every morsel is
        submitted before any result is awaited and a failing query never
        starves the rest of the batch.

        ``shards=N`` routes each query through the process-shard pool (see
        :meth:`run`); intra-query process parallelism composes with the
        inter-query ``workers`` threads, which merely dispatch and merge.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        prepared = [self.prepare(query, optimize=optimize) for query in queries]
        # Fail fast on a bad engine name, and create the instance up front:
        # the per-session engine map is not guarded against racing workers.
        self.engine(engine)

        def morsel(query: SSBQuery) -> "ResultSet | Exception":
            try:
                return self._execute(engine, query, cache, shards=shards)
            except Exception as exc:
                if not return_exceptions:
                    raise
                return exc

        if workers == 1:
            return [morsel(query) for query in prepared]
        with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-run-many") as pool:
            futures = [pool.submit(morsel, query) for query in prepared]
            return [future.result() for future in futures]

    def compare(
        self,
        query: SSBQuery | QueryBuilder,
        engines: Sequence[str] | None = None,
        *,
        optimize: bool = False,
        cache: bool | None = None,
    ) -> Comparison:
        """Run one query on several engines and tabulate the results.

        With caching enabled (the default) the functional execution pass
        runs once for the whole comparison; every engine after the first
        replays the memoized answer and profile and only re-costs it under
        its own hardware model.  Repeating the comparison replays every
        engine's finished result.
        """
        if isinstance(engines, str):
            engines = (engines,)
        names = tuple(engines) if engines is not None else DEFAULT_COMPARE_ENGINES
        if not names:
            raise ValueError("compare needs at least one engine")
        resolved = [resolve_engine(name) for name in names]
        duplicates = sorted({key for key in resolved if resolved.count(key) > 1})
        if duplicates:
            raise ValueError(f"engine(s) listed more than once in compare: {duplicates}")
        prepared = self.prepare(query, optimize=optimize)
        results = {key: self._execute(key, prepared, cache) for key in resolved}
        return Comparison(prepared, results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(db={self.db.name!r}, engines={available_engines()})"
