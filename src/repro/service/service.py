"""An asyncio query service with admission control over a :class:`Session`.

:class:`QueryService` turns the batch-oriented Session into something that
can *serve*: any number of concurrent asyncio tasks ``await submit(...)``
queries, and the service admits them through a bounded queue.  A query
whose engine product the execution memo already stores completes on the
event-loop thread (a replay moves no table data, so the hop to a worker
would cost more than the answer); everything else goes to the session's
shared worker pool (:attr:`repro.api.Session.executor`), where at most
``max_inflight`` requests execute at once.  The session's caches are
already ``ContextVar``-scoped and lock-guarded, so concurrent executions
share the execution memo, build artifacts, and zone maps safely.

Overload is a first-class state, not a crash: when the queue is full the
service **rejects** the new request with a typed :class:`OverloadError`
carrying the queue stats the client needs for backoff.  A per-request
timeout (``submit(timeout=...)``) covers the whole queued+running lifetime,
and :meth:`QueryService.close` drains gracefully: no new admissions, every
admitted request finishes.

Failure is the other first-class state (the degradation ladder, governed by
the session's :class:`~repro.faults.ResiliencePolicy`):

* **Retry rung** -- a transient execution failure puts the request into
  ``backoff`` (:meth:`~repro.faults.ResiliencePolicy.backoff_s`: x2 per
  attempt, capped at 1 s, up to 25 % deterministic jitter) and then
  *re-admits* it: the retry passes the same overload gate as a fresh
  submission, so retries pay for their own queueing instead of jumping the
  line.  The request's one timeout spans all attempts.
* **Breaker rung** -- ``breaker_threshold`` consecutive shard-plane
  failures (monolithic fallbacks or pool rebuilds observed in the counter
  delta) trip a breaker that routes queries to ``shards=1``; every
  ``breaker_probe_every``-th dispatch while open probes the shard plane at
  full width, and a clean probe closes it.

Every trace records ``attempts``, the ``faults`` absorbed, and the
``plane`` that finally answered.

All service state mutates on the event-loop thread only (``submit``,
dispatch, loop-thread replays, completion callbacks, timeouts, retries);
worker threads touch nothing but the session, so the service itself needs
no locks.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.api.builder import QueryBuilder
from repro.api.resultset import ResultSet
from repro.api.session import Session
from repro.engine.cache import CounterSnapshot
from repro.faults import SERVICE_EXECUTE
from repro.service.trace import RequestTrace
from repro.ssb.queries import SSBQuery

#: Settled traces the service keeps (:attr:`QueryService.traces`), newest last.
TRACE_LIMIT = 100_000


class ServiceError(RuntimeError):
    """Base of the service's typed failures."""


class OverloadError(ServiceError):
    """The bounded queue refused a request.

    Carries the queue stats a client needs to back off intelligently:
    the depth and inflight count at refusal time, and the configured limits.
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int,
        max_queue_depth: int,
        inflight: int,
        max_inflight: int,
        class_tag: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth
        self.inflight = inflight
        self.max_inflight = max_inflight
        self.class_tag = class_tag


class QueryTimeoutError(ServiceError):
    """A request exceeded its timeout while queued, running or backing off.

    ``where`` says which: ``"queued"`` requests are removed from the queue
    and never execute; ``"running"`` requests cannot be interrupted
    mid-kernel -- the worker finishes and the result is discarded;
    ``"backoff"`` requests were waiting between two attempts, with no
    worker holding them, and are never re-admitted.
    """

    def __init__(self, message: str, *, timeout_s: float, where: str) -> None:
        super().__init__(message)
        self.timeout_s = timeout_s
        self.where = where


class ServiceClosedError(ServiceError):
    """Submit after :meth:`QueryService.close` (or a non-drain shutdown)."""


@dataclass(frozen=True)
class ServiceResult:
    """One successful execution: the decoded answer plus its trace."""

    result: ResultSet
    trace: RequestTrace


@dataclass(frozen=True)
class IngestResult:
    """One successful ingest: the published version plus its trace."""

    table: str
    version: int
    rows: int
    trace: RequestTrace


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time summary of everything the service has seen."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    #: Always 0: the service never evicts a queued request.  Kept because
    #: the benchmark ledger sums it into ``service.rejected``.
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    cancelled: int = 0
    queued: int = 0
    inflight: int = 0
    peak_queue_depth: int = 0
    #: Worker dispatches running at once, at most: a request answered by a
    #: loop-thread replay never holds an inflight slot.
    peak_inflight: int = 0
    #: Transient failures absorbed by the retry rung (attempts beyond each
    #: request's first), and times the shard breaker tripped open.
    retries: int = 0
    breaker_trips: int = 0


@dataclass(eq=False)  # identity semantics: requests live in the backoff set
class _Request:
    """Internal per-request state: the spec, its future, and its trace.

    ``kind`` is ``"query"`` or ``"ingest"``; ingest requests carry
    ``payload = (table, arrays, rows)`` instead of a query spec.  Both
    kinds flow through the same admission queue, so a workload that
    interleaves reads and writes is governed by one admission gate.
    """

    query: Optional[SSBQuery]
    engine: str
    trace: RequestTrace
    future: asyncio.Future
    timeout_handle: Optional[asyncio.TimerHandle] = field(default=None, repr=False)
    kind: str = "query"
    payload: Optional[tuple] = field(default=None, repr=False)
    #: Current execution attempt (1-based); mirrored onto the trace.
    attempt: int = 1
    #: The shard width this dispatch chose (None = service default off).
    shards_used: Optional[int] = None
    #: Whether this dispatch is a breaker probe at full shard width.
    probe: bool = field(default=False, repr=False)
    #: The pending backoff timer between attempts, if any.
    retry_handle: Optional[asyncio.TimerHandle] = field(default=None, repr=False)


class QueryService:
    """Admission-controlled concurrent query execution over one Session.

    Usage::

        session = Session(db)
        async with QueryService(session, max_inflight=4, max_queue_depth=64) as svc:
            result = await svc.submit(QUERIES["q2.1"], class_tag="q2.1")
            print(result.result, result.trace)

    ``max_inflight`` bounds concurrent executions on the session's worker
    pool; ``max_queue_depth`` bounds how many admitted requests may wait.
    A dispatched query whose engine product is already stored completes on
    the event loop without taking a worker or an inflight slot; everything
    else goes to :attr:`Session.executor <repro.api.Session.executor>`.
    When both are full a new request is rejected with :class:`OverloadError`.
    ``shards`` is the width every served query runs at.  The retry and
    breaker knobs are the session's :attr:`~repro.api.Session.resilience`.
    Answers are byte-identical to ``session.run`` -- the service adds
    scheduling, never execution semantics.
    """

    def __init__(
        self,
        session: Session,
        *,
        max_inflight: int = 2,
        max_queue_depth: int = 64,
        shards: Optional[int] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.session = session
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        #: Intra-query process parallelism: every served query dispatches to
        #: the session's shard pool at this width.  The blocking shard waits
        #: happen on the session's executor *threads*, so the asyncio loop
        #: never blocks -- admission and timeouts stay live while worker
        #: processes chew on shards.
        self.shards = shards
        self.traces: deque = deque(maxlen=TRACE_LIMIT)
        self._queue: deque = deque()
        self._inflight = 0
        self._closing = False
        self._idle_waiters: list = []
        self._ids = itertools.count(1)
        #: Requests sleeping between attempts (their backoff timers are
        #: cancelled by a non-drain close; drain waits for them).
        self._backoff: set = set()
        self._breaker_open = False
        self._breaker_failures = 0
        self._breaker_dispatches = 0
        self._stats = {
            "submitted": 0, "completed": 0, "rejected": 0,
            "timed_out": 0, "failed": 0, "cancelled": 0,
            "peak_queue_depth": 0, "peak_inflight": 0,
            "retries": 0, "breaker_trips": 0,
        }

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Counters so far plus the live queue/inflight gauges."""
        return ServiceStats(queued=len(self._queue), inflight=self._inflight, **self._stats)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def inflight(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------
    async def submit(
        self,
        query: "SSBQuery | QueryBuilder",
        *,
        engine: str = "cpu",
        class_tag: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> ServiceResult:
        """Admit one query and await its result.

        ``timeout`` (seconds, ``None`` for none) spans the request's whole
        queued, running and backing-off lifetime.  Raises
        :class:`OverloadError` if admission is refused,
        :class:`QueryTimeoutError` if the request's timeout fires first,
        :class:`ServiceClosedError` after shutdown, and whatever the
        execution itself raises (bad column, bad engine, ...).
        """
        if self._closing:
            raise ServiceClosedError("QueryService is closed; no new submissions")
        loop = asyncio.get_running_loop()
        prepared = self.session.prepare(query)
        # Fail fast, and instantiate the engine on the loop thread, so
        # worker threads only ever *read* the session's engine map.
        self.session.engine(engine)
        trace = RequestTrace(
            request_id=next(self._ids),
            query=prepared.name,
            class_tag=class_tag if class_tag is not None else prepared.name,
            engine=engine,
            enqueued_at=time.perf_counter(),
            enqueued_wall=time.time(),
            queue_depth_seen=len(self._queue),
            inflight_seen=self._inflight,
        )
        request = self._admit(loop, trace, query=prepared, engine=engine, timeout=timeout)
        return await request.future

    async def ingest(
        self,
        table: str,
        arrays: dict,
        *,
        class_tag: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> IngestResult:
        """Admit one micro-batch append and await its published version.

        Ingests flow through the same bounded queue and worker pool as
        queries, so reads and writes interleave under one admission policy.
        The append itself is seal-then-publish with an atomic version flip
        (:meth:`repro.storage.Table.append`): a query admitted at version
        ``v`` never observes a torn batch -- it reads all of ``v`` or all
        of a later fully-sealed version.  Registered standing queries do no
        work here; each folds the batch in on its next read.
        """
        if self._closing:
            raise ServiceClosedError("QueryService is closed; no new submissions")
        loop = asyncio.get_running_loop()
        self.session.db.table(table)  # fail fast on an unknown table
        rows = len(next(iter(arrays.values()))) if arrays else 0
        trace = RequestTrace(
            request_id=next(self._ids),
            query=f"ingest:{table}",
            class_tag=class_tag if class_tag is not None else f"ingest:{table}",
            engine="-",
            enqueued_at=time.perf_counter(),
            enqueued_wall=time.time(),
            queue_depth_seen=len(self._queue),
            inflight_seen=self._inflight,
        )
        request = self._admit(
            loop, trace, kind="ingest", payload=(table, arrays, rows), timeout=timeout
        )
        return await request.future

    def _admit(
        self,
        loop: asyncio.AbstractEventLoop,
        trace: RequestTrace,
        *,
        query: Optional[SSBQuery] = None,
        engine: str = "-",
        kind: str = "query",
        payload: Optional[tuple] = None,
        timeout: Optional[float] = None,
    ) -> _Request:
        """Shared admission tail of :meth:`submit` and :meth:`ingest`."""
        self._stats["submitted"] += 1
        if self._inflight >= self.max_inflight and len(self._queue) >= self.max_queue_depth:
            raise self._overloaded(trace)
        request = _Request(query, engine, trace, loop.create_future(), kind=kind, payload=payload)
        self._queue.append(request)
        self._stats["peak_queue_depth"] = max(self._stats["peak_queue_depth"], len(self._queue))
        if timeout is not None:
            trace.timeout_s = timeout
            request.timeout_handle = loop.call_later(timeout, self._expire, request, timeout)
        self._dispatch(loop)
        return request

    # ------------------------------------------------------------------
    def _overloaded(self, trace: RequestTrace) -> OverloadError:
        """Queue full: settle ``trace`` as rejected; returns the error to raise."""
        trace.status = "rejected"
        trace.finished_at = time.perf_counter()
        self._stats["rejected"] += 1
        self.traces.append(trace)
        return OverloadError(
            f"queue full ({len(self._queue)}/{self.max_queue_depth} queued, "
            f"{self._inflight}/{self.max_inflight} inflight); request "
            f"{trace.class_tag!r} rejected",
            queue_depth=len(self._queue),
            max_queue_depth=self.max_queue_depth,
            inflight=self._inflight,
            max_inflight=self.max_inflight,
            class_tag=trace.class_tag,
        )

    def _dispatch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Move queued requests onto the worker pool up to ``max_inflight``.

        A query whose engine product is already stored runs right here, on
        the loop thread, without taking an inflight slot: the replay moves
        no table data and costs less than the hop to a worker.  It calls
        :meth:`Session.run <repro.api.Session.run>` in an empty context, as
        a worker thread would, not in the context of whichever task or
        completion callback dispatched it, and records the delta a
        worker-path hit records on a quiet session.  Anything else -- a
        miss, a busy memo lock, an error while looking, or an active fault
        plan (whose :data:`~repro.faults.SERVICE_EXECUTE` site fires on the
        worker) -- takes the worker path, which raises any error itself;
        over a closed session, whose pool refuses to start, the request
        fails here without taking an inflight slot.  Looking and replaying
        are two steps: a product evicted, or outdated by an append, in
        between is computed on the loop -- correctly, and counted so by the
        session, but slower and traced as a hit.
        """
        while self._queue and self._inflight < self.max_inflight:
            request = self._queue.popleft()
            request.trace.status = "running"
            request.trace.dequeued_at = time.perf_counter()
            request.shards_used, request.probe = self._route(request)
            if self._stored(request):
                try:
                    versions = self.session.table_versions()
                    result = contextvars.Context().run(
                        self.session.run, request.query,
                        engine=request.engine, shards=request.shards_used,
                    )
                except Exception as exc:
                    self._fail(request, exc)
                else:
                    self._succeed(request, result, CounterSnapshot(execution_hits=1), versions)
                self._notify_idle()
                continue
            try:
                executor = self.session.executor
            except RuntimeError as exc:  # a closed session starts no pool
                self._fail(request, exc)
                self._notify_idle()
                continue
            self._inflight += 1
            self._stats["peak_inflight"] = max(self._stats["peak_inflight"], self._inflight)
            pool_future = loop.run_in_executor(executor, self._execute, request)
            pool_future.add_done_callback(
                lambda done, request=request: self._finish(request, done)
            )

    def _stored(self, request: _Request) -> bool:
        """Whether a dispatched query can be replayed on the loop thread."""
        if request.kind != "query" or self.session.faults is not None:
            return False
        try:
            return self.session._stored(request.engine, request.query, request.shards_used)
        except Exception:  # the worker path raises it again, and reports it
            return False

    def _route(self, request: _Request) -> "tuple[Optional[int], bool]":
        """The breaker's routing decision: ``(shard width, is_probe)``.

        With the breaker open, queries run at ``shards=1`` (the degraded
        plane shares the monolithic cache key, so answers stay warm), and
        every ``breaker_probe_every``-th dispatch goes out at full width
        to test whether the shard plane has healed.
        """
        if request.kind != "query" or self.shards is None or self.shards <= 1:
            return self.shards, False
        if not self._breaker_open:
            return self.shards, False
        self._breaker_dispatches += 1
        if self._breaker_dispatches % self.session.resilience.breaker_probe_every == 0:
            return self.shards, True
        return 1, False

    def _execute(self, request: _Request):
        """Worker-thread body: run the request, bracketed by counter snapshots.

        Besides the cache-counter delta, the request captures the table
        versions it ran against: queries read them at dispatch (the
        execution snapshots each table once, so a concurrent append can
        only ever substitute a *fresher fully-sealed* version, never a torn
        one), ingests read them after their batch publishes.

        Queries carry the :data:`~repro.faults.SERVICE_EXECUTE` injection
        site here, upstream of the session run -- the exact spot the retry
        rung recovers from.  Ingests deliberately do not: an append is not
        idempotent, so the service never retries one and never injects
        ahead of one.
        """
        before = self.session.counters()
        if request.kind == "ingest":
            table, arrays, _rows = request.payload
            version = self.session.ingest(table, arrays)
            manager = getattr(self.session, "durability", None)
            if manager is not None:
                # The acknowledgement below only happens after this point,
                # so the client's success is gated on the configured
                # durability point: the WAL record (and, under ``always``,
                # its fsync) completed inside ``ingest`` before the version
                # published.  Stamp what the wait bought.
                request.trace.durability = manager.config.fsync
                request.trace.fsync_ms = manager.last_fsync_ms
            return version, self.session.counters() - before, self.session.table_versions()
        plan = self.session.faults
        if plan is not None:
            plan.fire(SERVICE_EXECUTE)
        versions = self.session.table_versions()
        result = self.session.run(
            request.query, engine=request.engine, shards=request.shards_used
        )
        return result, self.session.counters() - before, versions

    def _finish(self, request: _Request, done: asyncio.Future) -> None:
        """Loop-thread completion: settle, retry, or fall down the ladder."""
        self._inflight -= 1
        try:
            result, delta, versions = done.result()
        except Exception as exc:
            self._fail(request, exc)
        else:
            self._succeed(request, result, delta, versions)
        self._dispatch(asyncio.get_running_loop())
        self._notify_idle()

    def _fail(self, request: _Request, exc: Exception) -> None:
        """Settle or retry a request whose execution raised ``exc``."""
        trace = request.trace
        trace.faults.append(f"attempt {request.attempt}: {type(exc).__name__}: {exc}")
        if isinstance(exc, BrokenExecutor):
            # Only unambiguously shard-shaped escapes feed the breaker:
            # a bad-column TypeError says nothing about the shard plane.
            self._note_shard_health(request, failed=True)
        if self._should_retry(request, exc):
            self._schedule_retry(request)
            return
        trace.finished_at = time.perf_counter()
        if request.timeout_handle is not None:
            request.timeout_handle.cancel()
        if not request.future.done():  # not already timed out
            trace.status = "error"
            trace.error = f"{type(exc).__name__}: {exc}"
            self._stats["failed"] += 1
            request.future.set_exception(exc)
        self.traces.append(trace)

    def _succeed(self, request: _Request, result, delta, versions) -> None:
        """Settle a request that produced ``result``: the success tail of
        both the worker path (:meth:`_finish`) and a loop-thread replay."""
        trace = request.trace
        trace.finished_at = time.perf_counter()
        if request.timeout_handle is not None:
            request.timeout_handle.cancel()
        trace.counters = delta
        trace.table_versions = dict(versions)
        if request.kind == "query":
            trace.plane = self._plane_of(request, delta)
            # Only shard work says anything about the shard plane's health:
            # a replayed answer ran no shard task.
            if delta.shard_queries or delta.failure_fallbacks or delta.pool_rebuilds:
                self._note_shard_health(
                    request, failed=delta.failure_fallbacks > 0 or delta.pool_rebuilds > 0
                )
            elif request.probe and self._breaker_open:
                # A probe answered without a shard task tested nothing: the
                # next dispatch probes instead.
                self._breaker_dispatches = self.session.resilience.breaker_probe_every - 1
        if not request.future.done():
            trace.status = "ok"
            self._stats["completed"] += 1
            if request.kind == "ingest":
                table, _arrays, rows = request.payload
                request.future.set_result(
                    IngestResult(table=table, version=result, rows=rows, trace=trace)
                )
            else:
                request.future.set_result(ServiceResult(result, trace))
        # else: timed out while running; the computed answer is discarded.
        self.traces.append(trace)

    # ------------------------------------------------------------------
    # The degradation ladder (loop-thread only, like all service state)
    # ------------------------------------------------------------------
    def _plane_of(self, request: _Request, delta) -> str:
        """Which execution plane answered, read off the counter delta."""
        if delta.failure_fallbacks > 0:
            return "monolithic-fallback"
        if delta.shard_queries > 0:
            return "sharded"
        if delta.execution_hits > 0 and delta.execution_misses == 0:
            return "cache"
        if (
            self.shards is not None
            and self.shards > 1
            and request.shards_used is not None
            and request.shards_used <= 1
        ):
            return "monolithic-breaker"
        return "monolithic"

    def _note_shard_health(self, request: _Request, *, failed: bool) -> None:
        """Feed one full-width shard outcome into the breaker."""
        if request.kind != "query" or self.shards is None or self.shards <= 1:
            return
        if request.shards_used != self.shards:
            return  # degraded dispatch: says nothing about the shard plane
        if failed:
            self._breaker_failures += 1
            if not self._breaker_open and self._breaker_failures >= self.session.resilience.breaker_threshold:
                self._breaker_open = True
                self._breaker_dispatches = 0
                self._stats["breaker_trips"] += 1
        else:
            self._breaker_failures = 0
            self._breaker_open = False

    @property
    def breaker_open(self) -> bool:
        """Whether the shard breaker is currently routing to ``shards=1``."""
        return self._breaker_open

    def _should_retry(self, request: _Request, exc: Exception) -> bool:
        """Whether the retry rung absorbs this failure."""
        return (
            request.kind == "query"
            and not request.future.done()  # a timed-out request stays failed
            and request.attempt < self.session.resilience.max_attempts
            and self.session.resilience.is_transient(exc)
        )

    def _schedule_retry(self, request: _Request) -> None:
        """Put the request into backoff; it re-enters admission on wake."""
        delay = self.session.resilience.backoff_s(request.trace.request_id, request.attempt)
        request.attempt += 1
        request.trace.attempts = request.attempt
        request.trace.status = "backoff"
        self._stats["retries"] += 1
        self._backoff.add(request)
        request.retry_handle = asyncio.get_running_loop().call_later(
            delay, self._readmit, request
        )

    def _readmit(self, request: _Request) -> None:
        """Backoff elapsed: pass the overload gate again and re-queue.

        The retry is deliberately *not* front-of-line: it pays the same
        admission toll as a fresh submission (a full queue settles it with
        :class:`OverloadError`), so a failing workload cannot crowd out
        healthy traffic by retrying.
        """
        self._backoff.discard(request)
        request.retry_handle = None
        trace = request.trace
        if request.future.done():
            # Its caller cancelled it while it backed off (a timeout drops
            # the timer instead): finalize the trace, run nothing.
            if trace.finished_at is None:
                trace.finished_at = time.perf_counter()
            self.traces.append(trace)
            self._notify_idle()
            return
        if self._inflight >= self.max_inflight and len(self._queue) >= self.max_queue_depth:
            if request.timeout_handle is not None:
                request.timeout_handle.cancel()
            request.future.set_exception(self._overloaded(trace))
            self._notify_idle()
            return
        trace.status = "queued"
        self._queue.append(request)
        self._stats["peak_queue_depth"] = max(self._stats["peak_queue_depth"], len(self._queue))
        self._dispatch(asyncio.get_running_loop())

    def _expire(self, request: _Request, timeout_s: float) -> None:
        """Timeout fired for a still-unsettled request."""
        if request.future.done():
            return
        trace = request.trace
        where = trace.status if trace.status in ("queued", "backoff") else "running"
        if where == "queued":
            self._queue.remove(request)
        elif where == "backoff":
            # Nothing runs between attempts: drop the retry timer now rather
            # than hold drain() until the backoff elapses.
            request.retry_handle.cancel()
            request.retry_handle = None
            self._backoff.discard(request)
        if where != "running":
            trace.finished_at = time.perf_counter()
            self.traces.append(trace)
        trace.status = "timeout"
        self._stats["timed_out"] += 1
        request.future.set_exception(
            QueryTimeoutError(
                f"request {trace.class_tag!r} exceeded {timeout_s * 1e3:.0f}ms while "
                + ("backing off" if where == "backoff" else where),
                timeout_s=timeout_s, where=where,
            )
        )
        self._notify_idle()

    # ------------------------------------------------------------------
    def _idle(self) -> bool:
        return not self._queue and self._inflight == 0 and not self._backoff

    def _notify_idle(self) -> None:
        if not self._idle():
            return
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def drain(self) -> None:
        """Wait until every admitted request has reached a terminal state."""
        if self._idle():
            return
        waiter = asyncio.get_running_loop().create_future()
        self._idle_waiters.append(waiter)
        await waiter

    async def close(self, *, drain: bool = True) -> None:
        """Stop admissions; drain outstanding work (or cancel the queue).

        ``drain=True`` (graceful, the default) lets every queued, inflight,
        and backing-off request finish.  ``drain=False`` cancels queued
        requests *and* pending retries with :class:`ServiceClosedError` and
        waits only for the inflight ones (a running query cannot be
        interrupted).
        """
        self._closing = True
        if not drain:
            while self._queue:
                request = self._queue.popleft()
                self._cancel(request)
            for request in sorted(self._backoff, key=lambda r: r.trace.request_id):
                if request.retry_handle is not None:
                    request.retry_handle.cancel()
                self._cancel(request)
            self._backoff.clear()
        await self.drain()

    def _cancel(self, request: _Request) -> None:
        """Settle one not-yet-running request as cancelled (non-drain close)."""
        if request.timeout_handle is not None:
            request.timeout_handle.cancel()
        request.trace.status = "cancelled"
        request.trace.finished_at = time.perf_counter()
        self._stats["cancelled"] += 1
        self.traces.append(request.trace)
        if not request.future.done():
            request.future.set_exception(
                ServiceClosedError("QueryService shut down before execution")
            )

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close(drain=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryService(inflight={self._inflight}/{self.max_inflight}, "
            f"queued={len(self._queue)}/{self.max_queue_depth})"
        )
