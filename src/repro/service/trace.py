"""Per-request observability: the :class:`RequestTrace` record.

Every request admitted by :class:`~repro.service.QueryService` carries one
trace through its whole lifetime -- enqueue, dispatch onto the worker pool,
execution, and a terminal state -- so tail-latency analysis can split a
slow request into *time spent waiting for admission* versus *time spent
executing*, and attribute cache behaviour (execution-memo replays, shared
build reuse, zones pruned) to the individual request via
:class:`~repro.engine.cache.CounterSnapshot` deltas.

Timestamps are :func:`time.perf_counter` readings: monotonic, comparable
within one process, meaningless across processes.  ``enqueued_wall`` is
the one wall-clock stamp, for correlating traces with external logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.cache import CounterSnapshot

#: Terminal trace states.  ``queued``, ``running``, and ``backoff`` (a
#: retry waiting to re-enter admission) are the live states a trace passes
#: through on the way to exactly one of these.
TERMINAL_STATUSES = ("ok", "error", "timeout", "rejected", "cancelled")


@dataclass
class RequestTrace:
    """The recorded lifetime of one service request.

    ``status`` walks ``queued`` -> ``running`` -> one of
    :data:`TERMINAL_STATUSES` (requests refused at admission jump straight
    to ``rejected``).  ``queue_depth_seen`` and ``inflight_seen``
    are the congestion the request observed *at admission* -- the numbers
    that explain its wait time.  ``counters`` is the cache-counter delta
    bracketing this request's execution (best-effort under concurrency;
    exact when the session is otherwise quiet).
    """

    request_id: int
    query: str
    class_tag: str
    engine: str
    enqueued_at: float
    enqueued_wall: float
    status: str = "queued"
    queue_depth_seen: int = 0
    inflight_seen: int = 0
    dequeued_at: Optional[float] = None
    finished_at: Optional[float] = None
    counters: Optional[CounterSnapshot] = None
    error: Optional[str] = None
    timeout_s: Optional[float] = field(default=None, repr=False)
    #: The per-table data versions the request ran against: for a query,
    #: the versions read at dispatch (a concurrent append may publish a
    #: *fresher fully-sealed* version mid-run, never a torn one); for an
    #: ingest, the versions after its batch published.
    table_versions: Optional[dict] = None
    #: Execution attempts this request consumed (1 = no retries).  A trace
    #: in ``backoff`` is between attempts, waiting to re-enter admission.
    attempts: int = 1
    #: The transient failures absorbed along the way, one human-readable
    #: entry per failed attempt (``"attempt 1: TransientFaultError: ..."``).
    faults: list = field(default_factory=list)
    #: Which execution plane finally answered: ``"sharded"``,
    #: ``"cache"`` (the answer replayed from the execution memo; no plane
    #: ran), ``"monolithic"`` (service configured shardless),
    #: ``"monolithic-fallback"`` (the shard plane exhausted its retry
    #: budget mid-query), or ``"monolithic-breaker"`` (the service's
    #: breaker routed this request to ``shards=1`` up front).
    plane: Optional[str] = None
    #: Ingest requests only: the fsync policy the acknowledgement waited
    #: behind (``"always"``/``"batch"``/``"off"``), or ``None`` when the
    #: session has no durability configured (in-memory acknowledgement).
    durability: Optional[str] = None
    #: Ingest requests only: duration of the WAL fsync that made this
    #: batch durable (``None`` when no fsync happened -- policy ``off``,
    #: an unfilled ``batch`` window, or no durability at all).
    fsync_ms: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def wait_ms(self) -> Optional[float]:
        """Milliseconds spent queued before a worker picked the request up."""
        if self.dequeued_at is None:
            return None
        return (self.dequeued_at - self.enqueued_at) * 1e3

    @property
    def execute_ms(self) -> Optional[float]:
        """Milliseconds between dispatch and completion (on the worker
        pool, or on the event loop for a replayed answer)."""
        if self.dequeued_at is None or self.finished_at is None:
            return None
        return (self.finished_at - self.dequeued_at) * 1e3

    @property
    def total_ms(self) -> Optional[float]:
        """End-to-end milliseconds from admission to the terminal state."""
        if self.finished_at is None:
            return None
        return (self.finished_at - self.enqueued_at) * 1e3

    @property
    def execution_cached(self) -> bool:
        """Whether the answer replayed from the session's execution memo."""
        return self.counters is not None and self.counters.execution_cached

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        timing = (
            f"wait {self.wait_ms:.2f}ms exec {self.execute_ms:.2f}ms"
            if self.execute_ms is not None
            else f"depth {self.queue_depth_seen}"
        )
        return (
            f"#{self.request_id} {self.class_tag} [{self.query} on {self.engine}] "
            f"{self.status}: {timing}"
        )
