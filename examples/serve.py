"""Serving: the asyncio QueryService in front of one Session.

1. **Concurrent submits** -- queries go through the service's bounded
   admission queue onto the session's worker pool; each answer carries its
   :class:`~repro.service.RequestTrace` (wait vs execute split, queue depth
   seen at admission, whether the execution memo answered).
2. **A burst within limits** -- no more requests than ``max_inflight +
   max_queue_depth`` at once: every one is admitted and answered.
3. **A burst over a tiny queue** -- the excess is refused with typed
   :class:`~repro.service.OverloadError`\\ s, and ``ServiceStats.rejected``
   counts exactly the refusals the submitters caught.

Run with::

    python examples/serve.py

The ledger's ``serve_dash`` workload (``benchmarks/ledger/``) measures this
service's latency and throughput under closed-loop clients.
"""

from __future__ import annotations

import asyncio

from repro import QUERIES, OverloadError, Q, QueryService, Session, generate_ssb
from repro.service import ServiceStats

ADHOC = (
    Q("lineorder")
    .named("discount-band-count")
    .filter("lo_discount", "between", (4, 6))
    .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
    .group_by("d_year")
    .agg("count")
)
MIX = [QUERIES[name] for name in ("q1.1", "q1.2", "q2.1", "q3.1", "q4.1")] + [ADHOC]


def show(stats: ServiceStats) -> None:
    print(
        f"  stats: {stats.submitted} submitted, {stats.completed} completed, "
        f"{stats.rejected} rejected, {stats.failed} failed; peak queue "
        f"{stats.peak_queue_depth}, peak inflight {stats.peak_inflight}"
    )


async def burst(session: Session, size: int, **limits) -> None:
    """Submit ``size`` requests in one tick and report how admission went."""
    async with QueryService(session, **limits) as service:
        queries = [MIX[i % len(MIX)] for i in range(size)]
        outcomes = await asyncio.gather(
            *(service.submit(query) for query in queries), return_exceptions=True
        )
        refused = 0
        for outcome in outcomes:
            if isinstance(outcome, OverloadError):
                refused += 1
                print(f"  {type(outcome).__name__}: {outcome}")
            elif isinstance(outcome, BaseException):
                raise outcome
        show(service.stats)
        assert service.stats.rejected == refused, "a refusal went uncounted"


async def serve(session: Session) -> None:
    """Concurrent submits through the admission queue, traces and all."""
    async with QueryService(session, max_inflight=2, max_queue_depth=8) as service:
        tasks = [asyncio.create_task(service.submit(query)) for query in MIX]
        for task in tasks:
            served = await task
            trace = served.trace
            print(
                f"  {trace.query:<20} {served.result.engine:<16} "
                f"wait {trace.wait_ms:6.2f}ms  exec {trace.execute_ms:6.2f}ms  "
                f"depth seen {trace.queue_depth_seen}"
                f"{'  (memo replay)' if trace.execution_cached else ''}"
            )
        show(service.stats)


def main() -> None:
    db = generate_ssb(scale_factor=0.01, seed=42)
    # cache=False keeps every request doing real work instead of a replay.
    with Session(db, cache=False) as session:
        print("== 1. QueryService: concurrent submits over one Session ==")
        asyncio.run(serve(session))
        print("\n== 2. A burst of 10 within max_inflight=2 + max_queue_depth=8 ==")
        asyncio.run(burst(session, 10, max_inflight=2, max_queue_depth=8))
        print("\n== 3. A burst of 8 against max_inflight=1, max_queue_depth=2 ==")
        asyncio.run(burst(session, 8, max_inflight=1, max_queue_depth=2))


if __name__ == "__main__":
    main()
