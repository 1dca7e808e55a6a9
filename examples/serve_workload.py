"""Serving & workload replay: the QueryService and the WorkloadDriver.

Two halves of the production-traffic story, end to end:

1. **Serve** -- wrap a :class:`~repro.api.Session` in the asyncio
   :class:`~repro.service.QueryService` and submit concurrent queries
   through its bounded admission queue, reading each request's
   :class:`~repro.service.RequestTrace` (wait vs execute split, queue
   depth seen, cache attribution) and the service's aggregate stats.
2. **Replay** -- describe a mixed workload declaratively
   (:class:`~repro.workload.WorkloadSpec`: class percentages over the 13
   SSB queries plus an ad-hoc builder query, open-loop Poisson arrivals at
   a target RPS) and let the :class:`~repro.workload.WorkloadDriver`
   replay it, first well under capacity, then far over it against a small
   queue -- overload degrades into clean typed rejections, never errors.

Run with::

    python examples/serve_workload.py [--write]

``--write`` additionally writes the Locust-style ``run_table.csv`` and a
repetition-aware ``workload_summary.json`` into the working directory
(``tests/test_workload.py::TestDriver`` carries the assertions; the ledger's
``serve_dash`` workload carries the latency numbers).
"""

from __future__ import annotations

import argparse
import asyncio

from repro import (
    OverloadError,
    Q,
    QUERIES,
    QueryClass,
    QueryService,
    Session,
    WorkloadDriver,
    WorkloadSpec,
    generate_ssb,
)


def adhoc_query():
    """An ad-hoc builder query riding along with the canonical 13."""
    return (
        Q("lineorder")
        .named("discount-band-count")
        .filter("lo_discount", "between", (4, 6))
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
        .group_by("d_year")
        .agg("count")
    )


async def serve(session: Session) -> None:
    """Concurrent submits through the admission queue, traces and all."""
    async with QueryService(session, max_inflight=2, max_queue_depth=8) as service:
        names = ["q1.1", "q2.1", "q3.1", "q4.1"]
        tasks = {
            name: asyncio.create_task(service.submit(QUERIES[name], class_tag=name))
            for name in names
        }
        tasks["adhoc"] = asyncio.create_task(service.submit(adhoc_query(), class_tag="adhoc"))
        for name, task in tasks.items():
            submitted = await task
            trace = submitted.trace
            print(
                f"  {name:<6} {submitted.result.engine:<16} "
                f"wait {trace.wait_ms:6.2f}ms  exec {trace.execute_ms:6.2f}ms  "
                f"depth seen {trace.queue_depth_seen}"
                f"{'  (memo replay)' if trace.execution_cached else ''}"
            )
        stats = service.stats
        print(
            f"  stats: {stats.submitted} submitted, {stats.completed} completed, "
            f"peak queue {stats.peak_queue_depth}, peak inflight {stats.peak_inflight}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="write run_table.csv + workload_summary.json"
    )
    args = parser.parse_args()

    db = generate_ssb(scale_factor=0.01, seed=42)
    # cache=False keeps every replayed request doing real work; with the
    # execution memo on, a repeated class answers from memory in
    # microseconds and there is no load to measure.
    session = Session(db, cache=False)

    print("== 1. QueryService: concurrent submits over one Session ==")
    asyncio.run(serve(session))
    print()

    # A mixed read workload: 60% flight 1, 25% flight 2, 15% ad-hoc.
    mix = WorkloadSpec.ssb_mix(
        percentages={"q1.1": 30.0, "q1.2": 30.0, "q2.1": 25.0},
        extra=(QueryClass("adhoc", adhoc_query(), 15.0),),
        target_rps=60.0,
        duration_s=1.0,
        repetitions=2,
        seed=7,
    )

    print("== 2. WorkloadDriver: open-loop Poisson replay below saturation ==")
    below = WorkloadDriver(session, mix).run(run="below")
    print(below)
    print()

    print("== 3. The same mix at ~10x, against a tiny admission queue ==")
    import dataclasses

    burst = dataclasses.replace(mix, target_rps=600.0, repetitions=1)
    over = WorkloadDriver(
        session, burst, service_config={"max_inflight": 1, "max_queue_depth": 4}
    ).run(run="overload")
    print(over)
    aggregate = over.aggregate
    print(
        f"\n  overload stayed graceful: {aggregate.rejected} typed "
        f"{OverloadError.__name__}s, {aggregate.failed} errors, admitted p99 "
        f"{aggregate.p99_ms:.1f}ms"
    )

    if args.write:
        rows = below.rows() + over.rows()
        from repro.workload.report import write_run_table

        write_run_table("run_table.csv", rows)
        below.write_summary("workload_summary.json")
        print("\nwrote run_table.csv and workload_summary.json")


if __name__ == "__main__":
    main()
