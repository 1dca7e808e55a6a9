"""Tests for the asyncio QueryService: identity, admission control, timeouts.

The headline property is differential: for every replayed class -- all 13
canonical SSB queries plus an ad-hoc builder query -- the service must
answer byte-identically to a direct ``Session.run``.  The service adds
scheduling (bounded queue, overload policies, timeouts, drain), never
execution semantics, and every scheduling path is exercised here with a
hang guard: nothing in this file may block forever on a broken pump.
"""

import asyncio
import dataclasses
import time

import pytest

from repro.api import Q, Session
from repro.api.session import DEFAULT_COMPARE_ENGINES
from repro.engine.cache import CounterSnapshot
from repro.service import (
    OverloadError,
    QueryService,
    QueryTimeoutError,
    RequestTrace,
    ServiceClosedError,
    ServiceResult,
)
from repro.ssb.queries import QUERIES, QUERY_ORDER, FilterSpec

#: Everything awaited in this file goes through this guard: a service bug
#: must fail the test, not hang the suite.
GUARD_S = 20.0


def run(coro):
    async def guarded():
        return await asyncio.wait_for(coro, timeout=GUARD_S)

    return asyncio.run(guarded())


def adhoc_query():
    return (
        Q("lineorder")
        .filter("lo_quantity", "lt", 25)
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
        .group_by("d_year")
        .agg("count")
    )


class SlowSession(Session):
    """A session whose every run holds its worker for ``delay_s`` seconds.

    The real queries answer in a millisecond, far too fast to observe a
    full queue deterministically; the sleep pins workers so the admission
    paths (reject, shed, queued/running timeout) trigger on command.
    """

    def __init__(self, db, delay_s: float, **kwargs) -> None:
        super().__init__(db, **kwargs)
        self.delay_s = delay_s

    def run(self, query, engine="cpu", **kwargs):
        time.sleep(self.delay_s)
        return super().run(query, engine=engine, **kwargs)


@pytest.fixture(scope="module")
def session(tiny_ssb):
    with Session(tiny_ssb) as session:
        yield session


class TestDifferential:
    def test_every_class_matches_direct_session_run(self, session):
        """Acceptance: service answers byte-identical to Session.run."""
        classes = [(name, QUERIES[name]) for name in QUERY_ORDER]
        classes.append(("adhoc", adhoc_query()))

        async def through_service():
            async with QueryService(session, max_inflight=2) as service:
                tasks = {
                    name: asyncio.create_task(service.submit(query, class_tag=name))
                    for name, query in classes
                }
                return {name: await task for name, task in tasks.items()}

        served = run(through_service())
        for name, query in classes:
            direct = session.run(query, engine="cpu")
            answer = served[name].result
            assert answer.value == direct.value, name
            assert answer.simulated_ms == direct.simulated_ms, name
            assert answer.records == direct.records, name

    @pytest.mark.parametrize("engine", DEFAULT_COMPARE_ENGINES)
    @pytest.mark.parametrize("name", [*QUERY_ORDER, "adhoc"])
    def test_class_matches_direct_session_run_on_engine(self, session, engine, name):
        """Per engine and per class: a service built for ``engine`` answers
        exactly what ``session.run`` does, and its trace names that engine."""
        query = adhoc_query() if name == "adhoc" else QUERIES[name]

        async def go():
            async with QueryService(session, engine=engine) as service:
                return await service.submit(query, class_tag=name), service.stats

        served, stats = run(go())
        direct = session.run(query, engine=engine)
        assert served.result.value == direct.value
        assert served.result.simulated_ms == direct.simulated_ms
        assert served.result.records == direct.records
        assert served.result.engine == direct.engine
        assert served.trace.engine == engine and served.trace.class_tag == name
        assert stats.completed == stats.submitted == stats.settled == 1

    def test_engine_override_per_submit(self, session):
        async def go():
            async with QueryService(session, engine="cpu") as service:
                return await service.submit(QUERIES["q2.1"], engine="gpu")

        submitted = run(go())
        assert submitted.result.engine == "standalone-gpu"
        assert submitted.trace.engine == "gpu"

    def test_bad_engine_fails_on_submit_not_in_worker(self, session):
        async def go():
            async with QueryService(session) as service:
                with pytest.raises(KeyError, match="unknown engine"):
                    await service.submit(QUERIES["q1.1"], engine="gpx")
                return service.stats

        stats = run(go())
        assert stats.submitted == 0  # refused before it ever counted

    def test_burst_within_limits_is_fully_admitted(self, session):
        """A burst no larger than max_inflight + max_queue_depth is never refused."""
        queries = [QUERIES[name] for name in QUERY_ORDER[:9]] + [adhoc_query()]

        async def go():
            async with QueryService(session, max_inflight=2, max_queue_depth=8) as service:
                served = await asyncio.gather(*(service.submit(q) for q in queries))
                return served, service.stats

        served, stats = run(go())
        assert stats.rejected == stats.shed == stats.failed == 0
        assert stats.completed == stats.submitted == len(queries) == 10
        assert stats.peak_inflight <= 2 and stats.peak_queue_depth <= 8
        for query, answer in zip(queries, served):
            direct = session.run(query, engine="cpu")
            assert answer.result.value == direct.value
            assert answer.result.records == direct.records


class TestOverloadReject:
    def test_queue_full_rejects_with_stats(self, tiny_ssb):
        session = SlowSession(tiny_ssb, delay_s=0.2)

        async def go():
            async with QueryService(session, max_inflight=1, max_queue_depth=1) as service:
                first = asyncio.create_task(service.submit(QUERIES["q1.1"], class_tag="a"))
                await asyncio.sleep(0.05)  # a is running
                second = asyncio.create_task(service.submit(QUERIES["q2.1"], class_tag="b"))
                await asyncio.sleep(0)  # b is queued; the queue is full
                with pytest.raises(OverloadError) as excinfo:
                    await service.submit(QUERIES["q3.1"], class_tag="c")
                await asyncio.gather(first, second)
                return excinfo.value, service.stats

        error, stats = run(go())
        assert error.policy == "reject"
        assert error.shed is False
        assert error.class_tag == "c"
        assert error.queue_depth == 1 and error.max_queue_depth == 1
        assert error.inflight == 1 and error.max_inflight == 1
        assert stats.rejected == 1
        assert stats.completed == 2  # the admitted requests still answered
        assert stats.submitted == stats.settled

    def test_zero_depth_queue_rejects_while_busy(self, tiny_ssb):
        session = SlowSession(tiny_ssb, delay_s=0.2)

        async def go():
            async with QueryService(session, max_inflight=1, max_queue_depth=0) as service:
                first = asyncio.create_task(service.submit(QUERIES["q1.1"]))
                await asyncio.sleep(0.05)
                with pytest.raises(OverloadError):
                    await service.submit(QUERIES["q1.2"])
                await first

        run(go())

    @pytest.mark.parametrize(
        "max_inflight, max_queue_depth", [(1, 1), (1, 0), (2, 1), (1, 3), (2, 2)]
    )
    def test_burst_over_limits_is_refused_by_type(self, tiny_ssb, max_inflight, max_queue_depth):
        """Over the limits, every refusal is a rejected OverloadError and the
        admitted requests still answer: ``max_inflight`` running plus
        ``max_queue_depth`` queued, the rest of the burst of 8 refused."""
        session = SlowSession(tiny_ssb, delay_s=0.1)
        names = QUERY_ORDER[:8]
        admitted = max_inflight + max_queue_depth

        async def go():
            async with QueryService(
                session, max_inflight=max_inflight, max_queue_depth=max_queue_depth
            ) as service:
                outcomes = await asyncio.gather(
                    *(service.submit(QUERIES[name]) for name in names), return_exceptions=True
                )
                return outcomes, service.stats

        outcomes, stats = run(go())
        errors = [outcome for outcome in outcomes if isinstance(outcome, BaseException)]
        assert errors and all(isinstance(error, OverloadError) for error in errors)
        assert all(error.shed is False for error in errors)
        assert stats.rejected == len(errors) == len(names) - admitted
        assert stats.completed == admitted and stats.failed == 0
        assert stats.submitted == stats.settled == len(names)
        assert stats.peak_inflight == max_inflight
        # A request bound for a free worker passes through the queue, so the
        # gauge reads at least 1 even when ``max_queue_depth=0``.
        assert stats.peak_queue_depth == max(max_queue_depth, 1)


class TestOverloadShed:
    def test_sheds_oldest_of_most_represented_class(self, tiny_ssb):
        session = SlowSession(tiny_ssb, delay_s=0.25)

        async def go():
            async with QueryService(
                session, max_inflight=1, max_queue_depth=2, overload="shed"
            ) as service:
                running = asyncio.create_task(service.submit(QUERIES["q1.1"], class_tag="a"))
                await asyncio.sleep(0.05)
                burst1 = asyncio.create_task(service.submit(QUERIES["q2.1"], class_tag="burst"))
                await asyncio.sleep(0)
                burst2 = asyncio.create_task(service.submit(QUERIES["q2.2"], class_tag="burst"))
                await asyncio.sleep(0)  # queue: [burst1, burst2], full
                minority = asyncio.create_task(service.submit(QUERIES["q3.1"], class_tag="rare"))
                await asyncio.sleep(0)
                with pytest.raises(OverloadError) as excinfo:
                    await burst1  # oldest request of the heaviest class paid
                results = await asyncio.gather(running, burst2, minority)
                return excinfo.value, results, service.stats

        error, results, stats = run(go())
        assert error.shed is True
        assert error.policy == "shed"
        assert error.class_tag == "burst"
        assert all(isinstance(result, ServiceResult) for result in results)
        assert stats.shed == 1 and stats.completed == 3 and stats.rejected == 0
        assert stats.submitted == stats.settled

    def test_shed_with_empty_queue_falls_back_to_reject(self, tiny_ssb):
        session = SlowSession(tiny_ssb, delay_s=0.2)

        async def go():
            async with QueryService(
                session, max_inflight=1, max_queue_depth=0, overload="shed"
            ) as service:
                first = asyncio.create_task(service.submit(QUERIES["q1.1"]))
                await asyncio.sleep(0.05)
                with pytest.raises(OverloadError) as excinfo:
                    await service.submit(QUERIES["q1.2"])
                await first
                return excinfo.value

        error = run(go())
        assert error.shed is False  # no queued victim existed; newcomer refused


class TestTimeouts:
    def test_queued_request_times_out_and_never_executes(self, tiny_ssb):
        session = SlowSession(tiny_ssb, delay_s=0.3)

        async def go():
            async with QueryService(session, max_inflight=1) as service:
                running = asyncio.create_task(service.submit(QUERIES["q1.1"], timeout=None))
                await asyncio.sleep(0.05)
                with pytest.raises(QueryTimeoutError) as excinfo:
                    await service.submit(QUERIES["q2.1"], timeout=0.05)
                await running
                return excinfo.value, service.stats

        error, stats = run(go())
        assert error.where == "queued"
        assert error.timeout_s == 0.05
        assert stats.timed_out == 1
        # The expired request never reached a worker.
        assert stats.completed == 1 and stats.inflight == 0 and stats.queued == 0

    def test_running_request_times_out_and_result_is_discarded(self, tiny_ssb):
        session = SlowSession(tiny_ssb, delay_s=0.3)

        async def go():
            async with QueryService(session, max_inflight=1, timeout_s=0.05) as service:
                with pytest.raises(QueryTimeoutError) as excinfo:
                    await service.submit(QUERIES["q1.1"])
                # The service is still healthy after the worker unwinds.
                follow_up = await service.submit(QUERIES["q1.2"], timeout=None)
                return excinfo.value, follow_up, service.stats

        error, follow_up, stats = run(go())
        assert error.where == "running"
        assert isinstance(follow_up, ServiceResult)
        assert stats.timed_out == 1 and stats.completed == 1
        assert stats.submitted == stats.settled


class TestLifecycle:
    def test_drain_completes_everything_then_closed_rejects(self, session):
        async def go():
            service = QueryService(session, max_inflight=2, max_queue_depth=32)
            tasks = [
                asyncio.create_task(service.submit(QUERIES[name], class_tag=name))
                for name in QUERY_ORDER[:6]
            ]
            await asyncio.sleep(0)  # let every submit reach its admission point
            await service.close(drain=True)
            results = await asyncio.gather(*tasks)
            with pytest.raises(ServiceClosedError):
                await service.submit(QUERIES["q1.1"])
            return results, service.stats

        results, stats = run(go())
        assert len(results) == 6
        assert stats.completed == 6 and stats.queued == 0 and stats.inflight == 0

    def test_non_drain_close_cancels_the_queue(self, tiny_ssb):
        session = SlowSession(tiny_ssb, delay_s=0.2)

        async def go():
            service = QueryService(session, max_inflight=1, max_queue_depth=8)
            running = asyncio.create_task(service.submit(QUERIES["q1.1"]))
            await asyncio.sleep(0.05)
            queued = [
                asyncio.create_task(service.submit(QUERIES["q2.1"])) for _ in range(3)
            ]
            await asyncio.sleep(0)
            await service.close(drain=False)
            outcome = await asyncio.gather(*queued, return_exceptions=True)
            return await running, outcome, service.stats

        finished, cancelled, stats = run(go())
        assert isinstance(finished, ServiceResult)  # inflight work always completes
        assert all(isinstance(exc, ServiceClosedError) for exc in cancelled)
        assert stats.cancelled == 3 and stats.completed == 1
        assert stats.submitted == stats.settled

    def test_failed_execution_propagates_and_counts(self, session):
        # Prepares fine, blows up in the worker: the column only goes
        # missing once the scan touches the fact table.
        broken = dataclasses.replace(
            QUERIES["q1.1"], name="q_broken", fact_filters=(FilterSpec("lo_nope", "eq", 1),)
        )

        async def go():
            async with QueryService(session) as service:
                with pytest.raises(KeyError, match="lo_nope"):
                    await service.submit(broken)
                ok = await service.submit(QUERIES["q1.1"])
                return ok, service.stats

        ok, stats = run(go())
        assert isinstance(ok, ServiceResult)
        assert stats.completed == 1


class TestTraces:
    def test_trace_records_the_request_lifecycle(self, session):
        async def go():
            async with QueryService(session, max_inflight=1) as service:
                submitted = await service.submit(QUERIES["q2.1"], class_tag="probe")
                return submitted.trace, list(service.traces)

        trace, traces = run(go())
        assert isinstance(trace, RequestTrace)
        assert trace.status == "ok"
        assert trace.class_tag == "probe" and trace.query == "q2.1"
        assert trace.wait_ms is not None and trace.wait_ms >= 0
        assert trace.execute_ms is not None and trace.execute_ms > 0
        assert trace.total_ms >= trace.execute_ms
        assert isinstance(trace.counters, CounterSnapshot)
        assert trace in traces
        record = trace.as_dict()
        assert record["status"] == "ok" and record["class_tag"] == "probe"

    def test_counters_delta_reports_cache_hits(self, tiny_ssb):
        async def go():
            with Session(tiny_ssb) as fresh:
                async with QueryService(fresh, max_inflight=1) as service:
                    first = await service.submit(QUERIES["q4.1"])
                    again = await service.submit(QUERIES["q4.1"])
                    return first.trace, again.trace

        first, again = run(go())
        assert not first.execution_cached  # cold: this request executed
        assert again.execution_cached  # warm: answered from the memo


class SlowIngestSession(Session):
    """A session whose appends stall mid-flight (queries run at full speed).

    Real appends publish in microseconds -- far too fast to catch a timeout
    firing *while* the append runs; the sleep holds the ingest on its
    worker so the mid-append expiry path triggers on command.
    """

    def __init__(self, db, delay_s: float, **kwargs) -> None:
        super().__init__(db, **kwargs)
        self.delay_s = delay_s

    def ingest(self, table, arrays):
        time.sleep(self.delay_s)
        return super().ingest(table, arrays)


class TestIngestTimeouts:
    """Timeouts during ingest: queued expiry vs. mid-append expiry.

    Ingest mutates the database, so each test builds its own small SSB
    instance instead of borrowing the shared fixtures.
    """

    def test_queued_ingest_expires_without_touching_the_table(self):
        from repro.ssb import generate_lineorder_batch, generate_ssb

        db = generate_ssb(scale_factor=0.005, seed=21)
        session = SlowSession(db, delay_s=0.3)  # a query pins the one worker
        batch = generate_lineorder_batch(db, 16, seed=3)

        async def go():
            async with QueryService(session, max_inflight=1) as service:
                running = asyncio.create_task(service.submit(QUERIES["q1.1"], timeout=None))
                await asyncio.sleep(0.05)
                with pytest.raises(QueryTimeoutError) as excinfo:
                    await service.ingest("lineorder", batch, timeout=0.05)
                await running
                return excinfo.value, service.stats

        try:
            error, stats = run(go())
            assert error.where == "queued"
            # The expired append never reached a worker: no version flip,
            # no rows, and the table is bit-for-bit what it was.
            assert db.table("lineorder").version == 0
            assert stats.timed_out == 1 and stats.completed == 1
        finally:
            session.close()

    def test_mid_append_timeout_discards_result_but_publishes(self):
        from repro.ssb import generate_lineorder_batch, generate_ssb

        db = generate_ssb(scale_factor=0.005, seed=22)
        session = SlowIngestSession(db, delay_s=0.3)
        batch = generate_lineorder_batch(db, 16, seed=4)
        rows_before = db.table("lineorder").num_rows

        async def go():
            async with QueryService(session, max_inflight=1) as service:
                with pytest.raises(QueryTimeoutError) as excinfo:
                    await service.ingest("lineorder", batch, timeout=0.05)
                # __aexit__ drains: the worker finishes the append after
                # the caller has already been told "timeout".
                return excinfo.value, service

        try:
            error, service = run(go())
            assert error.where == "running"
            # Pinned semantic: a mid-append timeout is *not* a rollback.
            # The append cannot be interrupted once on a worker -- the
            # version advances and the rows are in; only the caller's
            # result (the IngestResult) is discarded.
            assert db.table("lineorder").version == 1
            assert db.table("lineorder").num_rows == rows_before + 16
            stats = service.stats
            assert stats.timed_out == 1 and stats.completed == 0
            assert service.traces[-1].status == "timeout"
        finally:
            session.close()
