"""Tests for the asyncio QueryService: identity, admission control, timeouts.

The headline property is differential: for every replayed class -- all 13
canonical SSB queries plus an ad-hoc builder query -- the service must
answer byte-identically to a direct ``Session.run``.  The service adds
scheduling (bounded queue, overload rejection, timeouts, drain), never
execution semantics, and every scheduling path is exercised here with a
hang guard: nothing in this file may block forever on a broken pump.
"""

import asyncio
import dataclasses
import random
import sys
import threading
import time

import pytest

from repro.api import Q, Session
from repro.api.session import DEFAULT_COMPARE_ENGINES
from repro.engine.cache import CounterSnapshot
from repro.faults import SERVICE_EXECUTE, FaultPlan, FaultPoint, ResiliencePolicy
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


def _settled(stats):
    """Requests that reached a terminal state."""
    return stats.completed + stats.rejected + stats.timed_out + stats.failed + stats.cancelled


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
    paths (reject, queued/running timeout) trigger on command.
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
        """Per engine and per class: a request submitted for ``engine``
        answers exactly what ``session.run`` does, and its trace names that
        engine."""
        query = adhoc_query() if name == "adhoc" else QUERIES[name]

        async def go():
            async with QueryService(session) as service:
                return await service.submit(query, class_tag=name, engine=engine), service.stats

        served, stats = run(go())
        direct = session.run(query, engine=engine)
        assert served.result.value == direct.value
        assert served.result.simulated_ms == direct.simulated_ms
        assert served.result.records == direct.records
        assert served.result.engine == direct.engine
        assert served.trace.engine == engine and served.trace.class_tag == name
        assert stats.completed == stats.submitted == _settled(stats) == 1

    def test_engine_per_submit_defaults_to_cpu(self, session):
        async def go():
            async with QueryService(session) as service:
                default = await service.submit(QUERIES["q2.1"])
                return default, await service.submit(QUERIES["q2.1"], engine="gpu")

        default, submitted = run(go())
        assert default.result.engine == "standalone-cpu"
        assert default.trace.engine == "cpu"
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
        assert error.class_tag == "c"
        assert error.queue_depth == 1 and error.max_queue_depth == 1
        assert error.inflight == 1 and error.max_inflight == 1
        assert stats.rejected == 1
        assert stats.completed == 2  # the admitted requests still answered
        assert stats.submitted == _settled(stats)

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

    def test_retry_waking_to_a_full_queue_is_rejected(self, tiny_ssb):
        """A retry re-enters admission like a fresh request: a full queue
        rejects it instead of letting it jump the line."""
        plan = FaultPlan([FaultPoint(site=SERVICE_EXECUTE, mode="raise", times=1)])
        session = SlowSession(
            tiny_ssb, delay_s=0.3, faults=plan, resilience=ResiliencePolicy(backoff_base_s=0.1)
        )

        async def go():
            async with QueryService(session, max_inflight=1, max_queue_depth=1) as service:
                retried = asyncio.create_task(service.submit(QUERIES["q1.1"], class_tag="retried"))
                while service.stats.retries == 0:  # its first attempt failed
                    await asyncio.sleep(0.001)
                running = asyncio.create_task(service.submit(QUERIES["q2.1"]))
                await asyncio.sleep(0)
                queued = asyncio.create_task(service.submit(QUERIES["q3.1"]))
                await asyncio.sleep(0)  # the queue is full when the backoff ends
                with pytest.raises(OverloadError) as excinfo:
                    await retried
                await asyncio.gather(running, queued)
                return excinfo.value, service.stats

        error, stats = run(go())
        assert error.class_tag == "retried"
        assert error.queue_depth == 1 and error.inflight == 1
        assert stats.retries == 1 and stats.rejected == 1 and stats.completed == 2
        assert stats.submitted == _settled(stats) == 3

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
        assert stats.rejected == len(errors) == len(names) - admitted
        assert stats.completed == admitted and stats.failed == 0
        assert stats.submitted == _settled(stats) == len(names)
        assert stats.peak_inflight == max_inflight
        # A request bound for a free worker passes through the queue, so the
        # gauge reads at least 1 even when ``max_queue_depth=0``.
        assert stats.peak_queue_depth == max(max_queue_depth, 1)


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
            async with QueryService(session, max_inflight=1) as service:
                with pytest.raises(QueryTimeoutError) as excinfo:
                    await service.submit(QUERIES["q1.1"], timeout=0.05)
                # The service is still healthy after the worker unwinds.
                follow_up = await service.submit(QUERIES["q1.2"], timeout=None)
                return excinfo.value, follow_up, service.stats

        error, follow_up, stats = run(go())
        assert error.where == "running"
        assert isinstance(follow_up, ServiceResult)
        assert stats.timed_out == 1 and stats.completed == 1
        assert stats.submitted == _settled(stats)


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
        assert stats.submitted == _settled(stats)

    def test_a_closed_session_starts_no_worker_pool(self, tiny_ssb):
        # A closed session still runs unsharded queries itself, but a pool
        # started after close would have nothing to shut it down: a request
        # that needs a worker fails, and a stored answer is still served.
        def pool_threads():
            return {t for t in threading.enumerate() if t.name.startswith("repro-session")}

        before = pool_threads()
        closed = Session(tiny_ssb)
        closed.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            closed.executor
        stored = closed.run(QUERIES["q1.1"])

        async def go():
            async with QueryService(closed) as service:
                with pytest.raises(RuntimeError, match="session is closed"):
                    await service.submit(QUERIES["q2.1"])
                hit = await service.submit(QUERIES["q1.1"])
                return hit, service.stats

        hit, stats = run(go())
        assert hit.result.value == stored.value and hit.trace.plane == "cache"
        assert stats.failed == 1 and stats.completed == 1
        assert stats.inflight == 0 and stats.peak_inflight == 0
        assert pool_threads() <= before

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


class TestLoopReplay:
    """A stored product completes its request on the event loop; everything
    else takes the worker path, with identical answers, traces and stats."""

    def test_a_hit_never_reaches_the_worker_pool(self, tiny_ssb, monkeypatch):
        served_on = []
        session_run = Session.run

        def run_off_the_pool(self, *args, **kwargs):
            served_on.append(threading.current_thread())
            if threading.current_thread().name.startswith("repro-session"):
                raise RuntimeError("worker path taken")
            return session_run(self, *args, **kwargs)

        async def go():
            with Session(tiny_ssb) as fresh:
                async with QueryService(fresh, max_inflight=1) as service:
                    warm = await service.submit(QUERIES["q2.1"])
                    monkeypatch.setattr(Session, "run", run_off_the_pool)
                    hit = await service.submit(QUERIES["q2.1"])
                    with pytest.raises(RuntimeError, match="worker path taken"):
                        await service.submit(QUERIES["q3.1"])
                    return warm, hit, service.stats, threading.current_thread()

        warm, hit, stats, loop_thread = run(go())
        assert served_on[0] is loop_thread and served_on[1] is not loop_thread
        assert hit.result.value == warm.result.value
        assert hit.result.records == warm.result.records
        assert hit.result.simulated_ms == warm.result.simulated_ms
        assert hit.trace.plane == "cache" and hit.trace.execution_cached
        assert hit.trace.execute_ms is not None and hit.trace.execute_ms >= 0
        assert stats.completed == 2 and stats.failed == 1

    def test_a_hit_that_raises_on_the_loop_fails_like_a_worker_run(self, tiny_ssb, monkeypatch):
        raised_on = []

        def broken_run(self, *args, **kwargs):
            raised_on.append(threading.current_thread())
            raise ValueError("replay broke")

        async def go():
            with Session(tiny_ssb) as fresh:
                async with QueryService(fresh, max_inflight=1) as service:
                    warm = await service.submit(QUERIES["q1.2"])
                    with monkeypatch.context() as patch:
                        patch.setattr(Session, "run", broken_run)
                        with pytest.raises(ValueError, match="replay broke"):
                            await service.submit(QUERIES["q1.2"])
                    again = await service.submit(QUERIES["q1.2"])  # still serving
                    return warm, again, service.stats, list(service.traces), threading.current_thread()

        warm, again, stats, traces, loop_thread = run(go())
        assert raised_on == [loop_thread]
        assert again.result.value == warm.result.value
        failed = traces[1]
        assert failed.status == "error" and failed.error == "ValueError: replay broke"
        assert stats.completed == 2 and stats.failed == 1 and stats.peak_inflight == 1

    def test_loop_path_matches_the_worker_path(self, monkeypatch):
        """One seeded sequence of hits, misses and an append, served with and
        without the loop path: equal answers, traces (minus timestamps) and
        stats.  ``peak_inflight`` may differ, as loop hits hold no slot, so
        it is asserted on its own."""
        from repro.ssb import generate_lineorder_batch, generate_ssb

        rng = random.Random(55)
        pool = [QUERIES[name] for name in ("q1.1", "q2.1", "q3.2", "q4.1")] + [adhoc_query()]
        steps = [rng.choice(pool) for _ in range(24)]
        steps.insert(12, "append")
        timestamps = ("enqueued_at", "enqueued_wall", "dequeued_at", "finished_at")

        def serve():
            db = generate_ssb(scale_factor=0.005, seed=55)
            batch = generate_lineorder_batch(db, 64, seed=5)

            async def go():
                with Session(db) as fresh:
                    async with QueryService(fresh, max_inflight=2) as service:
                        outcomes = []
                        for step in steps:
                            if step == "append":
                                outcomes.append(await service.ingest("lineorder", batch))
                            else:
                                outcomes.append(await service.submit(step))
                        return outcomes, service.stats

            outcomes, stats = run(go())
            answers = [
                (outcome.result.value, outcome.result.records, outcome.result.simulated_ms)
                for outcome in outcomes
                if isinstance(outcome, ServiceResult)
            ]
            traces = [
                {k: v for k, v in vars(outcome.trace).items() if k not in timestamps}
                for outcome in outcomes
            ]
            return answers, traces, stats

        on_loop = serve()
        monkeypatch.setattr(Session, "_stored", lambda *args: False)  # never a stored product
        on_workers = serve()
        assert on_loop[0] == on_workers[0]
        assert on_loop[1] == on_workers[1]
        planes = [record["plane"] for record in on_loop[1]]
        assert "cache" in planes and "monolithic" in planes
        loop_stats, worker_stats = on_loop[2], on_workers[2]
        assert dataclasses.replace(loop_stats, peak_inflight=0) == dataclasses.replace(
            worker_stats, peak_inflight=0
        )
        # Requests are awaited one at a time: each worker dispatch runs
        # alone, and the loop path dispatched no worker for its hits.
        assert loop_stats.peak_inflight == worker_stats.peak_inflight == 1

    def test_a_busy_memo_lock_sends_a_hit_to_the_worker(self, tiny_ssb):
        async def go():
            with Session(tiny_ssb) as fresh:
                async with QueryService(fresh, max_inflight=1) as service:
                    warm = await service.submit(QUERIES["q4.1"])
                    hits = fresh.cache_info().hits
                    held, release = threading.Event(), threading.Event()

                    def hold_the_lock():
                        with fresh._cache._lock:
                            held.set()
                            release.wait(GUARD_S)

                    holder = threading.Thread(target=hold_the_lock)
                    holder.start()
                    try:
                        assert held.wait(GUARD_S)
                        pending = asyncio.create_task(service.submit(QUERIES["q4.1"]))
                        await asyncio.sleep(0.05)
                        # Not replayed on the loop: a worker waits for the lock.
                        waiting = (pending.done(), service.inflight)
                    finally:
                        release.set()
                        holder.join(GUARD_S)
                    assert not holder.is_alive()
                    hit = await pending
                    return warm, hit, waiting, fresh.cache_info().hits - hits

        warm, hit, waiting, counted = run(go())
        assert waiting == (False, 1)
        assert counted == 1
        assert hit.result.value == warm.result.value
        assert hit.result.records == warm.result.records
        assert hit.result.simulated_ms == warm.result.simulated_ms
        assert hit.trace.counters == CounterSnapshot(execution_hits=1)
        assert hit.trace.plane == "cache"

    def test_concurrent_hits_and_misses_count_once_each(self, tiny_ssb):
        """Stress: 8 clients over 4 workers with a short switch interval.
        Every request counts exactly one hit or one miss, wherever it was
        answered, and every answer equals an uncached run."""
        names = ("q1.1", "q2.1", "q3.2", "q4.1", "q1.3", "q2.3")
        expected = {}
        with Session(tiny_ssb) as reference:
            for name in names:
                expected[name] = reference.run(QUERIES[name], cache=False).value

        async def client(service, seed):
            rng = random.Random(seed)
            served = []
            for _ in range(40):
                name = rng.choice(names)
                served.append((name, (await service.submit(QUERIES[name])).result.value))
            return served

        async def go():
            with Session(tiny_ssb) as fresh:
                async with QueryService(fresh, max_inflight=4, max_queue_depth=16) as service:
                    served = await asyncio.gather(*(client(service, seed) for seed in range(8)))
                    return served, service.stats, fresh.cache_info()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            served, stats, info = run(go())
        finally:
            sys.setswitchinterval(interval)
        assert stats.completed == stats.submitted == 8 * 40
        assert info.hits + info.misses == stats.completed
        assert all(value == expected[name] for outcome in served for name, value in outcome)

    def test_an_error_while_looking_is_raised_by_the_worker(self, tiny_ssb):
        # A closed session refuses its shard pool: looking for a stored
        # sharded product raises on the loop, which hands the request to the
        # worker path.  The closed session refuses its worker pool too, with
        # the same error, so the request fails without taking a slot.
        closed = Session(tiny_ssb, shard_start_method="fork")
        closed.close()

        async def go():
            async with QueryService(closed, shards=2, max_inflight=1) as service:
                with pytest.raises(RuntimeError, match="session is closed"):
                    await service.submit(QUERIES["q1.1"])
                return service.stats, list(service.traces)

        stats, traces = run(go())
        assert stats.failed == 1 and stats.peak_inflight == 0 and stats.inflight == 0
        assert traces[0].status == "error" and "session is closed" in traces[0].error


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
