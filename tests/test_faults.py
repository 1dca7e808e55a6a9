"""Deterministic chaos: fault injection, recovery, and the degradation ladder.

The headline suite is differential chaos: every pooled fault mode (worker
``kill``, segment ``unlink``, transient ``raise``) crossed with both
process start methods, running the full 13-query SSB batch under an active
:class:`~repro.faults.FaultPlan` -- answers and profiles must stay
byte-identical to the unfaulted monolithic plane, with the recovery
visible in the counters (retries, pool rebuilds, or monolithic fallbacks).

Around it: unit tests of the plan/point/policy value objects (arming
budgets, seeded probability, deterministic backoff), the shm janitor
(dead-owner segments reclaimed, live owners spared), the service retry
rung (transient failures absorbed into ``trace.attempts``), the breaker
rung (trip, degrade to ``shards=1``, probe, heal), and executor close
robustness after real worker death.

The session-scoped ``shm_leak_guard`` fixture in ``conftest.py`` brackets
this whole file too: killing workers and unlinking segments mid-query must
still leave ``/dev/shm`` exactly as it was found.
"""

import asyncio
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import Session
from repro.engine.plan import execute_query_monolithic
from repro.faults import (
    SERVICE_EXECUTE,
    SHARD_TASK,
    FaultAction,
    FaultPlan,
    FaultPoint,
    ResiliencePolicy,
    TransientFaultError,
    activate_faults,
    active_fault_plan,
    unlink_segment,
)
from repro.faults.policy import BACKOFF_MAX_S, BACKOFF_MULTIPLIER, JITTER
from repro.service import QueryService, QueryTimeoutError, ServiceClosedError, ServiceResult
from repro.ssb.queries import QUERIES
from repro.storage.shm import SEGMENT_PREFIX, SharedMemoryRegistry, reap_stale_segments

START_METHODS = ("fork", "spawn")

#: Fault modes the pooled chaos suite injects into shard tasks.  ``latency``
#: is exercised separately through the per-task timeout (it needs one).
POOLED_MODES = ("kill", "raise", "unlink")

GUARD_S = 30.0


def run(coro):
    async def guarded():
        return await asyncio.wait_for(coro, timeout=GUARD_S)

    return asyncio.run(guarded())


# ----------------------------------------------------------------------
# FaultPlan / FaultPoint unit behaviour
# ----------------------------------------------------------------------


class TestFaultPlanUnit:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            FaultPoint(site="", mode="raise")
        with pytest.raises(ValueError):
            FaultPoint(site="s", mode="explode")
        with pytest.raises(ValueError):
            FaultPoint(site="s", mode="raise", skip=-1)
        with pytest.raises(ValueError):
            FaultPoint(site="s", mode="raise", times=0)
        with pytest.raises(ValueError):
            FaultPoint(site="s", mode="latency", delay_s=-0.1)
        with pytest.raises(ValueError):
            FaultPoint(site="s", mode="raise", probability=0.0)
        with pytest.raises(ValueError):
            FaultPoint(site="s", mode="raise", probability=1.5)

    def test_skip_then_times_budget(self):
        plan = FaultPlan([FaultPoint(site="s", mode="raise", skip=1, times=2)])
        armed = [plan.arm("s") is not None for _ in range(5)]
        assert armed == [False, True, True, False, False]
        assert plan.arrivals("s") == 5
        assert plan.fired("s") == 2
        assert plan.fired() == 2
        assert plan.stats() == {"s": {"arrivals": 5, "fired": 2}}

    def test_sites_are_independent(self):
        plan = FaultPlan([FaultPoint(site="a", mode="raise", times=1)])
        assert plan.arm("b") is None
        assert plan.arm("a") is not None  # b's arrival spent nothing of a's budget
        assert plan.arrivals("b") == 1 and plan.fired("b") == 0

    def test_probability_stream_is_seeded(self):
        def pattern(seed):
            plan = FaultPlan(
                [FaultPoint(site="s", mode="raise", times=100, probability=0.5)], seed=seed
            )
            return [plan.arm("s") is not None for _ in range(40)]

        assert pattern(3) == pattern(3)  # same seed, same faulted arrivals
        fired = sum(pattern(3))
        assert 0 < fired < 40  # the coin actually flips both ways

    def test_fire_raises_transient(self):
        plan = FaultPlan([FaultPoint(site="s", mode="raise")])
        with pytest.raises(TransientFaultError):
            plan.fire("s")
        assert plan.fire("s") is None  # budget spent: site is quiet again

    def test_fire_latency_sleeps(self):
        plan = FaultPlan([FaultPoint(site="s", mode="latency", delay_s=0.05)])
        start = time.perf_counter()
        action = plan.fire("s")
        assert action is not None and action.mode == "latency"
        assert time.perf_counter() - start >= 0.05

    def test_unlink_fault_tears_down_the_name(self):
        registry = SharedMemoryRegistry(janitor=False)
        try:
            spec = registry.share_array(np.arange(16))
            path = os.path.join("/dev/shm", spec.segment)
            assert os.path.exists(path)
            plan = FaultPlan([FaultPoint(site="s", mode="unlink")])
            action = plan.fire("s", segment=spec.segment)
            assert action == FaultAction(site="s", mode="unlink")
            assert not os.path.exists(path)
            assert unlink_segment(spec.segment) is False  # already gone
        finally:
            registry.close()  # must tolerate the vanished name

    def test_activation_scope(self):
        assert active_fault_plan() is None
        plan = FaultPlan([])
        with activate_faults(plan) as active:
            assert active is plan
            assert active_fault_plan() is plan
        assert active_fault_plan() is None


class TestResiliencePolicyUnit:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"breaker_threshold": 0},
            {"breaker_probe_every": 0},
            {"shard_retry_budget": -1},
            {"shard_task_timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)

    def test_backoff_is_deterministic_exponential_capped_and_jittered(self):
        assert (BACKOFF_MULTIPLIER, BACKOFF_MAX_S, JITTER) == (2.0, 1.0, 0.25)
        policy = ResiliencePolicy(backoff_base_s=0.1)
        assert policy.backoff_s(42, 1) == policy.backoff_s(42, 1)  # replayable
        assert policy.backoff_s(42, 1) != policy.backoff_s(43, 1)  # de-synchronized
        assert 0.1 <= policy.backoff_s(42, 1) <= 0.125
        assert 0.2 <= policy.backoff_s(42, 2) <= 0.25
        assert 0.8 <= policy.backoff_s(42, 4) <= 1.0
        assert 1.0 <= policy.backoff_s(42, 9) <= 1.25  # base capped at 1 s
        assert all(policy.backoff_s(42, attempt) > 0.1 * 2 ** (attempt - 1) for attempt in (1, 2, 3))
        assert ResiliencePolicy(backoff_base_s=0.0).backoff_s(42, 3) == 0.0
        with pytest.raises(ValueError):
            policy.backoff_s(42, 0)

    def test_is_transient(self):
        policy = ResiliencePolicy()
        assert policy.is_transient(TransientFaultError("x"))
        assert policy.is_transient(BrokenProcessPool("pool died"))
        assert policy.is_transient(ConnectionError())
        assert not policy.is_transient(ValueError("bad column"))


# ----------------------------------------------------------------------
# The shm janitor
# ----------------------------------------------------------------------


def _dead_pid() -> int:
    """A pid that is guaranteed to name no live process."""
    proc = multiprocessing.get_context("fork").Process(target=time.sleep, args=(0,))
    proc.start()
    proc.join()
    return proc.pid


class TestJanitor:
    def test_reaps_dead_owner_segments(self):
        name = f"{SEGMENT_PREFIX}-{_dead_pid()}-feedface-0"
        segment = shared_memory.SharedMemory(name=name, create=True, size=8)
        segment.close()  # drop our mapping; the *name* is the debris
        reclaimed = reap_stale_segments()
        assert name in reclaimed
        assert not os.path.exists(os.path.join("/dev/shm", name))

    def test_spares_live_owners(self):
        registry = SharedMemoryRegistry(janitor=False)  # names embed our live pid
        try:
            spec = registry.share_array(np.arange(8))
            assert reap_stale_segments() == []
            assert os.path.exists(os.path.join("/dev/shm", spec.segment))
        finally:
            registry.close()

    def test_new_registry_sweeps_on_start(self):
        name = f"{SEGMENT_PREFIX}-{_dead_pid()}-deadbeef-0"
        segment = shared_memory.SharedMemory(name=name, create=True, size=8)
        segment.close()
        registry = SharedMemoryRegistry()  # janitor on by default
        try:
            assert not os.path.exists(os.path.join("/dev/shm", name))
        finally:
            registry.close()


# ----------------------------------------------------------------------
# Differential chaos: the shard plane survives real failures byte-identically
# ----------------------------------------------------------------------


class TestChaosDifferential:
    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("mode", POOLED_MODES)
    def test_faulted_batch_matches_monolithic(self, tiny_ssb, mode, method):
        """Acceptance: kill/raise/unlink x fork/spawn, 13 queries, same bytes."""
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode=mode, times=2)])
        with Session(tiny_ssb, shard_start_method=method, faults=plan) as session:
            before = session.counters()
            for name in sorted(QUERIES):
                expected_value, _ = execute_query_monolithic(tiny_ssb, QUERIES[name])
                sharded = session.run(QUERIES[name], shards=2, cache=False)
                plain = session.run(QUERIES[name], cache=False)
                assert sharded.records == plain.records, name
                assert sharded.stats == plain.stats, name
                assert sharded.time == plain.time, name
                assert plain.value == expected_value, name
            delta = session.counters() - before
        assert plan.fired(SHARD_TASK) >= 1  # the chaos actually happened
        # ... and recovering from it is visible in the counters.
        assert delta.shard_retries + delta.pool_rebuilds + delta.failure_fallbacks >= 1

    def test_kill_rebuilds_the_pool(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="kill", times=2)])
        with Session(tiny_ssb, shard_start_method="fork", faults=plan) as session:
            before = session.counters()
            result = session.run(QUERIES["q1.1"], shards=2, cache=False)
            delta = session.counters() - before
            plain = session.run(QUERIES["q1.1"], cache=False)
            assert result.records == plain.records
        assert delta.pool_rebuilds >= 1
        assert delta.shard_retries >= 1
        assert delta.shard_queries == 1  # recovered in place, no fallback

    def test_unlink_reexports_and_recovers(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="unlink", times=1)])
        with Session(tiny_ssb, shard_start_method="fork", faults=plan) as session:
            before = session.counters()
            result = session.run(QUERIES["q2.1"], shards=2, cache=False)
            delta = session.counters() - before
            plain = session.run(QUERIES["q2.1"], cache=False)
            assert result.records == plain.records
        assert delta.shard_retries >= 1
        assert delta.shard_queries == 1

    def test_hung_task_times_out_and_retries(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="latency", delay_s=1.0)])
        policy = ResiliencePolicy(shard_task_timeout_s=0.2)
        with Session(
            tiny_ssb, shard_start_method="fork", faults=plan, resilience=policy
        ) as session:
            before = session.counters()
            result = session.run(QUERIES["q1.1"], shards=2, cache=False)
            delta = session.counters() - before
            plain = session.run(QUERIES["q1.1"], cache=False)
            assert result.records == plain.records
        assert delta.shard_retries >= 1
        assert delta.pool_rebuilds >= 1  # the hung pool was discarded

    def test_budget_exhaustion_falls_back_monolithic(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="raise", times=10)])
        policy = ResiliencePolicy(shard_retry_budget=1)
        with Session(
            tiny_ssb, shard_start_method="fork", faults=plan, resilience=policy
        ) as session:
            before = session.counters()
            result = session.run(QUERIES["q2.1"], shards=2, cache=False)
            delta = session.counters() - before
            plain = session.run(QUERIES["q2.1"], cache=False)
            assert result.records == plain.records
        assert delta.failure_fallbacks == 1
        assert delta.shard_retries == 1  # one round of repair was attempted
        assert delta.shard_queries == 0  # the shard plane never answered

    def test_close_after_worker_death_is_clean_and_idempotent(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="kill")])
        policy = ResiliencePolicy(shard_retry_budget=0)
        session = Session(
            tiny_ssb, shard_start_method="fork", faults=plan, resilience=policy
        )
        result = session.run(QUERIES["q1.1"], shards=2, cache=False)
        plain = session.run(QUERIES["q1.1"], cache=False)
        assert result.records == plain.records
        executor = session.shard_executor()
        assert executor.stats().failure_fallbacks == 1
        session.close()
        session.close()  # idempotent, even after real worker death
        assert executor.registry.closed
        assert executor.registry.num_segments == 0


# ----------------------------------------------------------------------
# The service's retry and breaker rungs
# ----------------------------------------------------------------------

FAST_BACKOFF = dict(backoff_base_s=0.005)


class TestServiceRetries:
    def test_transient_failures_absorbed_into_attempts(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SERVICE_EXECUTE, mode="raise", times=2)])
        policy = ResiliencePolicy(max_attempts=3, **FAST_BACKOFF)

        async def go():
            with Session(tiny_ssb, faults=plan, resilience=policy) as session:
                async with QueryService(session) as service:
                    outcome = await service.submit(QUERIES["q1.1"])
                    return outcome, service.stats

        outcome, stats = run(go())
        assert isinstance(outcome, ServiceResult)
        assert outcome.trace.status == "ok"
        assert outcome.trace.attempts == 3
        assert len(outcome.trace.faults) == 2
        assert all("TransientFaultError" in entry for entry in outcome.trace.faults)
        assert stats.retries == 2 and stats.completed == 1 and stats.failed == 0
        assert plan.fired(SERVICE_EXECUTE) == 2

    def test_exhausted_attempts_surface_the_error(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SERVICE_EXECUTE, mode="raise", times=5)])
        policy = ResiliencePolicy(max_attempts=2, **FAST_BACKOFF)

        async def go():
            with Session(tiny_ssb, faults=plan, resilience=policy) as session:
                async with QueryService(session) as service:
                    with pytest.raises(TransientFaultError):
                        await service.submit(QUERIES["q1.1"])
                    return service.traces[-1], service.stats

        trace, stats = run(go())
        assert trace.status == "error"
        assert trace.attempts == 2
        assert len(trace.faults) == 2
        assert stats.failed == 1 and stats.retries == 1 and stats.completed == 0

    def test_retry_timing_is_the_policys(self, tiny_ssb):
        """The backoff between attempts follows ``backoff_s`` exactly."""
        plan = FaultPlan([FaultPoint(site=SERVICE_EXECUTE, mode="raise", times=1)])
        policy = ResiliencePolicy(max_attempts=2, backoff_base_s=0.08)

        async def go():
            with Session(tiny_ssb, faults=plan, resilience=policy) as session:
                async with QueryService(session) as service:
                    start = time.perf_counter()
                    outcome = await service.submit(QUERIES["q1.1"])
                    return time.perf_counter() - start, outcome

        elapsed, outcome = run(go())
        assert outcome.trace.attempts == 2
        assert elapsed >= 0.08  # the one retry waited its full backoff

    def test_timeout_during_backoff_is_final(self, tiny_ssb):
        """One timeout spans all attempts: it can fire between two, and the
        request is then never re-admitted."""
        plan = FaultPlan([FaultPoint(site=SERVICE_EXECUTE, mode="raise", times=1)])
        policy = ResiliencePolicy(max_attempts=3, backoff_base_s=0.2)

        async def go():
            with Session(tiny_ssb, faults=plan, resilience=policy) as session:
                async with QueryService(session) as service:
                    with pytest.raises(QueryTimeoutError):
                        await service.submit(QUERIES["q1.1"], timeout=0.05)
                    await service.drain()  # the backoff timer still wakes
                    return service.traces[-1], service.stats

        trace, stats = run(go())
        assert trace.status == "timeout" and trace.attempts == 2
        assert stats.timed_out == 1 and stats.retries == 1 and stats.completed == 0
        assert plan.fired(SERVICE_EXECUTE) == 1  # the second attempt never ran

    def test_non_drain_close_cancels_pending_retries(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SERVICE_EXECUTE, mode="raise", times=1)])
        policy = ResiliencePolicy(max_attempts=3, backoff_base_s=5.0)

        async def go():
            with Session(tiny_ssb, faults=plan, resilience=policy) as session:
                service = QueryService(session)
                pending = asyncio.create_task(service.submit(QUERIES["q1.1"]))
                while service.stats.retries == 0:
                    await asyncio.sleep(0.001)
                await service.close(drain=False)  # does not wait out the backoff
                with pytest.raises(ServiceClosedError):
                    await pending
                return service.stats

        stats = run(go())
        assert stats.cancelled == 1 and stats.retries == 1
        assert stats.submitted == stats.settled == 1

    def test_ingest_is_never_retried(self, tiny_ssb):
        """Appends are not idempotent: no fault site, no retry rung."""
        plan = FaultPlan([FaultPoint(site=SERVICE_EXECUTE, mode="raise", times=5)])
        policy = ResiliencePolicy(max_attempts=3, **FAST_BACKOFF)
        from repro.ssb import generate_lineorder_batch, generate_ssb

        db = generate_ssb(scale_factor=0.005, seed=31)
        batch = generate_lineorder_batch(db, 8, seed=1)

        async def go():
            with Session(db, faults=plan, resilience=policy) as session:
                async with QueryService(session) as service:
                    ingested = await service.ingest("lineorder", batch)
                    return ingested, service.stats

        ingested, stats = run(go())
        assert ingested.version == 1
        assert ingested.trace.attempts == 1
        assert stats.retries == 0
        assert plan.fired(SERVICE_EXECUTE) == 0  # the site is query-only


class TestBreaker:
    def test_trips_degrades_probes_and_heals(self, tiny_ssb):
        # Each faulted query burns 2 arms (one per shard task); times=4 and
        # a zero shard retry budget make exactly the first two queries fall
        # back monolithically, which trips the threshold-2 breaker.
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="raise", times=4)])
        policy = ResiliencePolicy(
            shard_retry_budget=0, breaker_threshold=2, breaker_probe_every=2
        )

        async def go():
            with Session(
                tiny_ssb, shard_start_method="fork", faults=plan,
                resilience=policy, cache=False,
            ) as session:
                async with QueryService(session, shards=2, max_inflight=1) as service:
                    planes, opens = [], []
                    for _ in range(5):
                        outcome = await service.submit(QUERIES["q1.1"])
                        planes.append(outcome.trace.plane)
                        opens.append(service.breaker_open)
                    return planes, opens, service.stats

        planes, opens, stats = run(go())
        assert planes == [
            "monolithic-fallback",   # shard plane fails, ladder answers anyway
            "monolithic-fallback",   # second failure reaches the threshold
            "monolithic-breaker",    # breaker now routes to shards=1 up front
            "sharded",               # probe dispatch at full width succeeds...
            "sharded",               # ...and the healed breaker stays closed
        ]
        assert opens == [False, True, True, False, False]
        assert stats.breaker_trips == 1
        assert stats.completed == 5 and stats.failed == 0

    def test_a_cache_hit_neither_fails_nor_heals_the_breaker(self, tiny_ssb):
        # Cache on: the second q1.1 replays the first one's fallback answer.
        # It ran no shard task, so it must not reset the failure count --
        # the next faulted query still reaches the threshold-2 trip.
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="raise", times=4)])
        policy = ResiliencePolicy(
            shard_retry_budget=0, breaker_threshold=2, breaker_probe_every=2
        )
        names = ("q1.1", "q1.1", "q1.2", "q1.3", "q2.1")

        async def go():
            with Session(
                tiny_ssb, shard_start_method="fork", faults=plan, resilience=policy
            ) as session:
                async with QueryService(session, shards=2, max_inflight=1) as service:
                    outcomes, opens = [], []
                    for name in names:
                        outcomes.append(await service.submit(QUERIES[name]))
                        opens.append(service.breaker_open)
                    return outcomes, opens, service.stats

        outcomes, opens, stats = run(go())
        assert [outcome.trace.plane for outcome in outcomes] == [
            "monolithic-fallback",   # shard plane fails, ladder answers anyway
            "cache",                 # replayed: says nothing about the plane
            "monolithic-fallback",   # second failure reaches the threshold
            "monolithic-breaker",    # breaker now routes to shards=1 up front
            "sharded",               # probe dispatch at full width heals it
        ]
        assert opens == [False, False, True, True, False]
        assert stats.breaker_trips == 1 and stats.completed == 5
        for name, outcome in zip(names, outcomes):
            expected, _ = execute_query_monolithic(tiny_ssb, QUERIES[name])
            assert outcome.result.value == expected, name

    @pytest.mark.parametrize("path", ["worker", "loop"])
    def test_a_probe_answered_from_the_cache_probes_again(self, tiny_ssb, path):
        # The probe (2nd dispatch with the breaker open) repeats q1.1, whose
        # full-width answer is stored: it runs no shard task, so it tests
        # nothing, and the very next dispatch must probe in its place.
        # "loop": the spent plan is dropped after the trip, so the stored
        # probe is replayed on the event loop instead of on a worker.
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="raise", times=4)])
        policy = ResiliencePolicy(
            shard_retry_budget=0, breaker_threshold=2, breaker_probe_every=2
        )
        names = ("q1.1", "q1.2", "q1.3", "q1.1", "q2.1")

        async def go():
            with Session(
                tiny_ssb, shard_start_method="fork", faults=plan, resilience=policy
            ) as session:
                async with QueryService(session, shards=2, max_inflight=1) as service:
                    outcomes, opens = [], []
                    for name in names:
                        outcomes.append(await service.submit(QUERIES[name]))
                        opens.append(service.breaker_open)
                        if path == "loop" and service.breaker_open:
                            session.faults = None
                    return outcomes, opens, service.stats

        outcomes, opens, stats = run(go())
        assert [outcome.trace.plane for outcome in outcomes] == [
            "monolithic-fallback",   # shard plane fails, ladder answers anyway
            "monolithic-fallback",   # second failure trips the breaker
            "monolithic-breaker",    # 1st dispatch while open: shards=1
            "cache",                 # 2nd: the probe, answered from the memo
            "sharded",               # 3rd probes again at full width and heals
        ]
        assert opens == [False, True, True, True, False]
        assert stats.breaker_trips == 1 and stats.completed == 5
        for name, outcome in zip(names, outcomes):
            expected, _ = execute_query_monolithic(tiny_ssb, QUERIES[name])
            assert outcome.result.value == expected, name

    def test_breaker_answers_stay_correct_throughout(self, tiny_ssb):
        plan = FaultPlan([FaultPoint(site=SHARD_TASK, mode="raise", times=4)])
        policy = ResiliencePolicy(
            shard_retry_budget=0, breaker_threshold=2, breaker_probe_every=2
        )
        expected, _ = execute_query_monolithic(tiny_ssb, QUERIES["q3.1"])

        async def go():
            with Session(
                tiny_ssb, shard_start_method="fork", faults=plan,
                resilience=policy, cache=False,
            ) as session:
                async with QueryService(session, shards=2, max_inflight=1) as service:
                    return [
                        (await service.submit(QUERIES["q3.1"])).result.result.value
                        for _ in range(5)
                    ]

        values = run(go())
        assert all(value == expected for value in values)
