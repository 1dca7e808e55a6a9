"""The four workloads and the one measurement protocol they all follow.

Each workload is a small class: what its input is, how the program is set
up over it, how load is driven, and which layer numbers only it can report.
:func:`measure` runs any of them through the same phases --

    prefault -> generate input and references -> 1 cold + 5..15 timed set-ups
    -> timed phase (tracing off) -> memory pass -> untraced twin and traced
    pass (``trace``)

-- so every number in the ledger is taken the same way.  Load is closed
loop throughout and issued as a fixed, seeded sequence: sample counts and
every program counter repeat exactly for a given ``(seed, count)``.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import QUERIES, Q, Session, generate_ssb
from repro.engine.cache import BuildArtifactCache, ZoneMapCache, activate_builds, activate_zones
from repro.engine.shard import partial_for_range, shard_ranges
from repro.service import QueryService
from repro.ssb.generator import generate_lineorder_batch
from repro.storage import Database, DurabilityConfig, Table, cluster_by
from repro.storage.shm import SEGMENT_PREFIX, SHM_DIR

import catalog
import harness
from spans import SpanRecorder, default_targets, of_requests, under, zonemap_build_targets

QUERY_NAMES = tuple(QUERIES)
BATCH_ROWS = 4096


def request_scope(recorder: SpanRecorder | None, request_id: int):
    """The recorder's request scope, or nothing when tracing is off."""
    return nullcontext() if recorder is None else recorder.request(request_id)


@dataclass
class Run:
    """What one driven phase observed."""

    query_ms: list = field(default_factory=list)
    append_ms: list = field(default_factory=list)
    #: What ``queries_per_s`` divides by: the phase's wall time, except on
    #: ``ingest_htap`` (see :meth:`IngestHtap.drive`).
    wall_s: float = 0.0
    model_bytes: float = 0.0
    model_cpu_ms: float = 0.0
    #: Workload-specific extras (service traces, checkpoint sizes, ...).
    extra: dict = field(default_factory=dict)


class Workload:
    """Base: SSB input, a plain ``Session``, rounds of the 13 queries."""

    name = ""
    scale_factor = 0.5
    prefault_mb = 768
    clustered = False
    #: Units of load (rounds / requests per client / ticks) per ``--seconds``
    #: second, the floor that keeps >= 480 samples, and the traced-pass and
    #: memory-pass sizes.
    per_second = 3.7
    floor = 37
    traced_count = 8
    memory_count = 1
    #: Timed set-ups behind ``setup_s``'s median (after one discarded cold
    #: one): at least 5, more where a set-up is short enough to afford them.
    setup_repeats = 9

    def __init__(self, seed: int, work_dir: str, scale_factor: float | None = None) -> None:
        self.seed = seed
        self.work_dir = work_dir
        if scale_factor is not None:
            # The heap to pre-fault is proportional to the data.
            self.prefault_mb = max(16, round(self.prefault_mb * scale_factor / self.scale_factor))
            self.scale_factor = scale_factor
        self.tally = harness.Tally()
        self.answers: dict = {}
        #: Markdown-ready tables a traced run adds to its record.
        self.tables: dict = {}
        self.generate_s = 0.0
        self.cluster_s = 0.0

    def count_for(self, seconds: float) -> int:
        return max(self.floor, round(self.per_second * seconds))

    # -- input ----------------------------------------------------------
    def make_input(self) -> None:
        start = time.perf_counter()
        db = generate_ssb(self.scale_factor, seed=self.seed)
        self.generate_s = time.perf_counter() - start
        if self.clustered:
            start = time.perf_counter()
            db = cluster_by(db, "lineorder", "lo_orderdate")
            self.cluster_s = time.perf_counter() - start
        self.db = db
        self.refs = {name: harness.reference(db, QUERIES[name]) for name in QUERY_NAMES}
        for name, ref in self.refs.items():
            self.answers[name] = (ref.value, ref.simulated_ms)

    # -- program set-up -------------------------------------------------
    def set_up(self):
        session = Session(self.db)
        self.first_answers(session)
        return session

    def first_answers(self, session) -> None:
        """The first verified answer of every query class (ends a set-up)."""
        for name in QUERY_NAMES:
            result = session.run(QUERIES[name], cache=False)
            self.tally.check(self.refs[name].matches(result), f"set-up answer {name}")

    def session_of(self, state) -> Session:
        return state

    def tear_down(self, state) -> None:
        state.close()

    # -- load -----------------------------------------------------------
    def drive(self, state, count: int, recorder: SpanRecorder | None = None) -> Run:
        """``count`` rounds, each a seeded shuffle of the 13 queries."""
        session = self.session_of(state)
        rng = np.random.default_rng([self.seed, 1])
        run = Run(extra={"names": []})
        request = 0
        begin = time.perf_counter()
        for _ in range(count):
            for index in rng.permutation(len(QUERY_NAMES)):
                name = QUERY_NAMES[index]
                run.extra["names"].append(name)
                start = time.perf_counter()
                with request_scope(recorder, request):
                    result = session.run(QUERIES[name], cache=False)
                run.query_ms.append((time.perf_counter() - start) * 1e3)
                request += 1
                self.tally.check(self.refs[name].matches(result), f"answer {name}")
                run.model_bytes += result.traffic.sequential_read_bytes
                run.model_cpu_ms += result.simulated_ms
        run.wall_s = time.perf_counter() - begin
        return run

    def memory_pass(self, state) -> None:
        """The load ``mem_peak_mb`` is taken over, after a set-up."""
        self.drive(state, self.memory_count)

    def finish(self, state, run: Run) -> dict:
        """After the timed phase: final checks and workload-only end-to-end metrics."""
        return {}

    # -- layer numbers only this workload has ----------------------------
    def own_layers(self, recorder, window, state, run: Run) -> dict:
        return {}


class SsbUniform(Workload):
    name = "ssb_uniform"


class SsbSharded(Workload):
    name = "ssb_sharded"
    clustered = True
    per_second = 2.6
    setup_repeats = 5
    shards = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.first_query_ms: list[float] = []
        self.export_mb: list[float] = []

    def set_up(self):
        session = Session(self.db, shards=self.shards, shard_start_method=catalog.SHARD_START_METHOD)
        start = time.perf_counter()
        first = session.run(QUERIES[QUERY_NAMES[0]], cache=False)
        self.first_query_ms.append((time.perf_counter() - start) * 1e3)
        self.export_mb.append(own_shm_bytes() / 1e6)
        self.tally.check(self.refs[QUERY_NAMES[0]].matches(first), "set-up first sharded answer")
        self.first_answers(session)
        return session

    def own_layers(self, recorder, window, state, run):
        totals = recorder.totals(*window)
        queries = len(run.query_ms)
        partials = self.partial_by_query()
        partial_ms = float(np.mean(list(partials.values())))
        self.tables["sharded_fixed_cost"] = self.fixed_cost_rows(recorder, window, run, partials)
        execute = totals["shard.execute"]
        delta = run.extra["counters"]
        return {
            "shard.execute_ms": execute["total_ns"] / 1e6 / queries,
            "shard.partial_ms": partial_ms,
            "shard.merge_ms": totals["shard.merge"]["self_ns"] / 1e6 / queries,
            # execute's self time is what lower, parent builds and merge do
            # not cover: pickle, submit, attach and the wait for the slowest
            # worker -- of which the partial itself is the part doing work.
            "shard.dispatch_ms": execute["self_ns"] / 1e6 / queries - partial_ms,
            "shard.first_query_ms": harness.median(self.first_query_ms),
            "shard.export_mb": harness.median(self.export_mb),
            "shard.tasks": delta.shard_tasks,
            "shard.fallbacks": delta.shard_fallbacks + delta.failure_fallbacks,
            "shard.retries": delta.shard_retries,
        }

    def partial_by_query(self) -> dict[str, float]:
        """Per query: the slowest range's in-process ``partial_for_range`` (ms)."""
        fact_rows = self.db.table("lineorder").num_rows
        zones = ZoneMapCache(self.db)
        ranges = [r for r in shard_ranges(fact_rows, self.shards, zones.zone_size) if r[1] > r[0]]

        def slowest_range(name: str) -> float:
            times = []
            for start, stop in ranges:
                begin = time.perf_counter()
                partial_for_range(self.db, QUERIES[name], start, stop)
                times.append((time.perf_counter() - begin) * 1e3)
            return max(times)

        with activate_zones(zones), activate_builds(BuildArtifactCache(self.db)):
            return median_by_query(slowest_range)

    def fixed_cost_rows(self, recorder, window, run: Run, partials: dict) -> list[dict]:
        """Per query: where a sharded execution's time goes, beside the
        single-process time of the same query on the same data (ms)."""
        single = Session(self.db)

        def single_process(name: str) -> float:
            begin = time.perf_counter()
            single.run(QUERIES[name], cache=False)
            return (time.perf_counter() - begin) * 1e3

        singles = median_by_query(single_process)
        single.close()
        rows = []
        for name in QUERY_NAMES:
            requests = [i for i, seen in enumerate(run.extra["names"]) if seen == name]
            totals = recorder.totals(*window, keep=of_requests(requests))

            def mean_ms(span: str, key: str) -> float:
                return totals[span][key] / 1e6 / len(requests)

            rows.append({
                "query": name,
                "sharded_ms": mean_ms("api.run", "total_ns"),
                "lower_ms": mean_ms("engine.lower", "self_ns"),
                "parent_builds_ms": mean_ms("engine.build", "self_ns"),
                "dispatch_ms": mean_ms("shard.execute", "self_ns") - partials[name],
                "partial_ms": partials[name],
                "merge_ms": mean_ms("shard.merge", "self_ns"),
                "single_process_ms": singles[name],
            })
        return rows


def median_by_query(measure_one, repeats: int = 5) -> dict[str, float]:
    """Per query, the median of ``measure_one(name)`` over ``repeats`` sweeps.

    One extra sweep first warms statistics, twins and builds.  Sweeps go
    over all 13 queries, so a slow spell of the machine lands on one repeat
    of many queries -- which the median discards -- not on every repeat of one.
    """
    samples: dict[str, list] = {name: [] for name in QUERY_NAMES}
    for sweep in range(repeats + 1):
        for name in QUERY_NAMES:
            value = measure_one(name)
            if sweep:
                samples[name].append(value)
    return {name: harness.median(values) for name, values in samples.items()}


def own_shm_bytes() -> int:
    """Bytes of ``/dev/shm`` segments this process's registries hold."""
    marker = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    try:
        names = [name for name in os.listdir(SHM_DIR) if name.startswith(marker)]
    except OSError:
        return 0
    return sum(os.path.getsize(os.path.join(SHM_DIR, name)) for name in names)


# ----------------------------------------------------------------------
# serve_dash
# ----------------------------------------------------------------------


def cold_query(quantity: int, discount: tuple[int, int], price: int):
    """The dashboard's ad-hoc drill-down: a builder query no cache has seen."""
    return (
        Q("lineorder")
        .filter("lo_quantity", "lt", quantity)
        .filter("lo_discount", "between", discount)
        .filter("lo_extendedprice", "ge", price)
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
        .group_by("d_year")
        .agg("count")
        .named("cold")
    )


@dataclass
class Served:
    session: Session
    service: QueryService
    loop: asyncio.AbstractEventLoop


class ServeDash(Workload):
    name = "serve_dash"
    scale_factor = 0.1
    prefault_mb = 384
    clustered = True
    clients = 2
    per_second = 500.0  # requests per client
    floor = 240
    setup_repeats = 15
    traced_count = 1000
    memory_count = 8
    cold_share = 0.1
    cold_check_every = 50

    def make_input(self) -> None:
        super().make_input()
        self.probe = cold_query(25, (1, 3), 9_000_000)
        self.probe_ref = harness.reference(self.db, self.probe.build(self.db))
        self.answers["cold-probe"] = (self.probe_ref.value, self.probe_ref.simulated_ms)

    def set_up(self) -> Served:
        session = Session(self.db)
        service = QueryService(session, max_inflight=2, max_queue_depth=8)
        served = Served(session, service, asyncio.new_event_loop())

        async def first_answers():
            for name in QUERY_NAMES:
                done = await service.submit(QUERIES[name], class_tag=name)
                self.tally.check(self.refs[name].matches(done.result), f"set-up answer {name}")
            done = await service.submit(self.probe, class_tag="cold")
            self.tally.check(self.probe_ref.matches(done.result), "set-up answer cold")

        served.loop.run_until_complete(first_answers())
        return served

    def session_of(self, state: Served) -> Session:
        return state.session

    def tear_down(self, state: Served) -> None:
        state.loop.run_until_complete(state.service.close())
        state.loop.close()
        state.session.close()

    def schedule(self, client: int, count: int) -> list:
        """``count`` requests: hot ones uniform over the 13, cold ones unique."""
        rng = np.random.default_rng([self.seed, 2, client])
        cold = rng.random(count) < self.cold_share
        # Prices are drawn without replacement from disjoint per-client
        # strides, so no cold query repeats anywhere in the run.
        prices = 90_000 + self.clients * rng.choice(4_000_000, size=count, replace=False) + client
        out = []
        for i in range(count):
            if cold[i]:
                low = int(rng.integers(0, 8))
                query = cold_query(int(rng.integers(10, 51)), (low, low + int(rng.integers(1, 4))), int(prices[i]))
                out.append(("cold", query))
            else:
                name = QUERY_NAMES[int(rng.integers(0, len(QUERY_NAMES)))]
                out.append((name, QUERIES[name]))
        return out

    def drive(self, state: Served, count: int, recorder=None) -> Run:
        """``count`` requests from each of the clients, zero think time."""
        run = Run(extra={"traces": [], "to_check": []})
        service = state.service

        async def client(index: int) -> None:
            seen: set = set()
            colds = 0
            for i, (tag, query) in enumerate(self.schedule(index, count)):
                start = time.perf_counter()
                # The 13 hot specs are shared objects; when tracing, a copy
                # per request lets a span find its own request across the
                # hop to the worker thread.
                sent = query if recorder is None else copy.copy(query)
                try:
                    with request_scope(recorder, index * count + i):
                        done = await service.submit(sent, class_tag=tag)
                except Exception as exc:  # rejects, timeouts and errors are failed operations
                    self.tally.attempted += 1
                    self.tally.fail(f"{tag}: {type(exc).__name__}: {exc}")
                    continue
                latency = (time.perf_counter() - start) * 1e3
                run.query_ms.append(latency)
                run.extra["traces"].append(done.trace)
                run.model_bytes += done.result.traffic.sequential_read_bytes
                run.model_cpu_ms += done.result.simulated_ms
                if tag == "cold":
                    colds += 1
                    check = colds % self.cold_check_every == 1
                else:
                    check = tag not in seen
                    seen.add(tag)
                if check:
                    run.extra["to_check"].append((tag, query, done.result))
                else:
                    self.tally.attempted += 1

        async def all_clients():
            await asyncio.gather(*(client(index) for index in range(self.clients)))

        begin = time.perf_counter()
        state.loop.run_until_complete(all_clients())
        run.wall_s = time.perf_counter() - begin
        # Checked after the loop so verification adds no think time.
        for tag, query, result in run.extra.pop("to_check"):
            if tag == "cold":
                direct = state.session.run(query, cache=False)
                ok = result.value == direct.value and result.simulated_ms == direct.simulated_ms
            else:
                ok = self.refs[tag].matches(result)
            self.tally.check(ok, f"served answer {tag}")
        run.extra["stats"] = service.stats
        return run

    def own_layers(self, recorder, window, state, run):
        traces = run.extra["traces"]
        stats = run.extra["stats"]
        overhead = [ms - trace.execute_ms for ms, trace in zip(run.query_ms, traces)]
        return {
            "service.wait_ms": harness.median([trace.wait_ms for trace in traces]),
            "service.execute_ms": harness.median([trace.execute_ms for trace in traces]),
            "service.overhead_ms": harness.median(overhead),
            "service.peak_queue_depth": stats.peak_queue_depth,
            "service.rejected": stats.rejected + stats.shed,
        }


# ----------------------------------------------------------------------
# ingest_htap
# ----------------------------------------------------------------------


def clone_database(db: Database) -> Database:
    """Fresh appendable tables over the same (never mutated) base arrays."""
    return Database(
        name=db.name,
        tables={
            name: Table(name, columns=dict(table.columns), dictionaries=dict(table.dictionaries))
            for name, table in db.tables.items()
        },
    )


def databases_identical(a: Database, b: Database) -> bool:
    """Byte-identical: versions, columns, dtypes, encodings, dictionaries."""
    if sorted(a.tables) != sorted(b.tables):
        return False
    for name, ta in a.tables.items():
        tb = b.table(name)
        if ta.version != tb.version or sorted(ta.columns) != sorted(tb.columns):
            return False
        for cname, col in ta.columns.items():
            other = tb.columns[cname]
            if col.values.dtype != other.values.dtype or col.encoding != other.encoding:
                return False
            if not np.array_equal(col.values, other.values):
                return False
        if sorted(ta.dictionaries) != sorted(tb.dictionaries):
            return False
        for cname, encoder in ta.dictionaries.items():
            if list(encoder.values) != list(tb.dictionaries[cname].values):
                return False
    return True


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


@dataclass
class Ingesting:
    session: Session
    db: Database
    config: DurabilityConfig
    standing: dict


class IngestHtap(Workload):
    name = "ingest_htap"
    scale_factor = 0.2
    prefault_mb = 1024
    clustered = True
    per_second = 14.0  # ticks
    floor = 480
    setup_repeats = 15
    traced_count = 80  # one checkpoint at tick 64, then 16 records for recovery to replay
    memory_count = 8
    standing_names = ("q1.1", "q2.1", "q4.1")
    read_names = ("q1.2", "q2.2", "q3.1", "q4.2")
    recoveries = 5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dirs = 0

    def set_up(self) -> Ingesting:
        db = clone_database(self.db)
        self._dirs += 1
        config = DurabilityConfig(
            dir=os.path.join(self.work_dir, f"durable-{self._dirs}"), fsync="always", checkpoint_every=64
        )
        session = Session(db, durability=config)
        standing = {name: session.register_standing(QUERIES[name]) for name in self.standing_names}
        for name, handle in standing.items():
            self.tally.check(handle.answer() == self.refs[name].value, f"set-up standing {name}")
        for name in self.read_names:
            self.tally.check(self.refs[name].matches(session.run(QUERIES[name])), f"set-up answer {name}")
        return Ingesting(session, db, config, standing)

    def session_of(self, state: Ingesting) -> Session:
        return state.session

    def tear_down(self, state: Ingesting) -> None:
        state.session.close()
        shutil.rmtree(state.config.dir, ignore_errors=True)

    def drive(self, state: Ingesting, count: int, recorder=None) -> Run:
        """``count`` ticks: one durable append, then two cache-missing reads."""
        session = state.session
        run = Run(extra={"user_bytes": 0, "append_s": 0.0, "checkpoint_bytes": 0})
        seen_checkpoints: set = set()
        request = 0
        for tick in range(count):
            batch = generate_lineorder_batch(state.db, BATCH_ROWS, seed=self.seed * 1_000_003 + tick)
            run.extra["user_bytes"] += sum(array.nbytes for array in batch.values())
            start = time.perf_counter()
            try:
                with request_scope(recorder, request):
                    session.ingest("lineorder", batch)
            except Exception as exc:
                self.tally.attempted += 1
                self.tally.fail(f"append {tick}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            run.append_ms.append(elapsed * 1e3)
            run.extra["append_s"] += elapsed
            self.tally.attempted += 1
            request += 1
            if recorder is not None:
                for name in os.listdir(state.config.dir):
                    if name.endswith(".ckpt") and name not in seen_checkpoints:
                        seen_checkpoints.add(name)
                        run.extra["checkpoint_bytes"] += os.path.getsize(os.path.join(state.config.dir, name))
            for k in range(2):
                name = self.read_names[(2 * tick + k) % len(self.read_names)]
                start = time.perf_counter()
                with request_scope(recorder, request):
                    result = session.run(QUERIES[name])
                run.query_ms.append((time.perf_counter() - start) * 1e3)
                request += 1
                self.tally.attempted += 1
                run.model_bytes += result.traffic.sequential_read_bytes
                run.model_cpu_ms += result.simulated_ms
        # The rate is taken over the time spent serving reads.  Appends have
        # their own metrics, and a checkpoint's flush to this sandbox's disk
        # stalls for anything from 1 to 9 s: over the whole phase the same
        # code read 25 queries/s in one run and 12 in the next.
        run.wall_s = sum(run.query_ms) / 1e3
        return run

    def memory_pass(self, state: Ingesting) -> None:
        # A superseded table version stays allocated until the cyclic
        # collector next runs, which is allocation-count luck: collecting
        # before every tick makes the peak the live set's, and repeatable.
        for _ in range(self.memory_count):
            gc.collect()
            self.drive(state, 1)

    def verify_final(self, state: Ingesting) -> None:
        """Standing answers and reads equal from-scratch runs at the final version."""
        for name, handle in state.standing.items():
            ref = harness.reference(state.db, QUERIES[name])
            self.tally.check(handle.answer() == ref.value, f"final standing {name}")
            self.answers[f"final-{name}"] = (ref.value, ref.simulated_ms)
        for name in self.read_names:
            ref = harness.reference(state.db, QUERIES[name])
            self.tally.check(ref.matches(state.session.run(QUERIES[name])), f"final answer {name}")
            self.answers[f"final-{name}"] = (ref.value, ref.simulated_ms)

    def recover(self, state: Ingesting) -> tuple[float, object]:
        """One ``Session.open`` into a fresh base database, checked byte for byte."""
        base = clone_database(self.db)
        gc.collect()
        start = time.perf_counter()
        reopened = Session.open(base, durability=state.config)
        elapsed = time.perf_counter() - start
        report = reopened.recovery
        reopened.close()
        self.tally.check(databases_identical(base, state.db), "recovered database identical")
        return elapsed, report

    def finish(self, state: Ingesting, run: Run) -> dict:
        self.verify_final(state)
        state.session.close()
        times = [self.recover(state)[0] for _ in range(self.recoveries)]
        rows = BATCH_ROWS * len(run.append_ms)
        return {
            "append_p50_ms": harness.percentile(run.append_ms, 50),
            "append_p95_ms": harness.percentile(run.append_ms, 95),
            "ingest_rows_per_s": rows / run.extra["append_s"],
            "recovery_s": harness.median(times),
        }

    def own_layers(self, recorder, window, state, run):
        ticks = len(run.append_ms)
        user_bytes = run.extra["user_bytes"]
        stats = state.session.durability.stats()
        disk_bytes = directory_bytes(state.config.dir)
        state.session.close()
        mark = recorder.mark()
        with recorder.wrapping():
            _, report = self.recover(state)
        recovery = recorder.totals(mark)
        totals = recorder.totals(*window)

        def per_tick(name: str, key: str) -> float:
            return totals[name][key] / 1e6 / ticks

        checkpoints = totals["checkpoint.write"]
        return {
            "table.append_ms": per_tick("table.append", "self_ns"),
            "wal.log_append_ms": per_tick("wal.log_append", "total_ns"),
            "wal.fsyncs": stats.fsyncs,
            "wal.bytes_per_user_byte": stats.bytes_logged / user_bytes,
            "standing.refresh_ms": per_tick("standing.refresh", "total_ns"),
            "checkpoint.write_ms": checkpoints["total_ns"] / 1e6 / max(checkpoints["calls"], 1),
            "checkpoint.count": stats.checkpoints_written,
            "checkpoint.bytes_per_user_byte": run.extra["checkpoint_bytes"] / user_bytes,
            "wal.recover_ms": recovery["wal.recover"]["total_ns"] / 1e6,
            "wal.recover_replayed": report.replayed_records,
            "storage.disk_bytes_per_user_byte": disk_bytes / user_bytes,
        }


WORKLOADS = {cls.name: cls for cls in (SsbUniform, SsbSharded, ServeDash, IngestHtap)}


def measure(
    name: str,
    *,
    seed: int = catalog.DEFAULT_SEED,
    seconds: float = catalog.DEFAULT_SECONDS,
    trace: bool = False,
    work_dir: str,
    spans_path: str | None = None,
    scale_factor: float | None = None,
    count: int | None = None,
    traced_count: int | None = None,
) -> dict:
    """Run one workload through every phase and return its result record.

    ``scale_factor``, ``count`` and ``traced_count`` exist for the self-test
    (tiny data, one round); the command line never sets them.
    """
    workload = WORKLOADS[name](seed, work_dir, scale_factor)
    count = workload.count_for(seconds) if count is None else count
    traced_count = workload.traced_count if traced_count is None else traced_count
    tally = workload.tally

    prefault_s = harness.prefault(workload.prefault_mb)
    kernel_ms = harness.ref_kernel_ms()
    workload.make_input()

    state, setup_times = harness.timed_setups(workload.set_up, workload.tear_down, workload.setup_repeats)
    gc.collect()
    timed = workload.drive(state, count)
    own_end_to_end = workload.finish(state, timed)
    workload.tear_down(state)

    def memory_pass():
        state = workload.set_up()
        workload.memory_pass(state)
        workload.tear_down(state)

    mem_peak_mb = harness.traced_memory_peak_mb(memory_pass)

    end_to_end = {
        "setup_s": harness.median(setup_times),
        "query_p50_ms": harness.percentile(timed.query_ms, 50),
        "query_p95_ms": harness.percentile(timed.query_ms, 95),
        "queries_per_s": len(timed.query_ms) / timed.wall_s,
        "mem_peak_mb": mem_peak_mb,
        **own_end_to_end,
    }
    # Known without tracing, and reported either way: they explain a slow run.
    layers = {
        "ssb.generate_s": workload.generate_s,
        "storage.cluster_s": workload.cluster_s,
        "harness.prefault_s": prefault_s,
        "harness.ref_kernel_ms": kernel_ms,
        "checkpoint.stall_max_ms": max(timed.append_ms, default=0.0),
    }
    samples = {"queries": len(timed.query_ms), "appends": len(timed.append_ms), "setups": len(setup_times)}

    if trace:
        layers = {**dict.fromkeys(catalog.PER_LAYER, 0.0), **layers}
        # The traced pass's untraced twin: same fresh set-up, same requests,
        # seconds apart -- the timed phase ran minutes ago on a machine whose
        # speed drifts by more than the wrappers cost.
        state = workload.set_up()
        gc.collect()
        twin = workload.drive(state, traced_count)
        workload.tear_down(state)
        recorder = SpanRecorder()
        with recorder.wrapping(default_targets() + zonemap_build_targets()):
            state = workload.set_up()
        setup_end = recorder.mark()
        session = workload.session_of(state)
        before = session.counters()
        gc.collect()
        with recorder.wrapping():
            traced = workload.drive(state, traced_count, recorder)
        window = (setup_end, recorder.mark())
        delta = session.counters() - before
        traced.extra["counters"] = delta
        layers.update(common_layers(recorder, setup_end, window, traced, delta))
        layers.update(workload.own_layers(recorder, window, state, traced))
        workload.tear_down(state)
        traced_p50 = harness.percentile(traced.query_ms, 50)
        layers["harness.trace_overhead_pct"] = (traced_p50 / harness.percentile(twin.query_ms, 50) - 1.0) * 100.0
        samples["traced_queries"] = len(traced.query_ms)
        samples["spans"] = len(recorder.spans)
        if spans_path is not None:
            recorder.write(spans_path)

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "count": count,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "answers_sha256": harness.answers_sha256(workload.answers),
        "samples": samples,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "tables": workload.tables,
    }


def common_layers(recorder: SpanRecorder, setup_end: int, window, run: Run, delta) -> dict:
    """Layer numbers every workload has: api, engine, caches, zone maps."""
    setup = recorder.totals(0, setup_end)
    everything = recorder.totals(*window)
    queries = recorder.totals(*window, keep=under("api.run"))
    served = max(len(run.query_ms), 1)

    def per_query(name: str) -> float:
        return queries[name]["self_ns"] / 1e6 / served

    kernel_s = sum(
        queries[name]["self_ns"] for name in ("engine.scan", "engine.probe", "engine.aggregate")
    ) / 1e9
    extend = everything["zonemap.extend"]
    return {
        "api.prepare_ms": everything["api.prepare"]["self_ns"] / 1e6 / served,
        "api.decode_ms": per_query("api.decode"),
        "engine.lower_ms": per_query("engine.lower"),
        "engine.scan_ms": per_query("engine.scan"),
        "engine.build_ms": per_query("engine.build"),
        "engine.probe_ms": per_query("engine.probe"),
        "engine.aggregate_ms": per_query("engine.aggregate"),
        "engine.simulate_ms": per_query("engine.simulate"),
        "engine.model_bytes": run.model_bytes,
        "engine.model_cpu_ms": run.model_cpu_ms,
        "engine.achieved_gbps": run.model_bytes / 1e9 / kernel_s if kernel_s else 0.0,
        "cache.exec_hit_ratio": harness.ratio(delta.execution_hits, delta.execution_misses),
        "cache.build_hit_ratio": harness.ratio(delta.build_hits, delta.build_misses),
        "cache.zone_hit_ratio": harness.ratio(delta.zone_hits + delta.zone_extensions, delta.zone_misses),
        "zonemap.zones_skipped": delta.zones_skipped,
        "zonemap.zones_evaluated": delta.zones_evaluated,
        "zonemap.rows_pruned": delta.rows_pruned,
        "zonemap.build_ms": sum(
            setup[name]["self_ns"] for name in ("zonemap.maps", "zonemap.stats", "zonemap.packed")
        ) / 1e6,
        "zonemap.extend_ms": extend["self_ns"] / 1e6 / max(extend["calls"], 1),
    }
