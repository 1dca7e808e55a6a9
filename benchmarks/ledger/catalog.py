"""The ledger's names: workloads, metrics, units, directions, bounds.

Later issues cite these names verbatim, so they live in one place.  The
runner prints them, ``test_ledger.py`` checks every workload emits exactly
the names listed for it, and ``BENCHMARK.json`` must agree with
:func:`benchmark_json` (the self-test compares the two).
"""

from __future__ import annotations

#: ``--seconds`` the request counts below are sized for (also BENCHMARK.json's
#: ``run_seconds``).  Counts scale linearly with ``--seconds`` but never drop
#: below the floor that keeps >= 480 samples per reported operation.
DEFAULT_SECONDS = 10
DEFAULT_SEED = 1

#: Environment every workload child runs under.  The three MALLOC_ values
#: keep freed NumPy temporaries inside the process heap (no munmap, no trim),
#: so a query re-uses pages the hypervisor has already backed instead of
#: faulting fresh ones; 32 MiB is glibc's ceiling for the mmap threshold,
#: which is why no workload's largest temporary (an int64 vector over the
#: fact table) may exceed it.
PINNED_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "4294967295",
    "MALLOC_TOP_PAD_": "268435456",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: How ``ssb_sharded`` starts its two workers (recorded in the fingerprint).
SHARD_START_METHOD = "fork"

ALL = ("ssb_uniform", "ssb_sharded", "serve_dash", "ingest_htap")

WORKLOADS = {
    "ssb_uniform": "analyst batch on unprunable SF 0.5 data: engine scan/build/probe/aggregate do all the work",
    "ssb_sharded": "same 13 queries on date-clustered data through 2 shard workers: dispatch, attach, merge and zone pruning",
    "serve_dash": "2 closed-loop clients on the asyncio service, 90% execution-cache hits and 10% never-repeating cold queries",
    "ingest_htap": "durable 4096-row appends with checkpoints and standing queries beside cache-missing reads, then recovery",
}

#: name -> (unit, better, bound, workloads).  The bound is the share of the
#: baseline median a metric may worsen by before a change counts as a
#: regression.  ISSUE 12 aimed at 10 % on timings; on this machine class
#: (2 shared vCPUs) the quartile spread of ten runs reaches 20 % in a noisy
#: quarter of an hour and a slow spell of the host moved a set's medians by
#: 13 % (NOISE.md), so timings carry the driver's cap of 25 % and only the
#: exactly repeating memory peak keeps a tight bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, ALL),
    "query_p50_ms": ("ms", "lower", 0.25, ALL),
    "query_p95_ms": ("ms", "lower", 0.25, ALL),
    "queries_per_s": ("1/s", "higher", 0.25, ALL),
    "mem_peak_mb": ("MB", "lower", 0.03, ALL),
    "append_p50_ms": ("ms", "lower", 0.25, ("ingest_htap",)),
    "append_p95_ms": ("ms", "lower", 0.25, ("ingest_htap",)),
    "ingest_rows_per_s": ("rows/s", "higher", 0.25, ("ingest_htap",)),
    "recovery_s": ("s", "lower", 0.25, ("ingest_htap",)),
}

#: name -> (unit, better).  Every workload reports every name; a layer a
#: workload never enters reads 0.
PER_LAYER = {
    "api.prepare_ms": ("ms", "lower"),
    "api.decode_ms": ("ms", "lower"),
    "engine.lower_ms": ("ms", "lower"),
    "engine.scan_ms": ("ms", "lower"),
    "engine.build_ms": ("ms", "lower"),
    "engine.probe_ms": ("ms", "lower"),
    "engine.aggregate_ms": ("ms", "lower"),
    "engine.simulate_ms": ("ms", "lower"),
    "engine.model_bytes": ("bytes", "lower"),
    "engine.model_cpu_ms": ("ms", "lower"),
    "engine.achieved_gbps": ("GB/s", "higher"),
    "cache.exec_hit_ratio": ("ratio", "higher"),
    "cache.build_hit_ratio": ("ratio", "higher"),
    "cache.zone_hit_ratio": ("ratio", "higher"),
    "zonemap.zones_skipped": ("count", "higher"),
    "zonemap.zones_evaluated": ("count", "lower"),
    "zonemap.rows_pruned": ("rows", "higher"),
    "zonemap.build_ms": ("ms", "lower"),
    "zonemap.extend_ms": ("ms", "lower"),
    "shard.execute_ms": ("ms", "lower"),
    "shard.partial_ms": ("ms", "lower"),
    "shard.merge_ms": ("ms", "lower"),
    "shard.dispatch_ms": ("ms", "lower"),
    "shard.first_query_ms": ("ms", "lower"),
    "shard.export_mb": ("MB", "lower"),
    "shard.tasks": ("count", "lower"),
    "shard.fallbacks": ("count", "lower"),
    "shard.retries": ("count", "lower"),
    "service.wait_ms": ("ms", "lower"),
    "service.execute_ms": ("ms", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "service.peak_queue_depth": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "table.append_ms": ("ms", "lower"),
    "wal.log_append_ms": ("ms", "lower"),
    "wal.fsyncs": ("count", "lower"),
    "wal.bytes_per_user_byte": ("ratio", "lower"),
    "standing.refresh_ms": ("ms", "lower"),
    "checkpoint.write_ms": ("ms", "lower"),
    "checkpoint.count": ("count", "lower"),
    "checkpoint.bytes_per_user_byte": ("ratio", "lower"),
    "checkpoint.stall_max_ms": ("ms", "lower"),
    "wal.recover_ms": ("ms", "lower"),
    "wal.recover_replayed": ("count", "lower"),
    "storage.disk_bytes_per_user_byte": ("ratio", "lower"),
    "ssb.generate_s": ("s", "lower"),
    "storage.cluster_s": ("s", "lower"),
    "harness.prefault_s": ("s", "lower"),
    "harness.ref_kernel_ms": ("ms", "lower"),
    "harness.trace_overhead_pct": ("%", "lower"),
}


def end_to_end_for(workload: str) -> list[str]:
    """The end-to-end metric names ``workload`` reports."""
    return [name for name, spec in END_TO_END.items() if workload in spec[3]]


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must say, derived from the tables above.

    The driver's contract wants every end-to-end metric from every
    workload, so the four that exist only on ``ingest_htap`` are listed
    under ``per_layer`` there (reported as 0 by the other workloads, and
    carrying no driver-side bound); the ledger itself still holds them to
    the bounds above (see NOISE.md).
    """
    shared = {n: s for n, s in END_TO_END.items() if s[3] == ALL}
    partial = {n: s for n, s in END_TO_END.items() if s[3] != ALL}
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": s[0], "better": s[1], "bound": s[2]} for n, s in shared.items()
        ],
        "per_layer": [{"name": n, "unit": s[0], "better": s[1]} for n, s in partial.items()]
        + [{"name": n, "unit": s[0], "better": s[1]} for n, s in PER_LAYER.items()],
    }
