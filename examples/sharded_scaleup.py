"""Process-parallel sharded execution: one query, many worker processes.

The morsel-parallel thread pool (``run_many(workers=N)``) parallelizes
*across* queries and tops out where NumPy holds the GIL; ``shards=N``
parallelizes *within* a query with worker processes instead.  The fact
table's columns are published once into shared memory, each zone-aligned
row range runs the full zone-pruned pipeline in a pooled worker, and the
parent merges the partial aggregates -- answers and profiles
byte-identical to the single-process planes, by construction and by
differential test.

This example runs a few queries both ways, shows the shard counters, and
demonstrates the shared-memory lifecycle (``/dev/shm`` segments appear
while the session lives and vanish on close).

On a single-core container the sharded runs will be *slower* -- process
dispatch with no cores to scale onto; the ledger's ``ssb_sharded`` workload
(``python benchmarks/ledger/run.py --workload ssb_sharded --trace``) splits
a sharded query into dispatch, slowest partial and merge at SF 0.5, where
sharding starts to pay.

Run with::

    python examples/sharded_scaleup.py
"""

from __future__ import annotations

import glob
import os
import time

from repro import QUERIES, Session, generate_ssb
from repro.storage import cluster_by


def shm_segments() -> list:
    return glob.glob("/dev/shm/repro-shm*")


def main() -> None:
    db = cluster_by(generate_ssb(scale_factor=0.05, seed=42), "lineorder", "lo_orderdate")
    fact_rows = db.table("lineorder").num_rows
    print(f"fact rows: {fact_rows:,}; cpus: {os.cpu_count()}")

    with Session(db) as session:
        for name in ("q1.1", "q2.1", "q4.2"):
            query = QUERIES[name]
            start = time.perf_counter()
            plain = session.run(query, cache=False)
            plain_ms = (time.perf_counter() - start) * 1e3

            start = time.perf_counter()
            sharded = session.run(query, shards=4, cache=False)
            sharded_ms = (time.perf_counter() - start) * 1e3

            identical = plain.records == sharded.records
            print(
                f"{name}: single-process {plain_ms:7.2f} ms | shards=4 "
                f"{sharded_ms:7.2f} ms | answers identical: {identical}"
            )

        # The export lives in shared memory for the session's lifetime:
        # one copy per (table, version), mapped by every worker.
        segments = shm_segments()
        print(f"\nshared segments while the session lives: {len(segments)}")

        counters = session.counters()
        print(
            f"shard counters: {counters.shard_queries} queries, "
            f"{counters.shard_tasks} tasks, {counters.shard_fallbacks} fallbacks"
        )

    # Strict unlink discipline: close() tears down the worker pool and
    # unlinks every segment (atexit would catch a forgotten close).
    print(f"shared segments after close: {len(shm_segments())}")


if __name__ == "__main__":
    main()
