"""Streaming ingest & standing queries: a live dashboard over micro-batches.

The streaming story, end to end:

1. **Ingest** -- stage arriving lineorder rows in an
   :class:`~repro.ingest.IngestBuffer`, which seals them into zone-aligned
   micro-batches and publishes each batch atomically (readers see whole
   sealed versions, never a torn batch).
2. **Maintain** -- register the dashboard's queries as standing queries on
   the :class:`~repro.api.Session`.  An append does no work for them: each
   read evaluates the pipeline over only the rows sealed since the previous
   read and merges grouped partials, instead of recomputing from scratch.
3. **Trust** -- after every arrival, assert that sealing moved no
   build-cache counter (appends do no view work), cross-check a sample
   standing answer against a full from-scratch re-evaluation
   (byte-identical, by construction), and read the cache counters to see
   that the work was proportional to the delta: zone maps *extended*
   rather than rebuilt, unchanged dimension build artifacts *hit* rather
   than rebuilt.

Run with::

    python examples/streaming_dashboard.py [scale_factor]
"""

from __future__ import annotations

import sys

from repro.api import Session
from repro.engine.plan import execute_query_monolithic
from repro.ingest import IngestBuffer
from repro.ssb import QUERIES, generate_lineorder_batch, generate_ssb

DASHBOARD = ["q1.1", "q2.1", "q3.1", "q4.1"]  # one query per SSB flight


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    db = generate_ssb(scale_factor=scale_factor, seed=42)
    session = Session(db)
    fact = db.table("lineorder")
    print(f"SSB at SF {scale_factor:g}: {fact.num_rows} fact rows, version {fact.version}\n")

    # Register the dashboard. Each handle is evaluated once in full here;
    # every later read folds in only the rows sealed since the one before.
    standing = {name: session.register_standing(QUERIES[name]) for name in DASHBOARD}

    # Arrivals stage into the buffer; each sealed zone-aligned batch bumps
    # the fact table's version -- and that is all it does.
    buffer = IngestBuffer(fact)

    for tick in range(1, 4):
        print(f"tick {tick}: 6000 rows arrive")
        builds = session.cache_info("builds")
        versions = buffer.add(generate_lineorder_batch(db, 6000, seed=100 + tick))
        assert session.cache_info("builds") == builds, "an append did view work"
        print(f"  sealed -> versions {versions}; staged (unsealed) rows waiting: {buffer.staged_rows}")

        # Reading the dashboard folds the sealed rows in -- show one
        # flight's answer and prove it equals a from-scratch run.
        reference, _ = execute_query_monolithic(db, QUERIES["q2.1"])
        answer = standing["q2.1"].answer()
        assert answer == reference, "differential guarantee violated"
        print(f"  q2.1 at lineorder version {fact.version}: first groups {sorted(answer.items())[:3]}")

        # Ad-hoc reads through the session see the same sealed version and
        # keep their zone maps by extension, not a rebuild.
        session.run(QUERIES["q1.1"])

    # The work was delta-proportional: zone maps extended (not rebuilt),
    # and the dimension artifacts -- one per distinct build, shared by the
    # standing queries and the ad-hoc reads -- kept hitting.
    zones = session.cache_info("zones")
    builds = session.cache_info("builds")
    print(f"\nzone maps: {zones.extended} extensions, {zones.misses} builds")
    print(f"session build cache: {builds.hits} hits / {builds.misses} misses")
    print(f"table versions: {session.table_versions()}")


if __name__ == "__main__":
    main()
