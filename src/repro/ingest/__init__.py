"""Streaming ingest: micro-batch appends and standing queries maintained on read.

The storage layer already makes appends atomic and versioned
(:meth:`repro.storage.Table.append` seals a micro-batch off to the side and
publishes it with one tuple flip), and the engine caches invalidate by
``(table, version)`` instead of being wiped.  This package adds the two
pieces that turn those primitives into a streaming path:

* :class:`IngestBuffer` accumulates arriving rows and seals them into
  zone-aligned micro-batches (one :meth:`~repro.storage.Table.append` per
  batch), so zone-map maintenance extends whole sealed zones instead of
  repeatedly re-reducing a ragged tail.

* :class:`StandingQuery` answers a registered aggregate query at the
  current version on every read: a read evaluates the pipeline over only
  the fact rows appended since the previous read and merges that partial
  aggregate into the one it kept -- byte-identical to a from-scratch run
  at every version.

``session.ingest(...)`` only appends; the queries registered via
``session.register_standing(...)`` catch up when they are read.
"""

from repro.ingest.buffer import IngestBuffer
from repro.ingest.standing import StandingQuery

__all__ = ["IngestBuffer", "StandingQuery"]
