"""Zone-aligned micro-batch buffering for streaming appends.

Rows can arrive in any chunk size; what the storage layer wants is appends
whose batches align with the zone-map geometry, so that every sealed batch
turns into whole zones whose statistics are reduced exactly once and then
carried forward verbatim by :meth:`~repro.storage.zonemap.ColumnZoneStats.
extend`.  :class:`IngestBuffer` does that impedance matching: it stages
arriving chunks and seals one :meth:`~repro.storage.Table.append` per
``batch_rows`` accumulated, leaving any remainder staged until the next
arrival (or an explicit :meth:`flush`, which seals a partial batch).

Durability note: the buffer seals through the ordinary ``Table.append``
path, so when the owning session was opened with
``durability=DurabilityConfig(...)`` every sealed batch is written (and,
per policy, fsynced) to the write-ahead log *before* its version
publishes -- sealed means durable, while rows still staged in the buffer
are not yet: a crash loses at most the unsealed remainder, never a
published version.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.storage.table import Table
from repro.storage.zonemap import DEFAULT_ZONE_SIZE


class IngestBuffer:
    """Stages arriving rows and seals them into zone-aligned micro-batches.

    A batch is one zone of rows (4096), so every sealed batch adds exactly
    one zone.  A sealed batch is one ordinary append: standing queries and
    cached answers fold it in on their next read.

    Thread-safe: concurrent :meth:`add` calls interleave whole chunks (a
    chunk's rows are never split across *interleaved* writers, though one
    chunk may span two sealed batches).
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self.batch_rows = DEFAULT_ZONE_SIZE
        self._lock = threading.Lock()
        self._chunks: "list[dict[str, np.ndarray]]" = []
        self._staged_rows = 0
        #: Batches sealed (appends published) over the buffer's lifetime.
        self.sealed_batches = 0
        #: Rows published over the buffer's lifetime (excludes staged rows).
        self.sealed_rows = 0

    # ------------------------------------------------------------------
    @property
    def staged_rows(self) -> int:
        """Rows accepted but not yet sealed into a published batch."""
        with self._lock:
            return self._staged_rows

    def add(self, arrays: "dict[str, np.ndarray | Sequence]") -> list[int]:
        """Stage one chunk of rows; seal every full batch it completes.

        ``arrays`` maps every column of the table to equal-length values
        (validation and string encoding are delegated to
        :meth:`Table.append` at seal time; the column-name set and chunk
        raggedness are checked here so bad chunks fail fast, before they
        are mixed with good ones).  Returns the versions published by the
        batches this chunk sealed -- usually ``[]`` (still accumulating)
        or one version; a chunk larger than ``batch_rows`` can seal
        several.
        """
        chunk = {name: np.asarray(values) for name, values in arrays.items()}
        if set(chunk) != set(self.table.columns):
            missing = sorted(set(self.table.columns) - set(chunk))
            extra = sorted(set(chunk) - set(self.table.columns))
            raise ValueError(
                f"ingest chunk for table {self.table.name!r} must supply every column"
                + (f"; missing {missing}" if missing else "")
                + (f"; unknown {extra}" if extra else "")
            )
        lengths = {int(values.shape[0]) for values in chunk.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged ingest chunk for table {self.table.name!r}: lengths {sorted(lengths)}")
        rows = lengths.pop() if lengths else 0
        if rows == 0:
            return []

        sealed: list[int] = []
        while True:
            with self._lock:
                if chunk is not None:
                    self._chunks.append(chunk)
                    self._staged_rows += rows
                    chunk = None
                if self._staged_rows < self.batch_rows:
                    break
                batch = self._take(self.batch_rows)
            sealed.append(self._seal(batch, self.batch_rows))
        return sealed

    def flush(self) -> "int | None":
        """Seal whatever is staged as one final (possibly partial) batch.

        Returns the published version, or ``None`` if nothing was staged.
        The batch may be smaller than ``batch_rows`` -- its rows land in a
        partial tail zone, which zone-map maintenance re-reduces on the
        next extension.
        """
        with self._lock:
            rows = self._staged_rows
            if rows == 0:
                return None
            batch = self._take(rows)
        return self._seal(batch, rows)

    # ------------------------------------------------------------------
    def _take(self, rows: int) -> "dict[str, np.ndarray]":
        """Remove exactly ``rows`` staged rows (caller holds the lock)."""
        merged = {
            name: np.concatenate([chunk[name] for chunk in self._chunks])
            for name in self._chunks[0]
        }
        batch = {name: values[:rows] for name, values in merged.items()}
        remainder = {name: values[rows:] for name, values in merged.items()}
        leftover = int(next(iter(remainder.values())).shape[0])
        self._chunks = [remainder] if leftover else []
        self._staged_rows = leftover
        return batch

    def _seal(self, batch: "dict[str, np.ndarray]", rows: int) -> int:
        version = self.table.append(batch)
        self.sealed_batches += 1
        self.sealed_rows += rows
        return version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IngestBuffer({self.table.name!r}, batch_rows={self.batch_rows}, "
            f"staged={self.staged_rows}, sealed={self.sealed_batches})"
        )
