"""Tables: named collections of equal-length columns, with versioned appends.

A table's data is published as one immutable ``(version, columns)`` tuple:
readers take a :meth:`Table.snapshot` (a single atomic read of the tuple)
and work against a frozen view.  The columns of an appendable table are
*prefix views* of over-allocated buffers the table itself owns, and **a
version is a length**: :meth:`Table.append` writes the batch into each
buffer's spare tail and then publishes the longer views with one atomic
tuple flip under the per-table append lock.  A reader therefore never
observes a torn micro-batch -- it either sees all of version ``v`` or all of
``v + 1``, the columns of one snapshot are always mutually consistent
lengths, and an append costs the batch, not the table.  Three invariants
carry that:

* **Rows beyond the published length are invisible.**  No published view
  covers ``buf[n:]``, so the writer may fill it while readers hold
  ``buf[:n]``; an older snapshot keeps its shorter view of the same memory
  (zero copy), and when a full buffer is replaced its old readers keep the
  old one alive through their views.
* **Arrays a table did not allocate are never written.**  The arrays a
  table was constructed over (or restored from) may be shared -- with the
  caller, another table, a shared-memory export -- so the first append
  copies them once into a buffer of the table's own.
* **Ownership is per** :class:`Table` **and explicit** (``_buffers``, under
  the append lock; never inferred from ``ndarray.base``).  A snapshot, a
  :meth:`Table.from_published` view and a second table built over the same
  :class:`Column` objects own nothing; :meth:`Table.restore_published` and
  :meth:`Table.add_column` replace columns and so reset it.

``version`` increases monotonically with every non-empty append, which is
what the engine caches key invalidation on: execution memo entries, build
artifacts, and zone maps are all keyed by ``(table, version)`` so an append
invalidates exactly the artifacts whose inputs changed
(:mod:`repro.engine.cache`).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.hardware.memory import Device
from repro.storage.column import Column
from repro.storage.dictionary import DictionaryEncoder


#: Spare capacity of a freshly allocated column buffer, as a divisor of the
#: rows it must hold: ``rows + rows // 4``.  A reallocation copies the whole
#: prefix, but only after ``rows / 4`` further rows were appended in place,
#: so growth costs an amortised ``1 / slack`` = 4 row-copies per appended row
#: -- against ``table_rows / batch_rows`` (300-780 on the ledger's
#: ``ingest_htap``) when every batch rebuilt the table.  Classical doubling
#: would halve that again but hold up to 2x the table between appends and
#: 3x while a reallocation is in flight: its first buffer alone (2 x 52 MB
#: on ``ingest_htap``) tops the two whole versions the copying append kept
#: alive (100 MB), where 25 % slack holds 1.25x (65 MB) between appends and
#: old + 1.25x only during the one reallocation per 25 % of growth.
SPARE_ROWS_DIVISOR = 4


class Table:
    """A columnar table.

    Columns are stored by name; all columns must have the same length.
    Dictionary encoders for encoded string columns are kept alongside so
    predicates can be rewritten and results decoded.

    Construction (``add_column`` / ``add_encoded_column``) mutates the
    current column dict in place and is a single-threaded setup activity,
    exactly as before.  Once a table serves concurrent readers, the only
    legal mutation is :meth:`append`, which publishes a whole new
    ``(version, columns)`` state atomically.
    """

    def __init__(
        self,
        name: str,
        columns: dict[str, Column] | None = None,
        dictionaries: dict[str, DictionaryEncoder] | None = None,
    ) -> None:
        self.name = name
        self.dictionaries = dictionaries if dictionaries is not None else {}
        #: The single published state: ``(version, columns)``.  Read it once
        #: to get a consistent view; never mutate a published dict after a
        #: concurrent reader may hold it (append builds a fresh dict).
        self._published: tuple[int, dict[str, Column]] = (0, columns if columns is not None else {})
        self._append_lock = threading.Lock()
        #: Column name -> the over-allocated buffer *this table allocated*
        #: and whose prefix the published column is (see the module
        #: docstring).  Guarded by ``_append_lock``; empty until the first
        #: append, and again whenever the columns are replaced wholesale.
        self._buffers: dict[str, np.ndarray] = {}
        self._frozen = False
        #: Durability hook: when set (by
        #: :class:`repro.storage.wal.DurabilityManager`), every non-empty
        #: append calls ``wal_sink(table, new_version, prepared_arrays)``
        #: *before* publishing -- the write-ahead contract.  Empty batches
        #: never reach it, so log records and version bumps stay 1:1.
        self.wal_sink = None

    # ------------------------------------------------------------------
    @property
    def columns(self) -> dict[str, Column]:
        """The published column dict (one atomic read of the state tuple)."""
        return self._published[1]

    @property
    def version(self) -> int:
        """Monotonic data version; bumped by every non-empty :meth:`append`."""
        return self._published[0]

    def snapshot(self) -> "Table":
        """A frozen read view of the table's current published state.

        The snapshot shares the column arrays and dictionaries with the
        source (zero copy) but pins one ``(version, columns)`` pair, so a
        query that captured it keeps seeing mutually consistent columns even
        while appends publish newer versions.  Snapshots refuse
        :meth:`append`; snapshotting a snapshot returns it unchanged.
        """
        if self._frozen:
            return self
        # ``self._published`` is read exactly once: the pair is consistent.
        return self._frozen_view(self.name, self._published, self.dictionaries)

    @classmethod
    def from_published(
        cls,
        name: str,
        version: int,
        columns: dict[str, Column],
        dictionaries: dict[str, DictionaryEncoder] | None = None,
    ) -> "Table":
        """Reconstruct a frozen table around an already-published state.

        The cross-process counterpart of :meth:`snapshot`: a worker that
        attached a table's columns from shared memory
        (:mod:`repro.storage.shm`) rebuilds the same frozen,
        version-pinned view the parent exported, so version-keyed caches
        (zone maps, build artifacts) agree across the process boundary.
        """
        return cls._frozen_view(name, (version, dict(columns)), dictionaries)

    @classmethod
    def _frozen_view(cls, name: str, published: tuple, dictionaries) -> "Table":
        """A read-only table pinned to one ``published`` tuple; it owns no buffer."""
        view = cls(name, dictionaries=dictionaries)
        view._published = published
        view._frozen = True
        return view

    @classmethod
    def from_arrays(cls, name: str, arrays: dict[str, np.ndarray]) -> "Table":
        """Build a table from a mapping of column name to array."""
        table = cls(name=name)
        for column_name, values in arrays.items():
            table.add_column(Column(name=column_name, values=values))
        return table

    def add_column(self, column: Column) -> None:
        """Add a column, enforcing length consistency."""
        if self.columns and len(column) != self.num_rows:
            raise ValueError(
                f"column {column.name!r} has {len(column)} rows, table {self.name!r} "
                f"has {self.num_rows}"
            )
        self.columns[column.name] = column
        self._buffers = {}  # setup-time mutation: the next append re-owns every column

    def add_encoded_column(
        self, name: str, raw_values, device: Device = Device.CPU, domain=None
    ) -> DictionaryEncoder:
        """Dictionary encode ``raw_values`` and store them as an int32 column.

        ``domain`` optionally supplies the full value domain for the
        dictionary; passing it keeps predicate constants resolvable even when
        a small generated sample does not contain every domain value.
        """
        encoder = DictionaryEncoder.from_values(domain if domain is not None else raw_values)
        codes = encoder.encode(raw_values)
        self.add_column(Column(name=name, values=codes, device=device, encoding="dictionary"))
        self.dictionaries[name] = encoder
        return encoder

    # ------------------------------------------------------------------
    def append(self, arrays: dict) -> int:
        """Append one micro-batch of rows and publish it atomically.

        ``arrays`` maps *every* column name to an equal-length 1-D array of
        new values.  String values for dictionary-encoded columns are
        encoded through the table's existing encoder (unknown labels raise,
        like predicate constants do); numeric values are cast to the stored
        dtype with a losslessness check, so an overflowing append fails
        instead of silently wrapping.

        The batch is written into the spare tail of each column's
        table-owned buffer -- rows no published view covers -- and then
        published as longer prefix views with a single ``(version + 1,
        columns)`` tuple flip, so a concurrent :meth:`snapshot` sees either
        the old state or the new one, never a mix, and the cost is the
        batch's, not the table's.  The first append onto arrays the table
        did not allocate, and any append that outgrows the spare tail,
        copies the published prefix once into a new buffer
        (:data:`SPARE_ROWS_DIVISOR`).  Returns the new version (the old
        one for an empty batch, which publishes nothing).
        """
        if self._frozen:
            raise ValueError(f"table {self.name!r} is a frozen snapshot; append to the source table")
        with self._append_lock:
            version, columns = self._published
            if not columns:
                raise ValueError(f"cannot append to table {self.name!r}: it has no columns yet")
            given, have = set(arrays), set(columns)
            if given != have:
                missing, extra = sorted(have - given), sorted(given - have)
                raise ValueError(
                    f"append to table {self.name!r} must supply every column exactly once"
                    + (f"; missing {missing}" if missing else "")
                    + (f"; unknown {extra}" if extra else "")
                )
            prepared: dict[str, np.ndarray] = {}
            batch_rows = None
            for name, column in columns.items():
                incoming = np.asarray(arrays[name])
                if incoming.dtype.kind in ("U", "S", "O"):
                    if name not in self.dictionaries:
                        raise TypeError(
                            f"column {name!r} of table {self.name!r} is not dictionary encoded; "
                            f"append numeric values"
                        )
                    incoming = self.dictionaries[name].encode(incoming)
                if incoming.ndim != 1:
                    raise ValueError(f"append values for column {name!r} must be 1-D")
                if batch_rows is None:
                    batch_rows = int(incoming.shape[0])
                elif int(incoming.shape[0]) != batch_rows:
                    raise ValueError(
                        f"ragged append to table {self.name!r}: column {name!r} has "
                        f"{incoming.shape[0]} rows, expected {batch_rows}"
                    )
                if incoming.dtype != column.values.dtype:
                    with np.errstate(invalid="ignore", over="ignore"):
                        cast = incoming.astype(column.values.dtype)
                    if not np.array_equal(cast, incoming, equal_nan=cast.dtype.kind == "f"):
                        raise ValueError(
                            f"append values for column {name!r} do not fit dtype "
                            f"{column.values.dtype} losslessly"
                        )
                    incoming = cast
                prepared[name] = incoming
            if not batch_rows:
                # Empty batch: no version bump, and deliberately no WAL
                # record either -- replaying the log must bump versions
                # exactly as the original appends did, never skip.
                return version
            if self.wal_sink is not None:
                # Write-ahead: the record must be durable (per the
                # configured fsync policy) before the version flip below
                # makes the batch visible.  A failure here (injected or
                # real) aborts the append with nothing published.
                self.wal_sink(self, version + 1, prepared)
            self._publish_grown(version + 1, columns, prepared)
            return version + 1

    # ------------------------------------------------------------------
    def replay_append(self, version: int, arrays: dict) -> bool:
        """Re-apply one WAL record during recovery; return whether it applied.

        ``arrays`` are the *prepared* batch exactly as logged (already
        dictionary-encoded, already cast), so this bypasses the encoders
        and writes them byte-for-byte through the same growth helper as
        :meth:`append`.  Records at or below the current version are
        duplicates -- a checkpoint already covers them, or a crash
        interrupted the log truncation -- and replay as no-ops, so version
        numbers never skip across recovery.  A gap (record version more
        than one ahead) means the log is from a different lineage and is an
        error, not data.
        """
        if self._frozen:
            raise ValueError(f"table {self.name!r} is a frozen snapshot; cannot replay into it")
        with self._append_lock:
            current, columns = self._published
            if version <= current:
                return False
            if version != current + 1:
                raise ValueError(
                    f"replay gap on table {self.name!r}: log record is version {version} "
                    f"but the table is at {current}"
                )
            if set(arrays) != set(columns):
                raise ValueError(
                    f"replay record for table {self.name!r} has columns {sorted(arrays)}, "
                    f"table has {sorted(columns)}"
                )
            self._publish_grown(version, columns, arrays)
            return True

    def _publish_grown(self, version: int, columns: dict[str, Column], batch: dict) -> None:
        """Write ``batch`` into every column's spare tail; publish ``version``.

        Caller holds ``_append_lock`` and passes a prepared batch (every
        column, equal lengths, stored dtype).  A column whose buffer this
        table does not own yet, or whose spare tail is too short, gets one
        new buffer with :data:`SPARE_ROWS_DIVISOR` slack and its published
        prefix copied once; otherwise only ``buf[n:grown]`` is touched,
        which no published view covers.  The single tuple flip at the end
        is the only moment readers can see any of it.
        """
        n = len(next(iter(columns.values())))
        grown = n + len(next(iter(batch.values())))
        new_columns = {}
        for name, column in columns.items():
            buf = self._buffers.get(name)
            if buf is None or grown > buf.shape[0]:
                buf = np.empty(grown + grown // SPARE_ROWS_DIVISOR, dtype=column.values.dtype)
                buf[:n] = column.values
                self._buffers[name] = buf
            buf[n:grown] = batch[name]
            new_columns[name] = Column(
                name=name, values=buf[:grown], device=column.device, encoding=column.encoding
            )
        # Seal-then-publish: the grown state becomes visible in one atomic
        # assignment, and only after every column is complete.
        self._published = (version, new_columns)

    def restore_published(
        self,
        version: int,
        columns: dict[str, Column],
        dictionaries: dict[str, DictionaryEncoder] | None = None,
    ) -> None:
        """Replace the published state wholesale (checkpoint restore).

        Unlike :meth:`append` this may move the version *backwards* in the
        in-memory sense -- recovery installs the checkpointed frontier and
        then replays the WAL tail forward.  ``dictionaries`` (when given)
        are copied *into* the existing encoder objects in place, because
        snapshots and the session's caches share those objects by identity.
        """
        if self._frozen:
            raise ValueError(f"table {self.name!r} is a frozen snapshot; cannot restore into it")
        with self._append_lock:
            if dictionaries:
                for name, restored in dictionaries.items():
                    existing = self.dictionaries.get(name)
                    if existing is None:
                        self.dictionaries[name] = restored
                    elif list(existing.values) != list(restored.values):
                        existing.values.clear()
                        existing._code_of.clear()
                        for label in restored.values:
                            existing.add(label)
            self._published = (int(version), dict(columns))
            self._buffers = {}  # the restored arrays are the caller's, not ours

    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Look up a column by name, with a helpful error message."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; available: {sorted(self.columns)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        """The raw values of a column (shorthand used by the operators)."""
        return self.column(name).values

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    @property
    def num_rows(self) -> int:
        columns = self.columns
        if not columns:
            return 0
        return len(next(iter(columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def nbytes(self) -> int:
        """Total bytes across all columns."""
        return sum(column.nbytes for column in self.columns.values())

    def column_names(self) -> list[str]:
        return list(self.columns)

    def select_rows(self, mask_or_indices) -> "Table":
        """Materialize a row subset into a new table (used by tests/examples)."""
        result = Table(name=f"{self.name}_subset", dictionaries=dict(self.dictionaries))
        for name, column in self.columns.items():
            result.add_column(
                Column(
                    name=name,
                    values=column.values[mask_or_indices],
                    device=column.device,
                    encoding=column.encoding,
                )
            )
        return result

    def to_device(self, device: Device) -> "Table":
        """Return a table whose columns are marked resident on ``device``."""
        result = Table(name=self.name, dictionaries=dict(self.dictionaries))
        for column in self.columns.values():
            result.add_column(column.to_device(device))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self.num_rows}, columns={self.column_names()})"
