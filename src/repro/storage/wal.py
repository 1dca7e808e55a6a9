"""Crash-consistent durability: the write-ahead log and its manager.

Every appended micro-batch lives only in memory until this module gets
involved: a process crash between two queries silently erases every version
the ingest path published.  :class:`DurabilityManager` closes that hole with
the classic two-piece discipline:

* **Write-ahead log** (:class:`WriteAheadLog`): before a
  :meth:`~repro.storage.Table.append` publishes version ``v + 1``, the
  batch -- table name, version, every column's array bytes + dtype +
  encoding, and the dictionary labels of encoded columns -- is serialized
  into one CRC32-checksummed, length-prefixed record and written (and,
  per policy, fsynced) to ``wal.log``.  Only then does the version flip.
* **Checkpoints** (:mod:`repro.storage.checkpoint`): when the log grows
  past a configured threshold, whole published table states are
  snapshotted to a versioned ``checkpoint-<seq>.ckpt`` file (written to a
  ``.tmp`` sibling, fsynced, atomically renamed) and the log drops every
  record the checkpoint already covers.

Recovery (:meth:`DurabilityManager.recover`, surfaced as
``Session.open(durability=...)``) inverts the pipeline: load the newest
*valid* checkpoint (torn or corrupt ones are skipped, orphaned ``.tmp``
files removed), replay the WAL tail in version order (records at or below
a table's restored version are duplicates and replay as no-ops -- version
numbers never skip), and cleanly truncate a torn tail (partial header,
short payload, checksum mismatch) instead of crashing.  The recovered
frontier is *byte-identical* to the pre-crash published state: every
column array, dtype, and dictionary label round-trips exactly, so zone
maps, build artifacts, and standing queries rebuilt over the recovered
data equal their pre-crash counterparts.

Fsync policy (``DurabilityConfig.fsync``):

============  ====================================================
``always``    fsync after every record; an acknowledged append
              survives an OS crash (the strongest, slowest point).
``batch``     fsync every ``batch_every`` records and at every
              checkpoint/close; bounded loss window, much cheaper.
``off``       never fsync; the OS page cache decides.  Survives
              process crashes (the write itself is visible to other
              processes immediately), not kernel/power failures.
============  ====================================================

Fault injection rides through the same sites discipline as the shard plane
(:mod:`repro.faults.plan`): :data:`~repro.faults.WAL_APPEND`,
:data:`~repro.faults.WAL_FSYNC`, and
:data:`~repro.faults.CHECKPOINT_WRITE` arm the session's plan, with the
``torn`` mode writing a *prefix* of the in-flight record before exiting --
the exact tail shape recovery is tested against.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import (
    WAL_APPEND,
    WAL_FSYNC,
    FaultAction,
    TransientFaultError,
    active_fault_plan,
)
from repro.faults.plan import KILL_EXIT_CODE as _KILL_EXIT_CODE
from repro.storage.column import Column
from repro.storage.dictionary import DictionaryEncoder

#: File names inside a durability directory.
WAL_NAME = "wal.log"

#: WAL file header: magic + format version (12 bytes).
WAL_MAGIC = b"REPROWAL"
WAL_FORMAT_VERSION = 1
_WAL_HEADER = WAL_MAGIC + struct.pack("<I", WAL_FORMAT_VERSION)

#: Per-record frame: payload length + CRC32 of the payload.
_RECORD_FRAME = struct.Struct("<II")

#: Sanity ceiling on one record's payload (a length field beyond this is
#: treated as tail corruption, not an allocation request).
MAX_RECORD_BYTES = 1 << 31

#: Fsync policies (see the module docstring's table).
FSYNC_POLICIES = ("always", "batch", "off")

#: Every durability directory any manager in this process has opened --
#: the artifact-leak test guard sweeps these for orphaned ``.tmp`` files.
_KNOWN_DIRS: "set[str]" = set()


def known_durability_dirs() -> "set[str]":
    """Durability directories opened by this process (for leak guards)."""
    return set(_KNOWN_DIRS)


class DurabilityError(RuntimeError):
    """A durability invariant was violated (gap in the log, label drift)."""


@dataclass(frozen=True)
class DurabilityConfig:
    """The durability knobs a :class:`~repro.api.Session` is built with.

    ``dir`` is the one required field: the directory holding ``wal.log``
    and the checkpoint files (created if missing).  ``checkpoint_every``
    (appends) and ``checkpoint_bytes`` (WAL size) arm the threshold
    checkpointer -- whichever trips first; both ``None`` (the default)
    means checkpoints happen only on explicit ``Session.checkpoint()``
    calls.  ``keep_checkpoints`` bounds how many snapshot generations stay
    on disk (older ones are pruned after each successful write; at least
    one is always kept).
    """

    dir: str
    fsync: str = "always"
    batch_every: int = 32
    checkpoint_every: "int | None" = None
    checkpoint_bytes: "int | None" = None
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if not self.dir:
            raise ValueError("DurabilityConfig.dir must be a non-empty path")
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}")
        if self.batch_every < 1:
            raise ValueError(f"batch_every must be >= 1, got {self.batch_every}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.checkpoint_bytes is not None and self.checkpoint_bytes < 1:
            raise ValueError(f"checkpoint_bytes must be >= 1, got {self.checkpoint_bytes}")
        if self.keep_checkpoints < 1:
            raise ValueError(f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}")


@dataclass(frozen=True)
class DurabilityStats:
    """A point-in-time snapshot of the durability plane's bookkeeping."""

    mode: str
    records_logged: int
    bytes_logged: int
    wal_bytes: int
    fsyncs: int
    last_fsync_ms: "float | None"
    total_fsync_ms: float
    checkpoints_written: int
    appends_since_checkpoint: int


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`DurabilityManager.recover` pass found and did."""

    checkpoint_seq: "int | None"
    checkpoint_tables: tuple
    invalid_checkpoints: int
    replayed_records: int
    skipped_records: int
    torn_tail: bool
    dropped_bytes: int
    removed_tmp: tuple
    versions: dict

    @property
    def restored(self) -> bool:
        """Whether recovery changed anything (checkpoint load or replay)."""
        return self.checkpoint_seq is not None or self.replayed_records > 0


# ----------------------------------------------------------------------
# Record codec (shared by the WAL and the checkpoint files)
# ----------------------------------------------------------------------

def frame_chunks(chunks) -> list:
    """The frame of a record given as byte chunks: its header, then the chunks.

    Length and CRC32 are accumulated over the chunks (``bytes`` or ``uint8``
    arrays), so a writer can stream a large record without joining it.
    """
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return [_RECORD_FRAME.pack(sum(len(chunk) for chunk in chunks), crc), *chunks]


def frame_record(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length-prefixed, CRC32-checksummed frame."""
    return b"".join(frame_chunks([payload]))


@dataclass(frozen=True)
class ScanResult:
    """One pass over a record stream: the intact payloads and the tear."""

    payloads: tuple
    good_end: int
    torn: bool
    dropped_bytes: int


def scan_records(buffer: bytes, offset: int = 0) -> ScanResult:
    """Walk frame-by-frame from ``offset``; stop cleanly at the first tear.

    A tear is any of: fewer than 8 frame-header bytes left, a length field
    pointing past the end of the buffer (short write), an absurd length
    (corruption), or a CRC mismatch.  Everything before the tear is intact
    and returned; ``good_end`` is the byte offset recovery truncates to.
    """
    payloads = []
    end = len(buffer)
    while True:
        if offset + _RECORD_FRAME.size > end:
            torn = offset != end
            return ScanResult(tuple(payloads), offset, torn, end - offset)
        length, crc = _RECORD_FRAME.unpack_from(buffer, offset)
        start = offset + _RECORD_FRAME.size
        if length > MAX_RECORD_BYTES or start + length > end:
            return ScanResult(tuple(payloads), offset, True, end - offset)
        payload = buffer[start:start + length]
        if zlib.crc32(payload) != crc:
            return ScanResult(tuple(payloads), offset, True, end - offset)
        payloads.append(payload)
        offset = start + length


def table_payload_chunks(
    table_name: str,
    version: int,
    arrays: "dict[str, np.ndarray]",
    meta: "dict[str, tuple[str, str | None]]",
    labels: "dict[str, list[str]]",
) -> list:
    """One table state (or micro-batch) as the byte chunks of its payload.

    ``arrays`` maps column names to 1-D arrays; ``meta`` carries each
    column's ``(dtype_str, encoding)`` pair; ``labels`` the dictionary
    labels of encoded columns.  Layout: a length-prefixed JSON header
    (column order, dtypes, row count, labels) followed by each column's
    raw little-endian bytes in header order -- self-describing, byte-exact,
    no pickling.  The column chunks are zero-copy ``uint8`` views, so a
    writer that streams them (:func:`repro.storage.checkpoint.write_checkpoint`)
    never holds a second copy of the data.
    """
    names = sorted(arrays)
    rows = int(next(iter(arrays.values())).shape[0]) if arrays else 0
    header = {
        "kind": "table",
        "table": table_name,
        "version": int(version),
        "rows": rows,
        "columns": [[name, meta[name][0], meta[name][1]] for name in names],
        "labels": {name: list(values) for name, values in sorted(labels.items())},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [struct.pack("<I", len(header_bytes)), header_bytes]
    for name in names:
        values = np.ascontiguousarray(arrays[name])
        if values.dtype.str != meta[name][0]:  # pragma: no cover - caller bug guard
            raise DurabilityError(
                f"column {name!r}: array dtype {values.dtype.str} != declared {meta[name][0]}"
            )
        chunks.append(values.view(np.uint8))
    return chunks


def encode_table_payload(table_name, version, arrays, meta, labels) -> bytes:
    """:func:`table_payload_chunks` joined into one record payload (WAL records)."""
    return b"".join(table_payload_chunks(table_name, version, arrays, meta, labels))


def decode_payload_header(payload: bytes) -> dict:
    """The JSON header of a record payload, without touching the arrays."""
    if len(payload) < 4:
        raise DurabilityError("record payload shorter than its header length field")
    (header_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + header_len > len(payload):
        raise DurabilityError("record payload shorter than its declared header")
    return json.loads(bytes(payload[4:4 + header_len]))


def decode_table_payload(payload: bytes) -> "tuple[dict, dict[str, np.ndarray]]":
    """Deserialize a table record payload back into header + column arrays.

    Arrays are copied out of the payload buffer (writable, independent of
    the file bytes), in exactly the dtype they were written with.
    """
    header = decode_payload_header(payload)
    if header.get("kind") != "table":
        raise DurabilityError(f"expected a table record, got kind {header.get('kind')!r}")
    (header_len,) = struct.unpack_from("<I", payload, 0)
    offset = 4 + header_len
    rows = int(header["rows"])
    arrays: "dict[str, np.ndarray]" = {}
    for name, dtype_str, _encoding in header["columns"]:
        dtype = np.dtype(dtype_str)
        nbytes = rows * dtype.itemsize
        if offset + nbytes > len(payload):
            raise DurabilityError(
                f"record for table {header['table']!r} v{header['version']}: column "
                f"{name!r} truncated ({len(payload) - offset} of {nbytes} bytes)"
            )
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=rows, offset=offset).copy()
        offset += nbytes
    if offset != len(payload):
        raise DurabilityError(
            f"record for table {header['table']!r} v{header['version']}: "
            f"{len(payload) - offset} trailing bytes"
        )
    return header, arrays


# ----------------------------------------------------------------------
# The write-ahead log file
# ----------------------------------------------------------------------

class WriteAheadLog:
    """An append-only, checksummed record log with a configurable fsync point.

    Opening the log validates it end to end: a torn tail (from a previous
    crash mid-write) is truncated away immediately, so appends always land
    after the last intact record.  All methods are thread-safe under one
    internal lock; the :data:`~repro.faults.WAL_APPEND` and
    :data:`~repro.faults.WAL_FSYNC` fault sites fire inside it, so an
    injected crash tears the file exactly where a real one would.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "always",
        batch_every: int = 32,
        faults=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.path = path
        self.fsync_policy = fsync
        self.batch_every = batch_every
        #: Zero-arg callable returning the active :class:`FaultPlan` (or
        #: ``None``); injected by the manager so plans ride the session,
        #: with a ContextVar fallback for ad-hoc scopes.
        self._faults = faults if faults is not None else active_fault_plan
        self._lock = threading.Lock()
        self.records_logged = 0
        self.bytes_logged = 0
        self.fsyncs = 0
        self.last_fsync_ms: "float | None" = None
        self.total_fsync_ms = 0.0
        self._since_fsync = 0
        #: What opening found: was the tail torn, and how many bytes went.
        self.opened_torn = False
        self.opened_dropped_bytes = 0
        self._fh = None
        self._open()

    # ------------------------------------------------------------------
    def _open(self) -> None:
        """Open (creating if needed), validate, and truncate a torn tail."""
        fresh = not os.path.exists(self.path)
        if fresh:
            with open(self.path, "wb") as handle:
                handle.write(_WAL_HEADER)
                handle.flush()
                os.fsync(handle.fileno())
        with open(self.path, "rb") as handle:
            data = handle.read()
        if data[: len(_WAL_HEADER)] != _WAL_HEADER:
            # Unrecognized or torn header (including a zero-length file): the
            # log holds nothing recoverable -- restart it cleanly.
            self.opened_torn = len(data) > 0
            self.opened_dropped_bytes = len(data)
            with open(self.path, "wb") as handle:
                handle.write(_WAL_HEADER)
                handle.flush()
                os.fsync(handle.fileno())
            good_end = len(_WAL_HEADER)
        else:
            scan = scan_records(data, len(_WAL_HEADER))
            self.opened_torn = scan.torn
            self.opened_dropped_bytes = scan.dropped_bytes
            good_end = scan.good_end
            if scan.torn:
                with open(self.path, "r+b") as handle:
                    handle.truncate(good_end)
                    handle.flush()
                    os.fsync(handle.fileno())
        self._fh = open(self.path, "r+b")
        self._fh.seek(good_end)

    def close(self) -> None:
        """Flush, fsync, and close (idempotent)."""
        with self._lock:
            if self._fh is None:
                return
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def size(self) -> int:
        """Current on-disk size of the log in bytes."""
        return os.path.getsize(self.path)

    # ------------------------------------------------------------------
    def append(self, payload: bytes) -> int:
        """Frame, write, and (per policy) fsync one record; return its size.

        This is the durability point of :meth:`repro.storage.Table.append`:
        the caller only publishes its version flip after this returns.  The
        ``wal.append`` fault site fires *before* any byte is written (a
        ``kill`` there loses the record whole -- a clean tail), and the
        ``torn`` mode writes half the frame before exiting.
        """
        record = frame_record(payload)
        with self._lock:
            if self._fh is None:
                raise DurabilityError(f"write-ahead log {self.path} is closed")
            self._fire(WAL_APPEND, record)
            self._fh.write(record)
            self.records_logged += 1
            self.bytes_logged += len(record)
            self._since_fsync += 1
            self._maybe_fsync()
        return len(record)

    def sync(self) -> None:
        """Force an fsync now, whatever the policy."""
        with self._lock:
            if self._fh is None:
                return
            self._fsync()

    def _maybe_fsync(self) -> None:
        self._fh.flush()
        if self.fsync_policy == "always":
            self._fsync()
        elif self.fsync_policy == "batch" and self._since_fsync >= self.batch_every:
            self._fsync()

    def _fsync(self) -> None:
        # Timed from before the fault site, so an injected ``latency``
        # fault (a simulated slow disk) shows up in the fsync stats the
        # request traces report.
        started = time.perf_counter()
        self._fire(WAL_FSYNC, None)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.fsyncs += 1
        self.last_fsync_ms = elapsed_ms
        self.total_fsync_ms += elapsed_ms
        self._since_fsync = 0

    def _fire(self, site: str, record: "bytes | None") -> None:
        """Arm the active fault plan at ``site`` and execute what it says."""
        provider = self._faults
        plan = provider() if callable(provider) else provider
        if plan is None:
            return
        action: "FaultAction | None" = plan.arm(site)
        if action is None:
            return
        if action.mode == "latency":
            time.sleep(action.delay_s)
            return
        if action.mode == "raise":
            raise TransientFaultError(f"injected transient fault at {site} (pid {os.getpid()})")
        if action.mode == "torn" and record is not None:
            # The crash shape a power cut leaves: a prefix of the frame on
            # disk, then nothing.  Flush so the bytes actually land before
            # the process disappears.
            cut = max(1, min(len(record) - 1, len(record) // 2))
            self._fh.write(record[:cut])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            os._exit(_KILL_EXIT_CODE)
        # "kill", and "torn" with no record in hand, end the process here.
        os._exit(_KILL_EXIT_CODE)

    # ------------------------------------------------------------------
    def read_payloads(self) -> ScanResult:
        """Re-scan the on-disk log and return every intact record payload."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
        with open(self.path, "rb") as handle:
            data = handle.read()
        if data[: len(_WAL_HEADER)] != _WAL_HEADER:
            return ScanResult((), len(_WAL_HEADER), len(data) > 0, len(data))
        return scan_records(data, len(_WAL_HEADER))

    def rewrite(self, payloads) -> None:
        """Atomically replace the log's contents with ``payloads``.

        The checkpoint path uses this to drop every record a snapshot
        already covers: the survivors are written to a ``.tmp`` sibling,
        fsynced, and renamed over the live log, so a crash mid-truncation
        leaves either the old log (stale records replay as no-ops) or the
        new one -- never a half-written file.
        """
        tmp_path = self.path + ".tmp"
        with self._lock:
            if self._fh is None:
                raise DurabilityError(f"write-ahead log {self.path} is closed")
            self._fh.flush()
            with open(tmp_path, "wb") as handle:
                handle.write(_WAL_HEADER)
                for payload in payloads:
                    handle.write(frame_record(payload))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            _fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            self._fh.close()
            self._fh = open(self.path, "r+b")
            self._fh.seek(0, os.SEEK_END)
            self._since_fsync = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({self.path!r}, fsync={self.fsync_policy!r}, "
            f"records={self.records_logged})"
        )


def _fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it is itself durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# The manager: tables in, WAL records + checkpoints out, recovery back
# ----------------------------------------------------------------------

class DurabilityManager:
    """Owns one durability directory on behalf of one database.

    Construction opens (and validates) the WAL but touches no table;
    :meth:`recover` replays existing durable state into the database and
    :meth:`attach` installs the per-table WAL hook
    (:attr:`repro.storage.Table.wal_sink`) so every subsequent non-empty
    append logs before it publishes.  ``Session`` drives all three in
    order, then calls :meth:`maybe_checkpoint` after each ingest and
    :meth:`close` at teardown.
    """

    def __init__(self, db, config: DurabilityConfig, *, faults=None) -> None:
        self.db = db
        self.config = config
        #: The session's fault plan (may be ``None``); the ContextVar scope
        #: is consulted as a fallback so ``activate_faults`` blocks work too.
        self.faults = faults
        os.makedirs(config.dir, exist_ok=True)
        _KNOWN_DIRS.add(os.path.abspath(config.dir))
        self._wal = WriteAheadLog(
            os.path.join(config.dir, WAL_NAME),
            fsync=config.fsync,
            batch_every=config.batch_every,
            faults=self._plan,
        )
        #: One lock serializes WAL appends against checkpoints, so a
        #: snapshot+truncate pair never races a record write.
        self._lock = threading.Lock()
        self._appends_since_checkpoint = 0
        self.checkpoints_written = 0
        self.last_recovery: "RecoveryReport | None" = None
        self._attached = False

    # ------------------------------------------------------------------
    def _plan(self):
        return self.faults if self.faults is not None else active_fault_plan()

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    def stats(self) -> DurabilityStats:
        wal = self._wal
        return DurabilityStats(
            mode=self.config.fsync,
            records_logged=wal.records_logged,
            bytes_logged=wal.bytes_logged,
            wal_bytes=wal.size(),
            fsyncs=wal.fsyncs,
            last_fsync_ms=wal.last_fsync_ms,
            total_fsync_ms=wal.total_fsync_ms,
            checkpoints_written=self.checkpoints_written,
            appends_since_checkpoint=self._appends_since_checkpoint,
        )

    @property
    def last_fsync_ms(self) -> "float | None":
        """Duration of the most recent WAL fsync (``None`` before the first)."""
        return self._wal.last_fsync_ms

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Install the WAL hook on every (appendable) table (idempotent)."""
        for table in self.db.tables.values():
            if not getattr(table, "_frozen", False):
                table.wal_sink = self.log_append
        self._attached = True

    def detach(self) -> None:
        """Remove the WAL hooks (teardown; appends stop being logged)."""
        for table in self.db.tables.values():
            if getattr(table, "wal_sink", None) is self.log_append:
                table.wal_sink = None
        self._attached = False

    def close(self) -> None:
        """Final fsync, detach hooks, close the log file (idempotent)."""
        self.detach()
        self._wal.close()

    # ------------------------------------------------------------------
    def log_append(self, table, version: int, prepared: "dict[str, np.ndarray]") -> None:
        """The :attr:`Table.wal_sink` body: one record per non-empty append.

        Called by :meth:`Table.append` under the table's own append lock,
        *after* validation/encoding and *before* the version flip -- the
        write-ahead contract.  ``prepared`` holds the batch exactly as it
        will be written (encoded, cast), so replay re-applies it
        byte-for-byte without consulting the encoders.
        """
        meta = {
            name: (column.values.dtype.str, column.encoding)
            for name, column in table.columns.items()
        }
        labels = {
            name: list(table.dictionaries[name].values)
            for name in prepared
            if name in table.dictionaries
        }
        payload = encode_table_payload(table.name, version, prepared, meta, labels)
        with self._lock:
            self._wal.append(payload)
            self._appends_since_checkpoint += 1

    # ------------------------------------------------------------------
    def checkpoint_due(self) -> bool:
        """Whether either checkpoint threshold has tripped."""
        cfg = self.config
        if cfg.checkpoint_every is not None and (
            self._appends_since_checkpoint >= cfg.checkpoint_every
        ):
            return True
        if cfg.checkpoint_bytes is not None and self._wal.size() >= cfg.checkpoint_bytes:
            return True
        return False

    def maybe_checkpoint(self) -> "str | None":
        """Checkpoint if a threshold tripped; returns the new path or None."""
        if not self.checkpoint_due():
            return None
        return self.checkpoint()

    def checkpoint(self) -> str:
        """Snapshot every table's published state and shrink the log.

        Runs under the manager lock, so no WAL record can land between the
        snapshot read and the log rewrite.  A record written by an append
        that has not yet *published* (its version flip races this lock) is
        deliberately kept by the version filter -- its version is newer
        than the snapshot's, so replay applies it.
        """
        from repro.storage.checkpoint import next_checkpoint_seq, prune_checkpoints, write_checkpoint

        with self._lock:
            states = []
            versions: "dict[str, int]" = {}
            for name, table in sorted(self.db.tables.items()):
                version, columns = table._published
                versions[name] = version
                arrays = {cname: column.values for cname, column in columns.items()}
                meta = {
                    cname: (column.values.dtype.str, column.encoding)
                    for cname, column in columns.items()
                }
                labels = {
                    cname: list(table.dictionaries[cname].values)
                    for cname in columns
                    if cname in table.dictionaries
                }
                states.append(table_payload_chunks(name, version, arrays, meta, labels))
            seq = next_checkpoint_seq(self.config.dir)
            path = write_checkpoint(
                self.config.dir, seq, states, versions, faults=self._plan()
            )
            self.checkpoints_written += 1
            self._appends_since_checkpoint = 0
            survivors = [
                payload
                for payload in self._wal.read_payloads().payloads
                if decode_payload_header(payload)["version"]
                > versions.get(decode_payload_header(payload)["table"], -1)
            ]
            self._wal.rewrite(survivors)
            prune_checkpoints(self.config.dir, keep=self.config.keep_checkpoints)
        return path

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Rebuild the durable frontier: checkpoint load + WAL replay.

        Safe to run on a fresh directory (trivial report), after a crash
        (the designed path), and repeatedly (replay of already-applied
        versions is a no-op).  Torn WAL tails were already truncated when
        the log was opened; this pass additionally removes orphaned
        ``.tmp`` files (a checkpoint writer that died mid-write) and skips
        invalid checkpoint generations until it finds one that parses
        clean end-to-end.
        """
        from repro.storage.checkpoint import clean_orphan_tmp, load_latest_checkpoint

        with self._lock:
            removed = clean_orphan_tmp(self.config.dir, keep=self._wal.path + ".tmp")
            checkpoint_seq, states, invalid = load_latest_checkpoint(self.config.dir)
            checkpoint_tables = ()
            if states is not None:
                checkpoint_tables = tuple(sorted(states))
                for name, (version, arrays, meta, labels) in states.items():
                    table = self.db.table(name)
                    columns = {
                        cname: Column(
                            name=cname,
                            values=arrays[cname],
                            device=(
                                table.columns[cname].device
                                if cname in table.columns
                                else _default_device()
                            ),
                            encoding=meta[cname][1],
                        )
                        for cname in arrays
                    }
                    dictionaries = {
                        cname: _encoder_from_labels(values) for cname, values in labels.items()
                    }
                    table.restore_published(version, columns, dictionaries=dictionaries)
            replayed = 0
            skipped = 0
            scan = self._wal.read_payloads()
            for payload in scan.payloads:
                header, arrays = decode_table_payload(payload)
                table = self.db.table(header["table"])
                self._verify_labels(table, header)
                if table.replay_append(header["version"], arrays):
                    replayed += 1
                else:
                    skipped += 1
            report = RecoveryReport(
                checkpoint_seq=checkpoint_seq,
                checkpoint_tables=checkpoint_tables,
                invalid_checkpoints=invalid,
                replayed_records=replayed,
                skipped_records=skipped,
                torn_tail=self._wal.opened_torn,
                dropped_bytes=self._wal.opened_dropped_bytes,
                removed_tmp=tuple(removed),
                versions={name: table.version for name, table in sorted(self.db.tables.items())},
            )
            self.last_recovery = report
        return report

    @staticmethod
    def _verify_labels(table, header: dict) -> None:
        """Replayed dictionary labels must match the table's encoders."""
        for name, recorded in header.get("labels", {}).items():
            encoder = table.dictionaries.get(name)
            current = list(encoder.values) if encoder is not None else None
            if current != list(recorded):
                raise DurabilityError(
                    f"dictionary drift on {table.name}.{name}: the WAL recorded "
                    f"{len(recorded)} labels but the table has "
                    f"{len(current) if current is not None else 'no'} -- the durability "
                    f"directory belongs to a different database lineage"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurabilityManager(dir={self.config.dir!r}, fsync={self.config.fsync!r}, "
            f"records={self._wal.records_logged}, checkpoints={self.checkpoints_written})"
        )


def _encoder_from_labels(labels) -> DictionaryEncoder:
    """Rebuild a dictionary encoder from its persisted label list."""
    encoder = DictionaryEncoder()
    for label in labels:
        encoder.add(label)
    return encoder


def _default_device():
    from repro.hardware.memory import Device

    return Device.CPU
