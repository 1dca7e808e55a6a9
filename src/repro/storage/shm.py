"""The shared-memory plane: zero-copy column export across processes.

Process-parallel sharded execution (:mod:`repro.engine.shard`) escapes the
GIL by running shards of a query in worker *processes*.  Shipping the fact
table to those workers by pickle would copy gigabytes per query; instead
the parent publishes each column (and each bit-packed twin) once into a
POSIX shared-memory segment (``multiprocessing.shared_memory``), and every
worker maps the segments read-only -- the same physical pages, zero copies,
exactly how a production scale-up engine shares its buffer pool.

Two halves live here:

* :class:`SharedMemoryRegistry` -- the **owning** side.  The parent process
  creates segments through the registry, which tracks every one and unlinks
  them all on :meth:`~SharedMemoryRegistry.close` (wired to
  ``Session.close()`` / ``__exit__``) *and* at interpreter exit (atexit), so
  a crashed or lazily-closed session cannot strand segments in
  ``/dev/shm``.  The leak-safety tests in ``tests/test_sharded.py`` create
  and destroy sessions in a loop and assert the directory comes back clean.

* :func:`attach_array` / :func:`attach_table` -- the **borrowing** side.
  Workers attach by segment name and wrap the mapped buffer in a read-only
  ``np.ndarray`` (no copy).  Worker processes spawned or forked from the
  owner share its ``multiprocessing.resource_tracker`` (the tracker fd is
  inherited under both start methods), so an attach's re-registration is a
  set no-op and the owner's unlink performs the single unregister --
  ownership stays with the registry alone, and a worker's exit can never
  tear a segment out from under its siblings.

A :class:`TableExport` is the picklable manifest tying the halves together:
segment specs for every column and packed twin, plus the table's name,
version, and dictionary encoders -- everything
:meth:`repro.storage.table.Table.from_published` needs to reconstruct a
frozen, version-pinned view on the worker side.

Creating a segment starts ``multiprocessing``'s resource tracker, a
helper process that would otherwise outlive the interpreter by a second
or more.  The first registry in a process therefore arranges for the
tracker it started to be stopped at interpreter exit, after every
registry's atexit close has unlinked its segments
(:func:`_stop_own_tracker`), so no process outlives one that used the
shard plane.

Failure handling: segment names embed the owning pid
(``repro-shm-<pid>-<token>-<n>``), and :func:`reap_stale_segments` -- the
**shm janitor**, run by every new registry -- sweeps ``/dev/shm`` for
segments whose owner pid no longer exists and unlinks them, so a
``kill -9``'d owner leaks segments only until the next session starts
instead of until reboot.  Both sides carry fault-injection points
(:data:`~repro.faults.SHM_ATTACH` / :data:`~repro.faults.SHM_EXPORT`)
that are single no-op ContextVar reads unless a
:class:`~repro.faults.FaultPlan` is active.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory, util

import numpy as np

from repro.faults import SHM_ATTACH, SHM_EXPORT, active_fault_plan
from repro.storage.column import Column
from repro.storage.compression import BitPackedColumn
from repro.storage.dictionary import DictionaryEncoder
from repro.storage.table import Table

#: Prefix every registry-owned segment name starts with; the leak tests
#: scan ``/dev/shm`` for it to prove nothing was stranded.
SEGMENT_PREFIX = "repro-shm"

#: Where POSIX shared memory surfaces as files (Linux).  The janitor is a
#: no-op on platforms without it.
SHM_DIR = "/dev/shm"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - e.g. EPERM: alive, not ours
        return True
    return True


def _forget_tracked(name: str) -> None:
    """Drop ``name`` from this process's resource tracker, best-effort.

    ``SharedMemory.unlink`` unregisters only after a *successful*
    ``shm_unlink``; when the name is already gone (an injected unlink
    fault, or the janitor beat us to it) the registration would linger and
    the tracker would warn of a leak at interpreter exit.  Unknown names
    are a harmless no-op.
    """
    try:
        resource_tracker.unregister("/" + name.lstrip("/"), "shared_memory")
    except Exception:  # pragma: no cover - tracker already shut down
        pass


#: How long the exit hook waits for the stopped resource tracker to exit.
TRACKER_STOP_S = 2.0

#: The pid whose exit stops the resource tracker (set by the first registry).
_tracker_stop_pid: int | None = None


def _stop_own_tracker(owner: int) -> None:
    """Stop the resource tracker ``owner`` started, waiting at most
    :data:`TRACKER_STOP_S` for it to exit.

    Closing the tracker's pipe is what ends it; left alone, the pipe closes
    only when the interpreter is gone, and the tracker lingers after it.
    Acts only in ``owner`` (a forked child inherits the tracker, not the
    right to reap it).
    """
    if os.getpid() != owner:
        return
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - already closed
        return
    deadline = time.monotonic() + TRACKER_STOP_S
    while True:
        try:
            reaped, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:  # not our child, or already reaped
            return
        if reaped or time.monotonic() >= deadline:
            return
        time.sleep(0.002)


def _stop_tracker_at_exit() -> None:
    """Arrange, once per process, for :func:`_stop_own_tracker` to run at exit.

    It runs as a ``multiprocessing`` finalizer of the lowest priority: that
    exit pass starts after every registry's atexit close (registered later,
    so run earlier), and runs after the finalizers that may still message
    the tracker (named semaphores unregister themselves there).
    """
    global _tracker_stop_pid
    pid = os.getpid()
    if _tracker_stop_pid != pid:
        _tracker_stop_pid = pid
        util.Finalize(None, _stop_own_tracker, args=(pid,), exitpriority=-100)


def reap_stale_segments(prefix: str = SEGMENT_PREFIX, shm_dir: str = SHM_DIR) -> list[str]:
    """Unlink ``/dev/shm`` segments whose owning process is dead (the janitor).

    Registry segment names embed the owner's pid
    (``<prefix>-<pid>-<token>-<n>``); a segment whose pid no longer exists
    can only be the debris of a crashed owner -- ``kill -9`` skips atexit
    hooks, and POSIX shm persists until reboot otherwise.  Segments of
    live pids (including this process) are never touched, so concurrent
    sessions on one machine stay safe; a recycled pid at worst postpones
    reclamation to a later sweep.  Returns the reclaimed segment names.
    """
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    marker = f"{prefix}-"
    own = os.getpid()
    reclaimed: list[str] = []
    for name in sorted(os.listdir(shm_dir)):
        if not name.startswith(marker):
            continue
        pid_text = name[len(marker):].split("-", 1)[0]
        if not pid_text.isdigit():
            continue
        pid = int(pid_text)
        if pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:  # pragma: no cover - raced another janitor
            continue
        _forget_tracked(name)
        reclaimed.append(name)
    return reclaimed


@dataclass(frozen=True)
class ShmArraySpec:
    """Where (and how) one array lives in shared memory.

    ``segment`` names the POSIX segment; ``dtype``/``shape`` reconstruct
    the ndarray view over its buffer.  Specs are small frozen values, so
    they pickle to workers for free.
    """

    segment: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


class SharedMemoryRegistry:
    """Owner of a set of shared-memory segments, with unlink discipline.

    Every segment created through :meth:`share_array` is tracked; ``close``
    closes *and unlinks* them all, idempotently.  Construction registers an
    atexit hook so segments cannot outlive the interpreter even if the
    owner forgets to close -- the hook unregisters itself once ``close``
    has run, keeping the atexit table from growing across short-lived
    registries (the session-churn leak test).  Against the failure mode no
    hook survives (``kill -9``), segment names embed the owning pid and
    construction runs the :func:`reap_stale_segments` janitor, so each new
    registry reclaims whatever a crashed predecessor stranded.
    """

    def __init__(self, prefix: str | None = None, *, janitor: bool = True) -> None:
        self._prefix = prefix or f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        if janitor:
            try:
                reap_stale_segments()
            except OSError:  # pragma: no cover - unreadable shm dir
                pass
        _stop_tracker_at_exit()
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def share_array(self, array: np.ndarray) -> ShmArraySpec:
        """Copy ``array`` into a fresh segment and return its spec.

        The one copy in the whole plane: the column's bytes move into the
        shared mapping here, once per ``(table, version)``, and every
        worker (and every later query) reads those very pages.  Empty
        arrays get a 1-byte segment (POSIX shm refuses zero-size maps).
        """
        plan = active_fault_plan()
        if plan is not None:
            plan.fire(SHM_EXPORT)
        array = np.ascontiguousarray(array)
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedMemoryRegistry is closed; cannot share new arrays")
            name = f"{self._prefix}-{next(self._counter)}"
            segment = shared_memory.SharedMemory(name=name, create=True, size=max(int(array.nbytes), 1))
            self._segments[segment.name] = segment
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        return ShmArraySpec(segment=segment.name, dtype=array.dtype.str, shape=tuple(array.shape))

    @property
    def num_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def closed(self) -> bool:
        return self._closed

    def release(self, names) -> None:
        """Close and unlink a subset of owned segments (by segment name).

        Used when a table re-exports at a newer version: the old version's
        segments are released eagerly instead of waiting for ``close``.
        Unknown names are ignored (already released, or never owned).
        """
        with self._lock:
            released = [self._segments.pop(name) for name in names if name in self._segments]
        for segment in released:
            self._unlink(segment)

    @staticmethod
    def _unlink(segment: shared_memory.SharedMemory) -> None:
        """Close + unlink one owned segment, tolerating it already being gone.

        A name can vanish under the owner (an injected unlink fault, a
        janitor in another process); the unlink is then a no-op, but the
        resource tracker must still forget the registration or it warns of
        a leak at interpreter exit.
        """
        name = segment.name
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            _forget_tracked(name)

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments, self._segments = self._segments, {}
        for segment in segments.values():
            self._unlink(segment)
        atexit.unregister(self.close)

    def __enter__(self) -> "SharedMemoryRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedMemoryRegistry({self._prefix!r}, segments={self.num_segments}, closed={self._closed})"


# ----------------------------------------------------------------------
# Borrowing side (workers)
# ----------------------------------------------------------------------


def attach_array(
    spec: ShmArraySpec, segments: dict[str, shared_memory.SharedMemory]
) -> np.ndarray:
    """Map ``spec``'s segment and return a read-only ndarray over it.

    ``segments`` is the caller's keep-alive cache: the returned array
    borrows the mapping's buffer, so the :class:`SharedMemory` handle must
    outlive it -- workers hold one process-global dict for the life of the
    process.  No resource-tracker bookkeeping happens here: pool workers
    share the owner's tracker (fd inherited under fork and spawn alike),
    so the attach's implicit re-register is a set no-op and unlink rights
    remain with the owning registry.
    """
    plan = active_fault_plan()
    if plan is not None:
        # An ``unlink`` fault here tears the name down *before* the map, so
        # the attach observes exactly what a crashed owner leaves behind.
        plan.fire(SHM_ATTACH, segment=spec.segment)
    segment = segments.get(spec.segment)
    if segment is None:
        segment = shared_memory.SharedMemory(name=spec.segment)
        segments[spec.segment] = segment
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    array.setflags(write=False)
    return array


# ----------------------------------------------------------------------
# Table manifests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnExport:
    """One column's segment spec plus the metadata Column carries."""

    spec: ShmArraySpec
    encoding: str | None


@dataclass(frozen=True)
class PackedExport:
    """One bit-packed twin's word array plus its decode parameters."""

    words: ShmArraySpec
    bit_width: int
    num_values: int


@dataclass(frozen=True)
class TableExport:
    """A picklable manifest of one frozen table published to shared memory.

    Carries everything a worker needs to reconstruct a read-only,
    version-pinned :class:`~repro.storage.table.Table` over the shared
    pages: per-column segment specs, the bit-packed twins the parent had
    materialized (``None`` marks a column whose domain does not pack, so
    workers never re-derive eligibility), and the dictionary encoders for
    predicate-constant resolution.
    """

    name: str
    version: int
    num_rows: int
    columns: tuple[tuple[str, ColumnExport], ...]
    packed: tuple[tuple[str, PackedExport | None], ...] = ()
    dictionaries: dict[str, DictionaryEncoder] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Shared bytes the manifest points at (columns + packed twins)."""
        total = sum(export.spec.nbytes for _, export in self.columns)
        total += sum(export.words.nbytes for _, export in self.packed if export is not None)
        return total


def export_table(
    registry: SharedMemoryRegistry,
    table: Table,
    packed: "dict[str, BitPackedColumn | None] | None" = None,
) -> TableExport:
    """Publish ``table``'s columns (and ``packed`` twins) through ``registry``.

    ``table`` should be a frozen snapshot so the manifest's version and the
    shared bytes cannot disagree.  ``packed`` maps column name to its
    bit-packed twin or ``None`` (ineligible); omitted columns simply have
    no twin on the worker side.
    """
    columns = tuple(
        (name, ColumnExport(spec=registry.share_array(column.values), encoding=column.encoding))
        for name, column in table.columns.items()
    )
    packed_exports: list[tuple[str, PackedExport | None]] = []
    for name, twin in (packed or {}).items():
        if twin is None:
            packed_exports.append((name, None))
        else:
            packed_exports.append(
                (
                    name,
                    PackedExport(
                        words=registry.share_array(twin.packed),
                        bit_width=twin.bit_width,
                        num_values=twin.num_values,
                    ),
                )
            )
    return TableExport(
        name=table.name,
        version=getattr(table, "version", 0),
        num_rows=table.num_rows,
        columns=columns,
        packed=tuple(packed_exports),
        dictionaries=dict(table.dictionaries),
    )


def attach_table(
    export: TableExport, segments: dict[str, shared_memory.SharedMemory]
) -> "tuple[Table, dict[str, BitPackedColumn | None]]":
    """Reconstruct the exported table (and twins) over shared pages.

    Returns ``(table, packed)``: a frozen
    :meth:`~repro.storage.table.Table.from_published` view whose column
    arrays alias the shared segments read-only, and the packed-twin mapping
    (``None`` entries preserved, so callers can pre-populate a worker's
    zone maps and skip eligibility re-derivation entirely).
    """
    columns = {
        name: Column(name=name, values=attach_array(item.spec, segments), encoding=item.encoding)
        for name, item in export.columns
    }
    packed: dict[str, BitPackedColumn | None] = {}
    for name, item in export.packed:
        if item is None:
            packed[name] = None
        else:
            packed[name] = BitPackedColumn(
                name=name,
                packed=attach_array(item.words, segments),
                bit_width=item.bit_width,
                num_values=item.num_values,
            )
    table = Table.from_published(
        export.name, export.version, columns, dictionaries=export.dictionaries
    )
    return table, packed
