"""Crash-consistent durability: WAL, checkpoints, and byte-identical recovery.

The headline suite is differential crash testing: a child process opens a
durable session over a deterministically generated SSB database, ingests
micro-batches until an armed fault plan kills it mid-append (``kill`` --
nothing of the in-flight record lands -- and ``torn`` -- half the record
lands, a power-cut tail), under both ``fork`` and ``spawn`` start methods.
The parent then reopens the directory with ``Session.open`` and asserts
the recovered version frontier is *byte-identical* to an uncrashed
reference session that ingested the same prefix: every column array,
dtype, dictionary, all 13 SSB query answers, and the standing-query
answers rebuilt over the recovered data.

Around it: WAL record codec round-trips, torn-tail truncation at every
corruption shape (short header, short payload, bad checksum, truncated
file), checkpoint validity rules (torn checkpoint skipped, orphaned
``.tmp`` swept), the recovery edge cases (zero-length WAL, checkpoint with
no WAL, WAL with no checkpoint, interleaved fact/dimension appends), a
property-style sweep of seeded truncation offsets (every crash point
recovers to *some* valid published prefix), the empty-append regression
(no record, no version bump, never a skip), and the serving-layer contract
(``QueryService.ingest`` acknowledges only after the durability point and
stamps the trace with the mode and fsync latency).

The session-scoped ``artifact_leak_guard`` fixture in ``conftest.py``
brackets this file too: every durability directory these tests touch must
end the run with no orphaned ``.tmp`` checkpoint files.
"""

import asyncio
import json
import multiprocessing
import os
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from repro.api import Session
from repro.faults import (
    CHECKPOINT_WRITE,
    KILL_EXIT_CODE,
    WAL_APPEND,
    WAL_FSYNC,
    FaultPlan,
    FaultPoint,
    TransientFaultError,
)
from repro.service import QueryService
from repro.ssb import QUERIES, QUERY_ORDER, generate_lineorder_batch, generate_ssb
from repro.storage import (
    Column,
    Database,
    DurabilityConfig,
    DurabilityError,
    DurabilityManager,
    Table,
    WriteAheadLog,
)
from repro.storage.checkpoint import (
    CHECKPOINT_MAGIC,
    checkpoint_path,
    checkpoint_paths,
    clean_orphan_tmp,
    load_latest_checkpoint,
    next_checkpoint_seq,
    parse_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.storage.wal import (
    WAL_NAME,
    decode_payload_header,
    decode_table_payload,
    encode_table_payload,
    frame_chunks,
    frame_record,
    scan_records,
    table_payload_chunks,
)

START_METHODS = ("fork", "spawn")
CRASH_MODES = ("kill", "torn")

#: The crashing child's workload: SF of the base db, per-batch rows, and
#: how many batches publish before the armed fault kills the append.
SF = 0.01
BASE_SEED = 7
BATCH_ROWS = 400
BATCHES_BEFORE_CRASH = 3

GUARD_S = 60.0


def run(coro):
    async def guarded():
        return await asyncio.wait_for(coro, timeout=GUARD_S)

    return asyncio.run(guarded())


def base_ssb():
    """The deterministic base database every process regenerates identically."""
    return generate_ssb(scale_factor=SF, seed=BASE_SEED)


def ingest_batches(session, db, count, *, start_seed=100):
    """Apply ``count`` deterministic lineorder batches through the session.

    Batch ``i`` is a function of the database state it lands on (orderkeys
    continue from the current row count) plus ``start_seed + i``, so two
    processes that apply the same prefix produce byte-identical tables.
    """
    for i in range(count):
        session.ingest("lineorder", generate_lineorder_batch(db, BATCH_ROWS, seed=start_seed + i))


def assert_tables_identical(db_a, db_b):
    """Every table byte-identical: version, columns, dtypes, dictionaries."""
    assert sorted(db_a.tables) == sorted(db_b.tables)
    for name in db_a.tables:
        ta, tb = db_a.table(name), db_b.table(name)
        assert ta.version == tb.version, (name, ta.version, tb.version)
        assert sorted(ta.columns) == sorted(tb.columns), name
        for cname, col in ta.columns.items():
            other = tb.columns[cname]
            assert col.values.dtype == other.values.dtype, (name, cname)
            assert col.values.tobytes() == other.values.tobytes(), (name, cname)
            assert col.encoding == other.encoding, (name, cname)
        assert sorted(ta.dictionaries) == sorted(tb.dictionaries), name
        for cname, enc in ta.dictionaries.items():
            assert list(enc.values) == list(tb.dictionaries[cname].values), (name, cname)


def tiny_db():
    """A two-table database small enough for exhaustive edge-case tests."""
    db = Database(name="tiny")
    fact = Table("fact")
    fact.add_column(Column(name="qty", values=np.arange(4, dtype=np.int32)))
    fact.add_encoded_column("tag", np.array(["x", "y", "x", "z"]), domain=["x", "y", "z"])
    db.add_table(fact)
    dim = Table("dim")
    dim.add_column(Column(name="key", values=np.arange(3, dtype=np.int32)))
    db.add_table(dim)
    return db


# ----------------------------------------------------------------------
# Children for the crash matrix (module level: picklable under spawn)
# ----------------------------------------------------------------------


def _crash_mid_append_child(dur_dir: str, mode: str, fsync: str) -> None:
    """Ingest until the armed ``wal.append`` fault crashes the process."""
    db = base_ssb()
    plan = FaultPlan([FaultPoint(site=WAL_APPEND, mode=mode, skip=BATCHES_BEFORE_CRASH)])
    session = Session(
        db, durability=DurabilityConfig(dir=dur_dir, fsync=fsync), faults=plan
    )
    # One more ingest than the skip count: the last one dies mid-append.
    ingest_batches(session, db, BATCHES_BEFORE_CRASH + 1)
    os._exit(0)  # unreachable: the plan fired first


def _crash_mid_checkpoint_child(dur_dir: str, mode: str) -> None:
    """Ingest, then die inside the checkpoint writer (orphaning its .tmp)."""
    db = base_ssb()
    plan = FaultPlan([FaultPoint(site=CHECKPOINT_WRITE, mode=mode)])
    session = Session(
        db, durability=DurabilityConfig(dir=dur_dir, fsync="always"), faults=plan
    )
    ingest_batches(session, db, BATCHES_BEFORE_CRASH)
    session.checkpoint()
    os._exit(0)  # unreachable


def _graceful_child(dur_dir: str, fsync: str, batches: int) -> None:
    """Ingest and exit cleanly (close() flushes), for cross-process reopens."""
    db = base_ssb()
    session = Session(db, durability=DurabilityConfig(dir=dur_dir, fsync=fsync))
    ingest_batches(session, db, batches)
    session.close()
    os._exit(0)


def _run_child(method: str, target, args) -> int:
    ctx = multiprocessing.get_context(method)
    proc = ctx.Process(target=target, args=args)
    proc.start()
    proc.join(GUARD_S)
    alive = proc.is_alive()
    if alive:  # pragma: no cover - hang guard
        proc.kill()
        proc.join()
    assert not alive, "crash child hung instead of exiting"
    return proc.exitcode


# ----------------------------------------------------------------------
# The differential crash matrix (the tentpole's acceptance test)
# ----------------------------------------------------------------------


class TestCrashRecoveryDifferential:
    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("mode", CRASH_MODES)
    def test_kill_mid_append_recovers_byte_identical(self, tmp_path, method, mode):
        """The headline: crash mid-append, reopen, diff against uncrashed.

        The child dies on its fourth append (``kill``: nothing of the
        record lands; ``torn``: half a record lands).  Recovery must land
        exactly on the three-batch frontier -- tables, 13-query answers,
        and standing-query answers all byte-identical to a session that
        ingested those three batches and never crashed.
        """
        dur_dir = str(tmp_path / f"dur-{method}-{mode}")
        exitcode = _run_child(method, _crash_mid_append_child, (dur_dir, mode, "always"))
        assert exitcode == KILL_EXIT_CODE

        recovered_db = base_ssb()
        recovered = Session.open(recovered_db, durability=DurabilityConfig(dir=dur_dir))
        report = recovered.recovery
        assert report is not None and report.replayed_records == BATCHES_BEFORE_CRASH
        assert report.torn_tail == (mode == "torn")

        reference_db = base_ssb()
        reference = Session(reference_db)
        ingest_batches(reference, reference_db, BATCHES_BEFORE_CRASH)

        assert_tables_identical(recovered_db, reference_db)
        for name in QUERY_ORDER:
            assert recovered.run(QUERIES[name]).value == reference.run(QUERIES[name]).value, name
        ref_standing = reference.register_standing(QUERIES["q2.1"])
        rec_standing = recovered.register_standing(QUERIES["q2.1"])
        assert rec_standing.answer() == ref_standing.answer()
        recovered.close()
        reference.close()

    @pytest.mark.parametrize("mode", CRASH_MODES)
    def test_crash_mid_checkpoint_keeps_wal_authoritative(self, tmp_path, mode):
        """A checkpoint writer dying leaves a ``.tmp`` orphan, never data loss.

        The WAL still holds every record (truncation only happens after a
        checkpoint lands), so recovery replays the full log; the orphaned
        temp file is swept and reported.
        """
        dur_dir = str(tmp_path / f"ckpt-{mode}")
        exitcode = _run_child("fork", _crash_mid_checkpoint_child, (dur_dir, mode))
        assert exitcode == KILL_EXIT_CODE
        (orphan,) = [name for name in os.listdir(dur_dir) if name.endswith(".tmp")]
        with open(os.path.join(dur_dir, orphan), "rb") as handle:
            orphaned = handle.read()

        recovered_db = base_ssb()
        recovered = Session.open(recovered_db, durability=DurabilityConfig(dir=dur_dir))
        report = recovered.recovery
        assert report.removed_tmp, "recovery must sweep the orphaned checkpoint temp"
        assert report.checkpoint_seq is None  # the torn checkpoint never counts
        assert report.replayed_records == BATCHES_BEFORE_CRASH

        reference_db = base_ssb()
        reference = Session(reference_db, durability=DurabilityConfig(dir=str(tmp_path / "reference")))
        ingest_batches(reference, reference_db, BATCHES_BEFORE_CRASH)
        assert_tables_identical(recovered_db, reference_db)
        # ``torn`` leaves exactly the first half of the file the uncrashed
        # writer produces; ``kill`` dies before the first byte.
        with open(reference.checkpoint(), "rb") as handle:
            whole = handle.read()
        assert orphaned == (whole[: len(whole) // 2] if mode == "torn" else b"")
        recovered.close()
        reference.close()

    @pytest.mark.parametrize("fsync", ("always", "batch", "off"))
    def test_graceful_close_reopens_under_every_policy(self, tmp_path, fsync):
        """close() makes every policy durable; reopen matches the reference."""
        dur_dir = str(tmp_path / f"graceful-{fsync}")
        exitcode = _run_child("fork", _graceful_child, (dur_dir, fsync, 2))
        assert exitcode == 0

        recovered_db = base_ssb()
        recovered = Session.open(recovered_db, durability=DurabilityConfig(dir=dur_dir))
        reference_db = base_ssb()
        reference = Session(reference_db)
        ingest_batches(reference, reference_db, 2)
        assert_tables_identical(recovered_db, reference_db)
        recovered.close()
        reference.close()


# ----------------------------------------------------------------------
# WAL record codec + torn-tail scanning
# ----------------------------------------------------------------------


class TestWalCodec:
    def test_payload_roundtrip_preserves_bytes_and_labels(self):
        arrays = {
            "a": np.array([1, 2, 3], dtype=np.int32),
            "b": np.array([1.5, -2.5, 3.25], dtype=np.float64),
        }
        meta = {"a": ("<i4", None), "b": ("<f8", None)}
        payload = encode_table_payload("t", 5, arrays, meta, {"a": ["x", "y"]})
        header, decoded = decode_table_payload(payload)
        assert header["table"] == "t" and header["version"] == 5 and header["rows"] == 3
        assert header["labels"] == {"a": ["x", "y"]}
        for name in arrays:
            assert decoded[name].dtype == arrays[name].dtype
            assert decoded[name].tobytes() == arrays[name].tobytes()
        decoded["a"][0] = 99  # decoded arrays are writable copies

    def test_scan_stops_cleanly_at_every_corruption_shape(self):
        records = [frame_record(f"payload-{i}".encode()) for i in range(3)]
        blob = b"".join(records)
        # Intact: every payload back, no tear.
        scan = scan_records(blob)
        assert len(scan.payloads) == 3 and not scan.torn and scan.good_end == len(blob)
        # Truncated payload: the partial record drops, the prefix survives.
        scan = scan_records(blob[:-3])
        assert len(scan.payloads) == 2 and scan.torn
        assert scan.good_end == len(records[0]) + len(records[1])
        # Short frame header (fewer than 8 bytes of the third frame).
        scan = scan_records(blob[: len(records[0]) + len(records[1]) + 5])
        assert len(scan.payloads) == 2 and scan.torn
        # Corrupt checksum: flip a payload byte.
        corrupt = bytearray(blob)
        corrupt[len(records[0]) + 9] ^= 0xFF
        scan = scan_records(bytes(corrupt))
        assert len(scan.payloads) == 1 and scan.torn
        # Absurd length field: treated as corruption, not an allocation.
        absurd = blob[: len(records[0])] + struct.pack("<II", (1 << 31) + 1, 0)
        scan = scan_records(absurd)
        assert len(scan.payloads) == 1 and scan.torn

    def test_wal_truncates_torn_tail_on_open(self, tmp_path):
        path = str(tmp_path / WAL_NAME)
        wal = WriteAheadLog(path, fsync="always")
        wal.append(b"first")
        wal.append(b"second")
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 2)
        reopened = WriteAheadLog(path, fsync="always")
        assert reopened.opened_torn and reopened.opened_dropped_bytes > 0
        scan = reopened.read_payloads()
        assert scan.payloads == (b"first",) and not scan.torn
        # The tail is *gone*, so appends land cleanly after the survivor.
        reopened.append(b"third")
        assert reopened.read_payloads().payloads == (b"first", b"third")
        reopened.close()

    def test_wal_restarts_on_unrecognized_header(self, tmp_path):
        path = str(tmp_path / WAL_NAME)
        with open(path, "wb") as handle:
            handle.write(b"not a wal at all")
        wal = WriteAheadLog(path, fsync="off")
        assert wal.opened_torn and wal.opened_dropped_bytes == len(b"not a wal at all")
        assert wal.read_payloads().payloads == ()
        wal.close()

    def test_batch_policy_fsyncs_on_schedule(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / WAL_NAME), fsync="batch", batch_every=3)
        for i in range(7):
            wal.append(f"r{i}".encode())
        assert wal.fsyncs == 2  # after records 3 and 6
        wal.sync()
        assert wal.fsyncs == 3
        off = WriteAheadLog(str(tmp_path / "off.log"), fsync="off")
        off.append(b"x")
        assert off.fsyncs == 0 and off.last_fsync_ms is None
        off.close()
        wal.close()


# ----------------------------------------------------------------------
# The streaming checkpoint writer: same bytes, no second copy
# ----------------------------------------------------------------------


class TestCheckpointFiles:
    """The file-level helpers under checkpointing and recovery."""

    @staticmethod
    def _write(directory, seq, qty):
        arrays = {"qty": np.asarray(qty, dtype=np.int32)}
        record = table_payload_chunks("fact", seq, arrays, {"qty": ("<i4", None)}, {})
        return write_checkpoint(str(directory), seq, [record], {"fact": seq})

    def test_paths_are_zero_padded_and_listed_oldest_first(self, tmp_path):
        assert checkpoint_path("d", 7) == os.path.join("d", "checkpoint-00000007.ckpt")
        assert checkpoint_paths(str(tmp_path / "missing")) == []
        for seq in (10, 2):
            (tmp_path / os.path.basename(checkpoint_path("", seq))).write_bytes(b"")
        (tmp_path / "checkpoint-00000003.ckpt.tmp").write_bytes(b"")
        (tmp_path / WAL_NAME).write_bytes(b"")
        assert checkpoint_paths(str(tmp_path)) == [
            (2, checkpoint_path(str(tmp_path), 2)),
            (10, checkpoint_path(str(tmp_path), 10)),
        ]
        os.unlink(tmp_path / "checkpoint-00000003.ckpt.tmp")

    def test_next_seq_follows_the_newest_generation(self, tmp_path):
        assert next_checkpoint_seq(str(tmp_path)) == 1
        self._write(tmp_path, 3, [1])
        self._write(tmp_path, 9, [2])
        assert next_checkpoint_seq(str(tmp_path)) == 10

    def test_prune_keeps_only_the_newest(self, tmp_path):
        paths = [self._write(tmp_path, seq, [seq]) for seq in (1, 2, 3, 4)]
        assert prune_checkpoints(str(tmp_path), keep=2) == paths[:2]
        assert [seq for seq, _ in checkpoint_paths(str(tmp_path))] == [3, 4]
        assert prune_checkpoints(str(tmp_path), keep=2) == []
        assert prune_checkpoints(str(tmp_path), keep=0) == paths[2:]

    def test_orphan_sweep_spares_the_live_temp(self, tmp_path):
        for name in ("a.tmp", "b.tmp", "c.ckpt"):
            (tmp_path / name).write_bytes(b"x")
        live = str(tmp_path / "b.tmp")
        assert clean_orphan_tmp(str(tmp_path), keep=live) == [str(tmp_path / "a.tmp")]
        assert sorted(os.listdir(tmp_path)) == ["b.tmp", "c.ckpt"]
        assert clean_orphan_tmp(str(tmp_path)) == [live]
        assert clean_orphan_tmp(str(tmp_path / "missing")) == []

    def test_written_generation_loads_back(self, tmp_path):
        self._write(tmp_path, 1, [1, 2])
        self._write(tmp_path, 2, [3, 4, 5])
        seq, states, invalid = load_latest_checkpoint(str(tmp_path))
        assert (seq, invalid) == (2, 0)
        version, arrays, meta, labels = states["fact"]
        assert version == 2 and labels == {} and meta == {"qty": ("<i4", None)}
        assert arrays["qty"].tolist() == [3, 4, 5]
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_nothing_valid_loads_as_none_and_counts_the_invalid(self, tmp_path):
        assert load_latest_checkpoint(str(tmp_path)) == (None, None, 0)
        for seq in (1, 2):
            with open(self._write(tmp_path, seq, [seq]), "ab") as handle:
                handle.write(b"garbage")
        assert load_latest_checkpoint(str(tmp_path)) == (None, None, 2)

    def test_parse_rejects_a_foreign_header_and_a_missing_footer(self, tmp_path):
        path = self._write(tmp_path, 1, [1])
        blob = open(path, "rb").read()
        assert parse_checkpoint(path)[0] == 1
        with open(path, "wb") as handle:
            handle.write(b"X" + blob[1:])
        assert parse_checkpoint(path) is None
        # Every table record intact, the footer record cut off.
        header_len = len(CHECKPOINT_MAGIC) + 4
        first = scan_records(memoryview(blob), header_len).payloads[0]
        with open(path, "wb") as handle:
            handle.write(blob[:header_len] + frame_record(bytes(first)))
        assert parse_checkpoint(path) is None

    def test_framing_chunks_equals_framing_their_join(self):
        chunks = [b"head", np.arange(3, dtype=np.int32).view(np.uint8), b""]
        joined = b"".join(bytes(chunk) for chunk in chunks)
        assert b"".join(bytes(piece) for piece in frame_chunks(chunks)) == frame_record(joined)
        assert scan_records(frame_record(joined)).payloads == (joined,)

    def test_payload_header_length_is_checked(self):
        payload = encode_table_payload("t", 1, {"a": np.arange(2, dtype=np.int32)}, {"a": ("<i4", None)}, {})
        assert decode_payload_header(payload)["rows"] == 2
        with pytest.raises(DurabilityError, match="header length field"):
            decode_payload_header(payload[:3])
        with pytest.raises(DurabilityError, match="declared header"):
            decode_payload_header(payload[:10])
        with pytest.raises(DurabilityError, match="truncated"):
            decode_table_payload(payload[:-1])
        with pytest.raises(DurabilityError, match="trailing bytes"):
            decode_table_payload(payload + b"\0")


def wide_db(rows):
    """One ``rows``-row fact table of four 4-byte columns, one encoded."""
    fact = Table("fact")
    for name in ("a", "b", "c"):
        fact.add_column(Column(name=name, values=np.arange(rows, dtype=np.int32)))
    fact.add_encoded_column("tag", np.array(["x", "y", "z", "y"])[np.arange(rows) % 4])
    db = Database(name="wide")
    db.add_table(fact)
    return db


def wide_batch(rows, seed):
    values = np.arange(rows, dtype=np.int32) + seed
    return {"a": values, "b": values * 2, "c": values * 3, "tag": np.array(["z", "x"])[values % 2]}


def checkpoint_bytes_assembled_whole(db, seq):
    """A checkpoint file built the pre-streaming way: every table encoded
    into one payload, every payload framed, everything joined."""
    payloads, versions = [], {}
    for name, table in sorted(db.tables.items()):
        versions[name] = table.version
        arrays = {cname: column.values for cname, column in table.columns.items()}
        meta = {cname: (column.values.dtype.str, column.encoding) for cname, column in table.columns.items()}
        labels = {cname: list(encoder.values) for cname, encoder in table.dictionaries.items()}
        payloads.append(encode_table_payload(name, table.version, arrays, meta, labels))
    footer = json.dumps(
        {"kind": "footer", "seq": seq, "versions": versions}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    payloads.append(struct.pack("<I", len(footer)) + footer)
    return CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"".join(frame_record(payload) for payload in payloads)


def traced_peak(body):
    """``(result, tracemalloc peak over the level at entry)`` of ``body()``."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = body()
        return result, tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


class TestStreamingCheckpoint:
    def test_file_is_byte_identical_to_the_whole_assembly(self, tmp_path):
        """Format unchanged: what the streaming writer puts on disk equals
        the old join-everything assembly of the same state, and a file
        produced by that old assembly recovers through today's reader."""
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=str(tmp_path / "new")))
        session.ingest("fact", {"qty": np.array([5, 6], dtype=np.int32), "tag": np.array(["z", "x"])})
        session.ingest("dim", {"key": np.array([], dtype=np.int32)})  # empty: no version
        session.ingest("dim", {"key": np.array([7], dtype=np.int32)})
        with open(session.checkpoint(), "rb") as handle:
            streamed = handle.read()
        session.close()
        assert streamed == checkpoint_bytes_assembled_whole(db, 1)

        old_dir = tmp_path / "old"
        old_dir.mkdir()
        (old_dir / "checkpoint-00000001.ckpt").write_bytes(checkpoint_bytes_assembled_whole(db, 1))
        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=str(old_dir)))
        assert session2.recovery.checkpoint_seq == 1 and session2.recovery.replayed_records == 0
        assert_tables_identical(db, db2)
        session2.close()

    def test_checkpoint_streams_instead_of_copying_the_database(self, tmp_path):
        """Clock-free: writing a checkpoint allocates a sliver of the
        database -- it used to hold three whole copies in flight."""
        db = wide_db(500_000)
        session = Session(db, durability=DurabilityConfig(dir=str(tmp_path / "stream")))
        session.ingest("fact", wide_batch(1024, seed=1))
        database_bytes = db.table("fact").nbytes
        assert database_bytes >= 8_000_000
        path, peak = traced_peak(session.checkpoint)
        assert peak < database_bytes // 4
        assert os.path.getsize(path) > database_bytes
        session.close()

    def test_recovery_copies_the_table_once_not_once_per_record(self, tmp_path):
        """Clock-free: checkpoint + 16 WAL records recover inside the file
        bytes plus the decoded arrays, then those arrays plus one buffer
        with slack -- the whole-table path held file, payload slices and
        arrays (3x) and then rebuilt the table for every record."""
        config = DurabilityConfig(dir=str(tmp_path / "recover"))
        db = wide_db(250_000)
        session = Session(db, durability=config)
        session.ingest("fact", wide_batch(1024, seed=1))
        session.checkpoint()
        for i in range(16):
            session.ingest("fact", wide_batch(1024, seed=2 + i))
        session.close()

        base = wide_db(250_000)
        manager = DurabilityManager(base, config)
        table_bytes = db.table("fact").nbytes
        try:
            report, peak = traced_peak(manager.recover)
        finally:
            manager.close()
        assert report.checkpoint_seq == 1 and report.replayed_records == 16
        assert_tables_identical(db, base)
        assert peak < 2.5 * table_bytes


# ----------------------------------------------------------------------
# Recovery edge cases (satellite)
# ----------------------------------------------------------------------


class TestRecoveryEdgeCases:
    def test_fresh_directory_recovers_to_nothing(self, tmp_path):
        db = tiny_db()
        manager = DurabilityManager(db, DurabilityConfig(dir=str(tmp_path / "fresh")))
        report = manager.recover()
        assert not report.restored and report.versions == {"dim": 0, "fact": 0}
        manager.close()

    def test_zero_length_wal_is_not_fatal(self, tmp_path):
        dur_dir = tmp_path / "zero"
        dur_dir.mkdir()
        (dur_dir / WAL_NAME).write_bytes(b"")
        db = tiny_db()
        session = Session.open(db, durability=DurabilityConfig(dir=str(dur_dir)))
        assert session.recovery.replayed_records == 0
        assert db.table("fact").version == 0
        session.close()

    def test_checkpoint_with_no_wal(self, tmp_path):
        dur_dir = str(tmp_path / "ckpt-only")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([9], dtype=np.int32), "tag": np.array(["y"])})
        session.checkpoint()
        session.close()
        os.unlink(os.path.join(dur_dir, WAL_NAME))

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert session2.recovery.checkpoint_seq == 1
        assert session2.recovery.replayed_records == 0
        assert_tables_identical(db, db2)
        session2.close()

    def test_wal_with_no_checkpoint(self, tmp_path):
        dur_dir = str(tmp_path / "wal-only")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([9], dtype=np.int32), "tag": np.array(["y"])})
        session.close()
        assert not checkpoint_paths(dur_dir)

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert session2.recovery.checkpoint_seq is None
        assert session2.recovery.replayed_records == 1
        assert_tables_identical(db, db2)
        session2.close()

    def test_interleaved_fact_and_dimension_appends(self, tmp_path):
        """Per-table version order is preserved across an interleaved log."""
        dur_dir = str(tmp_path / "interleaved")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        session.ingest("dim", {"key": np.array([10, 11], dtype=np.int32)})
        session.ingest("fact", {"qty": np.array([6, 7], dtype=np.int32), "tag": np.array(["z", "y"])})
        session.ingest("dim", {"key": np.array([12], dtype=np.int32)})
        assert db.table("fact").version == 2 and db.table("dim").version == 2
        session.close()

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert session2.recovery.replayed_records == 4
        assert_tables_identical(db, db2)
        session2.close()

    def test_checkpoint_then_tail_replay(self, tmp_path):
        """Recovery composes: newest checkpoint + the records after it."""
        dur_dir = str(tmp_path / "composed")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        session.checkpoint()
        session.ingest("fact", {"qty": np.array([6], dtype=np.int32), "tag": np.array(["y"])})
        session.close()

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert session2.recovery.checkpoint_seq == 1
        assert session2.recovery.replayed_records == 1  # only the post-checkpoint record
        assert_tables_identical(db, db2)
        session2.close()

    def test_threshold_checkpointer_trips_and_truncates(self, tmp_path):
        dur_dir = str(tmp_path / "threshold")
        db = tiny_db()
        session = Session(
            db, durability=DurabilityConfig(dir=dur_dir, checkpoint_every=2, keep_checkpoints=1)
        )
        for i in range(5):
            session.ingest("fact", {"qty": np.array([i], dtype=np.int32), "tag": np.array(["x"])})
        manager = session.durability
        assert manager.checkpoints_written == 2  # after appends 2 and 4
        assert len(checkpoint_paths(dur_dir)) == 1  # pruned to keep_checkpoints
        # The log holds only the records past the newest checkpoint.
        assert len(manager.wal.read_payloads().payloads) == 1
        session.close()

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert_tables_identical(db, db2)
        session2.close()

    def test_recover_is_idempotent(self, tmp_path):
        dur_dir = str(tmp_path / "idem")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        first = session.recover()
        assert first.skipped_records == 1 and first.replayed_records == 0
        again = session.recover()
        assert again.versions == first.versions
        assert db.table("fact").version == 1
        session.close()

    def test_torn_checkpoint_falls_back_to_older_generation(self, tmp_path):
        dur_dir = str(tmp_path / "fallback")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        session.checkpoint()
        session.ingest("fact", {"qty": np.array([6], dtype=np.int32), "tag": np.array(["y"])})
        second = session.checkpoint()
        session.close()
        # Tear the newest checkpoint in half; parse must reject it.
        blob = open(second, "rb").read()
        with open(second, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert parse_checkpoint(second) is None

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        report = session2.recovery
        assert report.checkpoint_seq == 1 and report.invalid_checkpoints == 1
        # The WAL was truncated at the *second* checkpoint, whose records
        # are gone -- so recovery honestly lands on the older generation's
        # frontier.  This is the documented keep_checkpoints>=2 rationale.
        assert db2.table("fact").version == 1
        session2.close()

    def test_replay_gap_is_an_error_not_silent_data(self, tmp_path):
        table = tiny_db().table("fact")
        with pytest.raises(ValueError, match="replay gap"):
            table.replay_append(
                3, {"qty": np.array([1], dtype=np.int32), "tag": np.array([0], dtype=np.int32)}
            )

    def test_dictionary_drift_is_detected(self, tmp_path):
        dur_dir = str(tmp_path / "drift")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        session.close()
        # A database whose tag dictionary disagrees with the logged labels.
        other = Database(name="tiny")
        fact = Table("fact")
        fact.add_column(Column(name="qty", values=np.arange(4, dtype=np.int32)))
        fact.add_encoded_column("tag", np.array(["a", "b", "a", "c"]), domain=["a", "b", "c"])
        other.add_table(fact)
        dim = Table("dim")
        dim.add_column(Column(name="key", values=np.arange(3, dtype=np.int32)))
        other.add_table(dim)
        with pytest.raises(DurabilityError, match="dictionary drift"):
            Session.open(other, durability=DurabilityConfig(dir=dur_dir))


class TestRandomTruncationProperty:
    def test_every_seeded_crash_point_recovers_to_a_valid_prefix(self, tmp_path):
        """Property: truncating the WAL anywhere yields some valid prefix.

        Record a log of K appends, then for a fan of seeded offsets copy
        the directory, truncate the copy's WAL at that offset, and recover:
        the result must always be byte-identical to the reference session
        that ingested exactly the surviving number of batches -- never an
        error, never a half-applied batch.
        """
        dur_dir = str(tmp_path / "recorded")
        appends = 6
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        for i in range(appends):
            session.ingest(
                "fact",
                {
                    "qty": np.arange(i + 1, dtype=np.int32),
                    "tag": np.array(["x", "y", "z"] * ((i + 3) // 3))[: i + 1],
                },
            )
        session.close()
        wal_path = os.path.join(dur_dir, WAL_NAME)
        full_size = os.path.getsize(wal_path)

        # Reference prefixes: what the table looks like after j appends.
        def reference_after(count):
            ref = tiny_db()
            ref_session = Session(ref)
            for i in range(count):
                ref_session.ingest(
                    "fact",
                    {
                        "qty": np.arange(i + 1, dtype=np.int32),
                        "tag": np.array(["x", "y", "z"] * ((i + 3) // 3))[: i + 1],
                    },
                )
            return ref

        rng = np.random.default_rng(1234)
        offsets = sorted({int(off) for off in rng.integers(0, full_size + 1, size=24)})
        seen_versions = set()
        for offset in offsets:
            crash_dir = str(tmp_path / f"crash-{offset}")
            shutil.copytree(dur_dir, crash_dir)
            with open(os.path.join(crash_dir, WAL_NAME), "r+b") as handle:
                handle.truncate(offset)
            recovered = tiny_db()
            recovered_session = Session.open(
                recovered, durability=DurabilityConfig(dir=crash_dir)
            )
            version = recovered.table("fact").version
            assert 0 <= version <= appends
            seen_versions.add(version)
            assert_tables_identical(recovered, reference_after(version))
            recovered_session.close()
        assert len(seen_versions) > 2  # the offsets actually exercised prefixes


# ----------------------------------------------------------------------
# The empty-append regression (satellite)
# ----------------------------------------------------------------------


class TestEmptyAppendRegression:
    def test_empty_append_emits_no_record_and_no_version_bump(self, tmp_path):
        dur_dir = str(tmp_path / "empty")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir))
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        version = db.table("fact").version
        empty = session.ingest(
            "fact",
            {"qty": np.array([], dtype=np.int32), "tag": np.array([], dtype="U1")},
        )
        assert empty == version  # no bump
        manager = session.durability
        assert manager.wal.records_logged == 1  # and no record either
        session.ingest("fact", {"qty": np.array([6], dtype=np.int32), "tag": np.array(["y"])})
        session.close()

        # Versions never skip across recovery: the log replays 1, 2 -- not
        # 1, 3 -- and lands exactly on the live session's frontier.
        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        replayed = [
            decode_table_payload(payload)[0]["version"]
            for payload in session2.durability.wal.read_payloads().payloads
        ]
        assert replayed == [1, 2]
        assert db2.table("fact").version == 2
        assert_tables_identical(db, db2)
        session2.close()

    def test_duplicate_record_replay_is_a_noop(self, tmp_path):
        """A record at or below the table version skips -- never re-applies."""
        table = tiny_db().table("fact")
        batch = {
            "qty": np.array([9], dtype=np.int32),
            "tag": np.array([1], dtype=np.int32),  # already-encoded codes
        }
        assert table.replay_append(1, batch) is True
        rows = table.num_rows
        assert table.replay_append(1, batch) is False  # duplicate: no-op
        assert table.num_rows == rows and table.version == 1


# ----------------------------------------------------------------------
# Fault-site behaviour short of a crash
# ----------------------------------------------------------------------


class TestFaultSites:
    def test_raise_at_wal_append_aborts_publish(self, tmp_path):
        """A failed log write must leave nothing published (write-ahead)."""
        dur_dir = str(tmp_path / "abort")
        db = tiny_db()
        plan = FaultPlan([FaultPoint(site=WAL_APPEND, mode="raise")])
        session = Session(db, durability=DurabilityConfig(dir=dur_dir), faults=plan)
        with pytest.raises(TransientFaultError):
            session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        assert db.table("fact").version == 0  # nothing published
        # The plan's budget is spent: the next append goes through cleanly.
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        assert db.table("fact").version == 1
        session.close()

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert_tables_identical(db, db2)
        session2.close()

    def test_raise_at_fsync_aborts_publish_but_logs_survive_replay(self, tmp_path):
        """An fsync failure aborts the append; the orphan record replays as
        a duplicate-or-next and never corrupts the frontier."""
        dur_dir = str(tmp_path / "fsync-abort")
        db = tiny_db()
        plan = FaultPlan([FaultPoint(site=WAL_FSYNC, mode="raise")])
        session = Session(db, durability=DurabilityConfig(dir=dur_dir), faults=plan)
        with pytest.raises(TransientFaultError):
            session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        assert db.table("fact").version == 0
        # Retry with the identical batch: the new record carries the same
        # version, so recovery replays one and skips the other.
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        session.close()

        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert session2.recovery.replayed_records == 1
        assert session2.recovery.skipped_records == 1
        assert_tables_identical(db, db2)
        session2.close()

    def test_latency_at_fsync_only_slows(self, tmp_path):
        dur_dir = str(tmp_path / "lat")
        db = tiny_db()
        plan = FaultPlan([FaultPoint(site=WAL_FSYNC, mode="latency", delay_s=0.01)])
        session = Session(db, durability=DurabilityConfig(dir=dur_dir), faults=plan)
        session.ingest("fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])})
        assert db.table("fact").version == 1
        assert session.durability.last_fsync_ms >= 10.0
        session.close()


# ----------------------------------------------------------------------
# Serving layer: ack-after-durability + trace stamping
# ----------------------------------------------------------------------


class TestServiceDurability:
    def test_ingest_trace_records_mode_and_fsync_latency(self, tmp_path):
        dur_dir = str(tmp_path / "svc")
        db = tiny_db()
        session = Session(db, durability=DurabilityConfig(dir=dur_dir, fsync="always"))

        async def scenario():
            async with QueryService(session) as service:
                return await service.ingest(
                    "fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])}
                )

        result = run(scenario())
        assert result.version == 1
        assert result.trace.durability == "always"
        assert result.trace.fsync_ms is not None and result.trace.fsync_ms >= 0.0
        # Acknowledgement implies durability: a cold reopen sees the batch.
        session.close()
        db2 = tiny_db()
        session2 = Session.open(db2, durability=DurabilityConfig(dir=dur_dir))
        assert db2.table("fact").version == 1
        session2.close()

    def test_in_memory_session_traces_no_durability(self):
        db = tiny_db()
        session = Session(db)

        async def scenario():
            async with QueryService(session) as service:
                return await service.ingest(
                    "fact", {"qty": np.array([5], dtype=np.int32), "tag": np.array(["x"])}
                )

        result = run(scenario())
        assert result.trace.durability is None and result.trace.fsync_ms is None
        session.close()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            DurabilityConfig(dir="")
        with pytest.raises(ValueError):
            DurabilityConfig(dir="d", fsync="sometimes")
        with pytest.raises(ValueError):
            DurabilityConfig(dir="d", batch_every=0)
        with pytest.raises(ValueError):
            DurabilityConfig(dir="d", checkpoint_every=0)
        with pytest.raises(ValueError):
            DurabilityConfig(dir="d", checkpoint_bytes=0)
        with pytest.raises(ValueError):
            DurabilityConfig(dir="d", keep_checkpoints=0)

    def test_session_without_durability_refuses_recover(self):
        session = Session(tiny_db())
        with pytest.raises(ValueError, match="no durability"):
            session.recover()
        with pytest.raises(ValueError, match="no durability"):
            session.checkpoint()
        assert session.durability is None and session.recovery is None
        session.close()
