"""Checkpoint files: whole-table snapshots that bound WAL replay.

A write-ahead log alone makes recovery correct but not cheap -- replay
time grows with everything ever ingested.  A checkpoint caps it: the
published state of *every* table (full column arrays, dtypes, encodings,
dictionary labels, version) is serialized into ``checkpoint-<seq>.ckpt``
using the same framed-record codec as the WAL
(:func:`repro.storage.wal.frame_chunks`, streamed column by column -- the
writer never assembles a second copy of the data), closed by a footer
record that names the sequence number and the exact version frontier.
After the file is durably in place, the WAL drops every record the
snapshot covers.

Validity is structural, not advisory: a checkpoint counts only if the
whole file parses record-by-record to exact EOF, the footer is present,
and the footer's table set matches the table records.  Anything less --
a torn tail from a crash mid-write, a missing footer, trailing garbage --
is skipped by :func:`load_latest_checkpoint`, which walks newest to
oldest until one parses clean.  Writers never expose a partial file under
the real name: bytes go to a ``.tmp`` sibling, are fsynced, and only then
renamed into place (plus a directory fsync so the rename itself is
durable).  Orphaned ``.tmp`` files -- a writer that died mid-write -- are
swept by recovery (:func:`clean_orphan_tmp`).

The :data:`~repro.faults.CHECKPOINT_WRITE` fault site fires inside the
writer with the ``.tmp`` file in hand, so ``torn`` mode produces exactly
the orphan + partial-file shapes the loader is tested against.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time

from repro.faults.plan import (
    CHECKPOINT_WRITE,
    FaultAction,
    TransientFaultError,
)
from repro.faults.plan import KILL_EXIT_CODE as _KILL_EXIT_CODE

#: Checkpoint file header: magic + format version (12 bytes).
CHECKPOINT_MAGIC = b"REPROCKP"
CHECKPOINT_FORMAT_VERSION = 1
_CKPT_HEADER = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_FORMAT_VERSION)

_CKPT_NAME = re.compile(r"^checkpoint-(\d+)\.ckpt$")


def checkpoint_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"checkpoint-{seq:08d}.ckpt")


def checkpoint_paths(directory: str) -> "list[tuple[int, str]]":
    """Every checkpoint file in ``directory`` as ``(seq, path)``, oldest first."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _CKPT_NAME.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort()
    return found


def next_checkpoint_seq(directory: str) -> int:
    existing = checkpoint_paths(directory)
    return (existing[-1][0] + 1) if existing else 1


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def write_checkpoint(
    directory: str,
    seq: int,
    table_records,
    versions: "dict[str, int]",
    *,
    faults=None,
) -> str:
    """Write one checkpoint generation atomically; return its final path.

    ``table_records`` holds one record per table as its payload's byte
    chunks (:func:`repro.storage.wal.table_payload_chunks`); ``versions``
    the frontier they capture, recorded in the footer.  Each record is
    framed from the chunks themselves -- length summed, CRC32 accumulated
    chunk by chunk -- and the chunks are written straight to the ``.tmp``
    handle (:func:`repro.storage.wal.frame_chunks`), so no second copy of
    the database is ever assembled.  The fault site fires after the
    ``.tmp`` file is open but before it is complete, so an injected
    ``kill`` orphans the temp file and a ``torn`` leaves it half-written
    -- both invisible to the loader, both swept by the next recovery.
    """
    # Local import: wal.py imports this module lazily for the same reason.
    from repro.storage.wal import frame_chunks

    footer = json.dumps(
        {"kind": "footer", "seq": int(seq), "versions": {k: int(v) for k, v in versions.items()}},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    pieces = [_CKPT_HEADER]
    for chunks in [*table_records, [struct.pack("<I", len(footer)), footer]]:
        pieces.extend(frame_chunks(chunks))
    final_path = checkpoint_path(directory, seq)
    tmp_path = final_path + ".tmp"
    with open(tmp_path, "wb") as handle:
        _fire(faults, handle, pieces)
        for piece in pieces:
            handle.write(piece)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, final_path)
    _fsync_dir(directory)
    return final_path


def _fire(faults, handle, pieces) -> None:
    """Arm the :data:`CHECKPOINT_WRITE` site with the temp file in hand."""
    plan = faults() if callable(faults) else faults
    if plan is None:
        return
    action: "FaultAction | None" = plan.arm(CHECKPOINT_WRITE)
    if action is None:
        return
    if action.mode == "latency":
        time.sleep(action.delay_s)
        return
    if action.mode == "raise":
        raise TransientFaultError(
            f"injected transient fault at {CHECKPOINT_WRITE} (pid {os.getpid()})"
        )
    if action.mode == "torn":
        total = sum(len(piece) for piece in pieces)
        cut = max(1, min(total - 1, total // 2))
        for piece in pieces:
            handle.write(piece[:cut])
            cut -= len(piece)
            if cut <= 0:
                break
        handle.flush()
        os.fsync(handle.fileno())
    # "kill", and the crash half of "torn": the .tmp orphan stays behind.
    os._exit(_KILL_EXIT_CODE)


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def prune_checkpoints(directory: str, *, keep: int = 2) -> "list[str]":
    """Delete all but the ``keep`` newest checkpoint files; return removals."""
    existing = checkpoint_paths(directory)
    removed = []
    for _seq, path in existing[:-keep] if keep > 0 else existing:
        try:
            os.unlink(path)
            removed.append(path)
        except FileNotFoundError:  # pragma: no cover - concurrent prune
            pass
    return removed


def clean_orphan_tmp(directory: str, *, keep: "str | None" = None) -> "list[str]":
    """Remove leftover ``*.tmp`` files (crashed writers); return removals.

    ``keep`` exempts one live path (the WAL's own rewrite temp, should a
    rewrite be in flight in this very process).
    """
    if not os.path.isdir(directory):
        return []
    removed = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        if keep is not None and os.path.abspath(path) == os.path.abspath(keep):
            continue
        try:
            os.unlink(path)
            removed.append(path)
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            pass
    return removed


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def parse_checkpoint(path: str):
    """Parse one checkpoint file completely, or return ``None`` if invalid.

    Valid means: recognizable header, every record frames and checksums
    cleanly to *exact* EOF, the last record is a footer, and the footer's
    version map names exactly the tables that have records.  Returns
    ``(seq, states)`` with ``states`` mapping table name to
    ``(version, arrays, meta, labels)``.
    """
    from repro.storage.wal import (
        decode_payload_header,
        decode_table_payload,
        scan_records,
    )

    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    if data[: len(_CKPT_HEADER)] != _CKPT_HEADER:
        return None
    # Scan through a memoryview: record payloads are zero-copy slices of
    # ``data``, so the only second copy is the decoded arrays themselves.
    scan = scan_records(memoryview(data), len(_CKPT_HEADER))
    if scan.torn or not scan.payloads:
        return None
    try:
        footer = decode_payload_header(scan.payloads[-1])
    except Exception:
        return None
    if footer.get("kind") != "footer":
        return None
    states = {}
    try:
        for payload in scan.payloads[:-1]:
            header, arrays = decode_table_payload(payload)
            meta = {name: (dtype, encoding) for name, dtype, encoding in header["columns"]}
            states[header["table"]] = (
                int(header["version"]),
                arrays,
                meta,
                header.get("labels", {}),
            )
    except Exception:
        return None
    versions = footer.get("versions", {})
    if set(versions) != set(states):
        return None
    for name, (version, _arrays, _meta, _labels) in states.items():
        if int(versions[name]) != version:
            return None
    return int(footer["seq"]), states


def load_latest_checkpoint(directory: str):
    """The newest checkpoint that parses clean, scanning newest to oldest.

    Returns ``(seq, states, invalid_count)``; ``(None, None, n)`` when no
    generation is valid (``n`` counts the invalid files encountered).
    """
    invalid = 0
    for seq, path in reversed(checkpoint_paths(directory)):
        parsed = parse_checkpoint(path)
        if parsed is None:
            invalid += 1
            continue
        parsed_seq, states = parsed
        # Trust the filename ordering but report the footer's own seq.
        return parsed_seq if parsed_seq == seq else seq, states, invalid
    return None, None, invalid
