"""Child-side plumbing shared by the four workloads: the noise protocol,
percentiles, the correctness references, and the environment fingerprint.

Nothing here imports ``bench_util`` or ``repro.workload``: the instrument
must not move when a later change edits the program's own load generator.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import catalog

PREFAULT_BLOCK = 16 << 20


def prefault(megabytes: int) -> float:
    """Allocate, touch and free ``megabytes`` of heap; returns seconds taken.

    All blocks are held at once so the heap really grows by the full amount;
    with trimming pinned off, freeing them leaves the pages mapped and backed.
    """
    start = time.perf_counter()
    blocks = [np.empty(PREFAULT_BLOCK, dtype=np.uint8) for _ in range(megabytes * (1 << 20) // PREFAULT_BLOCK)]
    for block in blocks:
        block[::4096] = 1
    del blocks
    return time.perf_counter() - start


def ref_kernel_ms() -> float:
    """Median time of a fixed NumPy filter+gather: a probe of machine speed."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 100, 2_000_000, dtype=np.int32)
    values = rng.integers(0, 1 << 20, 2_000_000, dtype=np.int32)
    times = []
    for _ in range(9):
        start = time.perf_counter()
        int(values[np.flatnonzero(keys < 25)].sum())
        times.append((time.perf_counter() - start) * 1e3)
    return float(np.median(times))


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def median(values) -> float:
    return percentile(values, 50)


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# Correctness references
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    """What the seed executor says one query's answer and cost must be."""

    value: object
    stats: dict
    simulated_ms: float

    def matches(self, result) -> bool:
        """Whether a ``ResultSet`` agrees in value and profile-derived numbers."""
        return (
            result.value == self.value
            and result.stats == self.stats
            and result.simulated_ms == self.simulated_ms
        )


def reference(db, query) -> Reference:
    """``execute_query_monolithic`` plus the CPU model's cost of its profile."""
    from repro.engine.cpu_engine import CPUStandaloneEngine
    from repro.engine.plan import execute_query_monolithic

    value, profile = execute_query_monolithic(db, query)
    stats = {
        "fact_rows": float(profile.fact_rows),
        "result_rows": profile.result_input_rows,
        "groups": float(profile.num_groups),
        "fact_filter_selectivity": profile.fact_filter_selectivity,
    }
    simulated = CPUStandaloneEngine(db).simulate(query, profile).total_ms
    return Reference(value, stats, simulated)


def canonical(value) -> object:
    """An answer in a JSON shape whose text is the same on every run."""
    if isinstance(value, dict):
        return [[list(key), amount] for key, amount in sorted(value.items())]
    return value


def answers_sha256(answers: dict) -> str:
    """SHA-256 over ``{label: (value, simulated_ms)}`` in canonical form."""
    doc = {label: [canonical(value), ms] for label, (value, ms) in sorted(answers.items())}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed (errors, rejects, timeouts, wrong answers)."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def timed_setups(set_up, tear_down, repeats: int) -> tuple[object, list[float]]:
    """One discarded cold set-up, then ``repeats`` timed ones.

    Returns the last set-up's live state (the timed phase runs on it) and
    the timed durations.  Every set-up goes from constructing the program's
    objects to the first verified answer of every query class.
    """
    tear_down(set_up())
    times = []
    state = None
    for index in range(repeats):
        gc.collect()
        start = time.perf_counter()
        state = set_up()
        times.append(time.perf_counter() - start)
        if index < repeats - 1:
            tear_down(state)
    return state, times


def traced_memory_peak_mb(body) -> float:
    """``tracemalloc`` peak (Python and NumPy domains) over ``body()``."""
    gc.collect()
    tracemalloc.start()
    try:
        body()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def filesystem_of(path: str) -> str:
    """The filesystem type ``path`` lives on (from /proc/mounts), or 'unknown'."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_sha(root: str) -> str:
    """HEAD's sha, or 'unknown' outside a git checkout (the driver's is none)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: str, work_dir: str) -> dict:
    """Where and on what a number was measured."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "shard_start_method": catalog.SHARD_START_METHOD,
        "pinned_env": {key: os.environ.get(key) for key in catalog.PINNED_ENV},
        "durability_fs": filesystem_of(work_dir),
        "argv": sys.argv[1:],
    }
