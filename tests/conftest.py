"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.sim.cpu import CPUSimulator
from repro.sim.gpu import GPUSimulator
from repro.ssb.generator import generate_ssb

#: Where POSIX shared memory lives; prefixes that can only be ours.
SHM_DIR = "/dev/shm"
SHM_LEAK_PREFIXES = ("psm_", "repro")


def shm_segment_names() -> set:
    """The current ``/dev/shm`` entries that look like ours."""
    try:
        names = os.listdir(SHM_DIR)
    except OSError:  # platform without /dev/shm: nothing to guard
        return set()
    return {name for name in names if name.startswith(SHM_LEAK_PREFIXES)}


def orphaned_durability_tmp() -> set:
    """``*.tmp`` files left in any durability directory this process used.

    A ``.tmp`` file is only ever a checkpoint (or WAL rewrite) mid-write;
    after a test finishes, one still on disk means a writer died and
    nothing swept it -- recovery's job, so a leftover is a recovery bug,
    not housekeeping noise.  Directories deleted wholesale by their test
    (tmp_path teardown) simply stop existing and drop out of the sweep.
    """
    from repro.storage.wal import known_durability_dirs

    orphans = set()
    for directory in known_durability_dirs():
        try:
            names = os.listdir(directory)
        except OSError:  # the test deleted its tmp dir: nothing leaked
            continue
        orphans.update(
            os.path.join(directory, name) for name in names if name.endswith(".tmp")
        )
    return orphans


def live_child_processes() -> dict:
    """``pid -> command line`` of every child of this process still running.

    ``multiprocessing.active_children()`` sees ``Process`` objects; the
    Linux ``/proc/self/task/*/children`` lists see everything any thread
    started, so ``subprocess`` children and pool workers count too (a
    platform without that file just contributes nothing).  Zombies are
    exited, not running, and ``multiprocessing``'s own resource tracker
    lives until the interpreter does by design: neither is a leak.
    """
    pids = {child.pid for child in multiprocessing.active_children()}
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:  # the thread exited between glob and open
            continue
    pids.discard(getattr(resource_tracker._resource_tracker, "_pid", None))
    if not os.path.isdir("/proc/self"):  # no /proc: active children, unnamed
        return dict.fromkeys(pids, "?")
    live = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rpartition(")")[2].split()[0]
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except OSError:  # the child exited while we looked
            continue
        if state != "Z":
            live[pid] = command
    return live


@pytest.fixture(scope="session", autouse=True)
def artifact_leak_guard():
    """Fail the run if any test leaked a process-external artifact.

    Three sweeps bracket the whole session.  Shared memory: one snapshot of
    ``/dev/shm`` -- including the chaos suite, which kills workers and
    unlinks segments mid-query -- so every test gets leak coverage without
    per-test baseline loops; segments that predate the run (another
    process, a crashed earlier run the janitor has not seen yet) are
    excluded from blame.  Durability directories: every directory a
    :class:`~repro.storage.DurabilityManager` opened during the run must
    end with no orphaned ``.tmp`` checkpoint files -- crash tests *create*
    orphans on purpose, so this asserts their recovery half really swept.
    Processes: no child of the pytest process -- shard-pool worker, crash
    child, ``subprocess`` -- may still be running at the end; one that is
    outlives the run and holds its memory (three PRs were refused for it).
    """
    before = shm_segment_names()
    children_before = set(live_child_processes())
    yield
    gc.collect()  # drop any lingering SharedMemory handles before looking
    leaked = shm_segment_names() - before
    assert not leaked, f"tests leaked shared-memory segments: {sorted(leaked)}"
    orphans = orphaned_durability_tmp()
    assert not orphans, f"tests leaked orphaned durability temp files: {sorted(orphans)}"
    deadline = time.monotonic() + 5.0  # a worker told to exit gets a moment to
    while (
        running := {pid: cmd for pid, cmd in live_child_processes().items() if pid not in children_before}
    ) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running, f"tests left child processes running: {sorted(running.items())}"


@pytest.fixture(scope="session")
def cpu_sim() -> CPUSimulator:
    """A CPU simulator configured with the paper's Intel i7-6900."""
    return CPUSimulator()


@pytest.fixture(scope="session")
def gpu_sim() -> GPUSimulator:
    """A GPU simulator configured with the paper's Nvidia V100."""
    return GPUSimulator()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic random generator shared across tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_ssb():
    """A small SSB database (SF 0.01) reused by engine and query tests."""
    return generate_ssb(scale_factor=0.01, seed=7)


@pytest.fixture(scope="session")
def small_ssb():
    """A slightly larger SSB database (SF 0.05) for selectivity checks."""
    return generate_ssb(scale_factor=0.05, seed=11)
