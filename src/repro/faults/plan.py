"""Deterministic fault injection: named sites, seeded plans, four failure modes.

Production failure handling that is only exercised by production failures is
untested code.  This module makes failure a *first-class, reproducible
input*: a :class:`FaultPlan` is a small declarative schedule of
:class:`FaultPoint` entries ("at the Nth arrival at site ``shard.task``,
kill the worker"), armed per call site, that the chaos suite replays
deterministically -- the same plan against the same workload injects the
same faults in the same order, so a recovery bug reproduces on the first
rerun instead of the thousandth.

Sites are plain strings; the ones wired through the codebase today:

* :data:`SHARD_TASK` -- the top of ``shard_worker.run_shard_task``.  The
  parent *arms* the plan per submitted task and ships the resulting
  :class:`FaultAction` inside the task manifest (ContextVars do not cross
  process boundaries), so the worker executes the fault without ever
  holding the plan.
* :data:`SHM_ATTACH` / :data:`SHM_EXPORT` -- the borrowing and owning
  halves of :mod:`repro.storage.shm`.
* :data:`SERVICE_EXECUTE` -- the worker-thread body of
  :meth:`repro.service.QueryService._execute`, upstream of the session
  run, which is what the service-level retry ladder recovers from.

Four modes:

``kill``
    ``os._exit`` the current process mid-task -- the hard failure that
    poisons a ``ProcessPoolExecutor`` (``BrokenProcessPool``).
``unlink``
    Tear a shared-memory segment's name out from under future attaches
    (existing mappings stay valid, exactly POSIX semantics).
``raise``
    Raise :class:`TransientFaultError`, the retryable failure class.
``latency``
    Sleep ``delay_s`` -- for exercising timeouts and backoff.
``torn``
    A crash mid-write: file-aware sites (the write-ahead log, the
    checkpoint writer in :mod:`repro.storage.wal` /
    :mod:`repro.storage.checkpoint`) write a *prefix* of the in-flight
    record to disk and then ``os._exit`` -- producing exactly the torn
    tail a power cut leaves behind, which recovery must detect and
    truncate.  Sites with no file in hand degrade to a plain ``kill``.

The active plan is the ``faults`` field of the one execution context
(:mod:`repro.context`), installed by ``Session._execute`` or
:func:`activate_faults` and read by :func:`active_fault_plan`.  The no-fault
default is a single ContextVar read returning ``None`` per site -- zero
allocation, no locks -- so production paths pay nothing for carrying the
injection points.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.context import activate_context, current

#: The fault modes a :class:`FaultPoint` may request.
FAULT_MODES = ("kill", "raise", "latency", "unlink", "torn")

#: Exit code a ``kill`` fault terminates the process with -- distinctive in
#: worker-death postmortems (``BrokenProcessPool`` hides the code itself).
KILL_EXIT_CODE = 87

# The named injection sites wired through the codebase (plans may name
# arbitrary sites; these constants just keep call sites and tests aligned).
SHARD_TASK = "shard.task"
SHM_ATTACH = "shm.attach"
SHM_EXPORT = "shm.export"
SERVICE_EXECUTE = "service.execute"
WAL_APPEND = "wal.append"
WAL_FSYNC = "wal.fsync"
CHECKPOINT_WRITE = "checkpoint.write"


class FaultError(RuntimeError):
    """Base of injected failures."""


class TransientFaultError(FaultError):
    """An injected failure the retry machinery is expected to absorb.

    Raised by ``mode="raise"`` faults; also the class service retry
    policies treat as retryable by default.  Picklable (a plain message),
    so it crosses the process-pool future boundary intact.
    """


@dataclass(frozen=True)
class FaultAction:
    """One armed fault, ready to execute -- small, frozen, picklable.

    The parent-side :meth:`FaultPlan.arm` decision separated from its
    execution so the action can ship inside a :class:`~repro.engine.shard.
    ShardTask` manifest and fire in a worker process that never sees the
    plan.
    """

    site: str
    mode: str
    delay_s: float = 0.0


@dataclass(frozen=True)
class FaultPoint:
    """One scheduled fault: at ``site``, after ``skip`` arrivals, ``times`` times.

    ``skip`` counts arrivals at the site before the point becomes eligible
    (``skip=2`` leaves the first two alone); ``times`` bounds how many
    arrivals it then fires on.  ``probability`` (default certain) makes
    eligible arrivals fire on a fixed-seed coin flip instead -- the draw
    order is the arrival order, so a given plan against a given workload
    always faults the same requests.  ``delay_s`` is the sleep for ``latency``
    mode (ignored by the instantaneous modes).
    """

    site: str
    mode: str
    skip: int = 0
    times: int = 1
    delay_s: float = 0.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("FaultPoint.site must be a non-empty string")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {self.mode!r}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")


class FaultPlan:
    """A seeded schedule of fault points, armed once per site arrival.

    Thread-safe: arrivals are counted under one lock, so concurrent
    executions (the morsel pool, the service's worker threads) each draw a
    distinct arrival index and the plan's budgets (``times``) are spent
    exactly once per fault.  Retries naturally stop faulting once every
    matching point's budget is exhausted -- which is what lets a bounded
    retry loop converge against a plan that faults the first attempt.
    """

    def __init__(self, points) -> None:
        self.points = tuple(points)
        self._rng = random.Random(0)
        self._budgets = [point.times for point in self.points]
        self._arrivals: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def arm(self, site: str) -> "FaultAction | None":
        """Count one arrival at ``site``; return the action to execute, if any.

        The decision half of injection: pure bookkeeping, never raises or
        sleeps itself.  Callers either run the action locally
        (:meth:`fire`) or ship it across a process boundary.
        """
        with self._lock:
            index = self._arrivals.get(site, 0)
            self._arrivals[site] = index + 1
            for i, point in enumerate(self.points):
                if point.site != site or self._budgets[i] <= 0 or index < point.skip:
                    continue
                if point.probability < 1.0 and self._rng.random() >= point.probability:
                    continue
                self._budgets[i] -= 1
                self._fired[site] = self._fired.get(site, 0) + 1
                return FaultAction(site=site, mode=point.mode, delay_s=point.delay_s)
        return None

    def fire(self, site: str, *, segment: "str | None" = None) -> "FaultAction | None":
        """Arm ``site`` and execute the resulting action in this process.

        ``segment`` names the shared-memory segment an ``unlink`` fault at
        this site should tear down.  Returns the action that ran (``None``
        when the site stayed quiet), mostly for tests.
        """
        action = self.arm(site)
        if action is not None:
            execute_fault(action, segment=segment)
        return action

    # ------------------------------------------------------------------
    def fired(self, site: "str | None" = None) -> int:
        """Faults fired so far -- at one site, or in total."""
        with self._lock:
            if site is not None:
                return self._fired.get(site, 0)
            return sum(self._fired.values())

    def stats(self) -> dict:
        """Per-site ``{"arrivals": n, "fired": m}`` bookkeeping snapshot."""
        with self._lock:
            sites = set(self._arrivals) | set(self._fired)
            return {
                site: {
                    "arrivals": self._arrivals.get(site, 0),
                    "fired": self._fired.get(site, 0),
                }
                for site in sorted(sites)
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({len(self.points)} points, fired={self.fired()})"


def execute_fault(action: FaultAction, *, segment: "str | None" = None) -> None:
    """Carry out one armed :class:`FaultAction` in the current process."""
    if action.mode == "latency":
        time.sleep(action.delay_s)
        return
    if action.mode == "raise":
        raise TransientFaultError(
            f"injected transient fault at {action.site} (pid {os.getpid()})"
        )
    if action.mode == "kill":
        os._exit(KILL_EXIT_CODE)
    if action.mode == "torn":
        # File-aware sites intercept ``torn`` themselves (partial write,
        # then exit); reaching the generic executor means there is no file
        # in hand, so the closest honest behaviour is the crash half alone.
        os._exit(KILL_EXIT_CODE)
    if action.mode == "unlink":
        if segment is not None:
            unlink_segment(segment)
        return
    raise ValueError(f"unknown fault mode {action.mode!r}")  # pragma: no cover


def unlink_segment(name: str) -> bool:
    """Unlink the POSIX shared-memory segment ``name``, if it still exists.

    The ``unlink`` fault's hammer: removes the *name* so every future
    attach fails with :class:`FileNotFoundError`, while existing mappings
    (the owner's, other workers') stay valid -- exactly the crash shape a
    janitor or a dying owner produces.  Unlink bookkeeping in the owner's
    ``resource_tracker`` is left to the owning registry, which tolerates
    the segment already being gone.
    """
    try:
        os.unlink(os.path.join("/dev/shm", name))
        return True
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - non-Linux shm layout
        from multiprocessing import shared_memory

        try:
            handle = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        handle.close()
        handle.unlink()
        return True


# ----------------------------------------------------------------------
# Activation scope: the ``faults`` field of the one execution context
# ----------------------------------------------------------------------


def active_fault_plan() -> "FaultPlan | None":
    """The fault plan of the current execution context, or ``None``."""
    return current().faults


@contextmanager
def activate_faults(plan: FaultPlan):
    """Make ``plan`` the active fault plan for the calling context.

    A session constructed with ``faults=...`` carries its plan in the
    context ``Session._execute`` installs on the executing thread; this
    scope is for code driven without a session.  Instrumented sites read
    :func:`active_fault_plan` and stay no-ops when it is ``None``.
    """
    with activate_context(replace(current(), faults=plan)):
        yield plan
