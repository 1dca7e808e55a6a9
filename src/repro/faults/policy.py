"""The knobs of the degradation ladder: :class:`ResiliencePolicy`.

One frozen value object carries every failure-handling parameter a session
(and the service on top of it) consults, so "how does this deployment
degrade" is a single constructor argument instead of settings scattered
across three layers:

* **Shard rung** -- ``shard_retry_budget`` bounds how many recoverable
  failures one sharded query absorbs (pool rebuilds, re-exports, task
  resubmits) before :class:`~repro.engine.shard.ShardExecutor` falls back
  to the monolithic plane; ``shard_task_timeout_s`` bounds each shard
  task's wait so a hung worker is a recoverable failure, not a hang.
* **Service rung** -- transient execution failures (:data:`RETRYABLE`)
  retry up to ``max_attempts`` with exponential backoff from
  ``backoff_base_s`` (:meth:`ResiliencePolicy.backoff_s`: x2 per attempt,
  capped at 1 s, plus up to 25 % jitter); retries re-enter admission so
  they pay for their own queueing.
* **Breaker rung** -- ``breaker_threshold`` consecutive shard-plane
  failures trip a circuit breaker that routes requests to ``shards=1``;
  every ``breaker_probe_every``-th request while open probes the shard
  plane at full width, and a clean probe closes the breaker.

Jitter is *deterministic*: the delay is a pure function of ``(request_id,
attempt)``, so a failing workload replays with identical backoff timing --
randomized enough to de-synchronize retry herds, seeded enough to debug.
"""

from __future__ import annotations

import random
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import TransientFaultError

#: Backoff growth per attempt (exponential).
BACKOFF_MULTIPLIER = 2.0
#: Ceiling on any single backoff delay, before jitter.
BACKOFF_MAX_S = 1.0
#: Fractional jitter: a delay stretches by up to this fraction.
JITTER = 0.25
#: Exception types the service retry rung treats as transient.
RETRYABLE = (TransientFaultError, BrokenExecutor, ConnectionError)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a session and its service absorb failure (see module docstring)."""

    #: Total execution attempts per request (1 = never retry).
    max_attempts: int = 3
    #: First retry's backoff, before jitter.
    backoff_base_s: float = 0.02
    #: Consecutive shard-plane failures that trip the breaker.
    breaker_threshold: int = 3
    #: While open, every Nth dispatch probes the shard plane at full width.
    breaker_probe_every: int = 4
    #: Recoverable failures one sharded query absorbs before the
    #: monolithic fallback rung (0 = fall back on the first failure).
    shard_retry_budget: int = 2
    #: Per-shard-task result wait; ``None`` waits forever (no hang guard).
    shard_task_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {self.breaker_threshold}")
        if self.breaker_probe_every < 1:
            raise ValueError(f"breaker_probe_every must be >= 1, got {self.breaker_probe_every}")
        if self.shard_retry_budget < 0:
            raise ValueError(f"shard_retry_budget must be >= 0, got {self.shard_retry_budget}")
        if self.shard_task_timeout_s is not None and self.shard_task_timeout_s <= 0:
            raise ValueError(
                f"shard_task_timeout_s must be positive, got {self.shard_task_timeout_s}"
            )

    # ------------------------------------------------------------------
    def is_transient(self, exc: BaseException) -> bool:
        """Whether the service retry rung should absorb ``exc``."""
        return isinstance(exc, RETRYABLE)

    def backoff_s(self, request_id: int, attempt: int) -> float:
        """The delay before retry number ``attempt`` of ``request_id``.

        ``backoff_base_s`` times :data:`BACKOFF_MULTIPLIER` per attempt,
        capped at :data:`BACKOFF_MAX_S`, stretched by up to :data:`JITTER`
        drawn from a stream keyed on ``(request_id, attempt)`` -- every
        request backs off on its own schedule (no retry herd), and the same
        request replays the same schedule.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(self.backoff_base_s * BACKOFF_MULTIPLIER ** (attempt - 1), BACKOFF_MAX_S)
        if not base:
            return base
        rng = random.Random(f"0:{request_id}:{attempt}")
        return base * (1.0 + JITTER * rng.random())
