"""Concurrent query serving: admission control, timeouts, request traces.

The service layer turns the batch-oriented :class:`~repro.api.Session` into
a concurrent query *server*:

* :mod:`repro.service.service` -- :class:`QueryService`, an asyncio front
  end admitting queries through a bounded queue onto the session's shared
  worker pool, rejecting requests when its queue is full, with per-request
  timeouts, graceful drain, and typed failures (:class:`OverloadError`,
  :class:`QueryTimeoutError`, :class:`ServiceClosedError`).
* :mod:`repro.service.trace` -- :class:`RequestTrace`, the per-request
  record (queue/execute timestamps, congestion seen at admission, cache
  counter deltas, attempts/faults/plane) every admitted request carries.

Failure handling (the degradation ladder) is configured through
:class:`~repro.faults.ResiliencePolicy` (re-exported here): transient
failures retry with backoff through re-admission, and repeated shard-plane
failures trip a breaker that routes to ``shards=1`` until a probe heals.
"""

from repro.faults import ResiliencePolicy
from repro.service.service import (
    IngestResult,
    OverloadError,
    QueryService,
    QueryTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceResult,
    ServiceStats,
)
from repro.service.trace import TERMINAL_STATUSES, RequestTrace

__all__ = [
    "IngestResult",
    "OverloadError",
    "QueryService",
    "QueryTimeoutError",
    "RequestTrace",
    "ResiliencePolicy",
    "ServiceClosedError",
    "ServiceError",
    "ServiceResult",
    "ServiceStats",
    "TERMINAL_STATUSES",
]
