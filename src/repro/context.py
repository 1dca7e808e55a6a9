"""The one ambient execution context.

Whatever an execution consults besides ``(db, query)`` travels as **one**
frozen :class:`ExecutionContext` in **one** :class:`~contextvars.ContextVar`
(the why, and what each field holds, is in :mod:`repro.engine.cache`).
Stdlib-only and importing nothing from ``repro``, so every layer
(``storage`` reads the fault plan, ``engine`` everything else) can depend
on it without a cycle; the fields are therefore typed opaquely.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class ExecutionContext:
    """What one execution may consult; ``None`` means "off"."""

    cache: object | None = None  #: ExecutionCache: memoized whole passes
    builds: object | None = None  #: BuildArtifactCache: shared dimension builds
    zones: object | None = None  #: ZoneMapCache: zone-map data skipping
    shards: object | None = None  #: ShardBinding: the worker-process plane
    faults: object | None = None  #: FaultPlan the instrumented sites fire from


_CURRENT: ContextVar[ExecutionContext] = ContextVar("repro_execution_context", default=ExecutionContext())


def current() -> ExecutionContext:
    """The context installed by the innermost :func:`activate_context` (else empty)."""
    return _CURRENT.get()


@contextmanager
def activate_context(context: ExecutionContext):
    """Make ``context`` the whole ambient context for the duration.

    Replaces rather than merges: an execution sees exactly what its caller
    built, never a leftover of an enclosing scope.
    """
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
