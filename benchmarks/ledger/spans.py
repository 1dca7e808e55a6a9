"""Span recording from outside the program.

The ledger measures layers without editing them: :meth:`SpanRecorder.wrapping`
temporarily replaces public callables of ``repro`` with timing wrappers
(restored on exit, also on error), keeps one record per call in memory --
name, start and end in ``perf_counter_ns``, the span that caused it, and the
request it belongs to -- and writes them out as JSON lines when the run ends.
A layer's *self time* is its spans' duration minus the part their child
spans cover.

Parent links follow the call stack per thread and per asyncio task (the open
span lives in a ``ContextVar``).  A request keeps its identifier across the
service's loop-to-worker-thread hop through the query object: ``api.prepare``
runs on the caller's side and binds its result to the caller's request,
``api.run`` on the worker adopts the binding of the object it is handed.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter_ns

#: The innermost open span of the current thread or task (a span record).
_OPEN: ContextVar = ContextVar("ledger_open_span", default=None)
#: The request the current thread or task is serving (set by ``request()``).
_REQUEST: ContextVar = ContextVar("ledger_request", default=None)

# Field positions of one span record (a list, mutated once when it closes).
NAME, START, END, PARENT, REQUEST = range(5)


def default_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every layer boundary traced.

    Functions imported by name are patched in each module that holds the
    name: ``shard.py`` binds ``lower_query`` and the two merge helpers at
    import, while ``plan.py`` re-imports ``lower_query`` from ``physical``
    on every call.
    """
    from repro.api.resultset import ResultSet
    from repro.api.session import Session
    from repro.engine import physical, shard
    from repro.engine.cpu_engine import CPUStandaloneEngine
    from repro.ingest.standing import StandingQuery
    from repro.storage.table import Table
    from repro.storage.wal import DurabilityManager
    from repro.storage.zonemap import TableZoneMaps

    return [
        (Session, "prepare", "api.prepare"),
        (Session, "run", "api.run"),
        (ResultSet, "from_result", "api.decode"),
        (physical, "lower_query", "engine.lower"),
        (shard, "lower_query", "engine.lower"),
        (physical.ScanFilter, "run", "engine.scan"),
        # BuildLookup.run is a one-line delegate to fetch_artifact, which the
        # shard plane's parent-side builds call directly.
        (physical.BuildLookup, "fetch_artifact", "engine.build"),
        (physical.ProbeJoin, "run", "engine.probe"),
        (physical.Aggregate, "run", "engine.aggregate"),
        (CPUStandaloneEngine, "simulate", "engine.simulate"),
        (TableZoneMaps, "extended_to", "zonemap.extend"),
        (shard.ShardExecutor, "execute", "shard.execute"),
        (shard, "merge_partial_aggregates", "shard.merge"),
        (shard, "fold_shard_profiles", "shard.merge"),
        (Session, "ingest", "api.ingest"),
        (Table, "append", "table.append"),
        (DurabilityManager, "log_append", "wal.log_append"),
        (DurabilityManager, "checkpoint", "checkpoint.write"),
        (DurabilityManager, "recover", "wal.recover"),
        (StandingQuery, "refresh", "standing.refresh"),
    ]


def zonemap_build_targets() -> list[tuple[object, str, str]]:
    """Traced only around a set-up, where statistics and twins are built: in
    steady state these are cache lookups whose spans would cost more than
    the calls."""
    from repro.engine.cache import ZoneMapCache
    from repro.storage.zonemap import TableZoneMaps

    return [
        (ZoneMapCache, "maps", "zonemap.maps"),
        (TableZoneMaps, "stats", "zonemap.stats"),
        (TableZoneMaps, "packed", "zonemap.packed"),
    ]


def under(name: str):
    """A ``totals(keep=...)`` filter: spans that are, or descend from, ``name``."""
    def keep(span: list) -> bool:
        while span is not None:
            if span[NAME] == name:
                return True
            span = span[PARENT]
        return False
    return keep


def of_requests(requests):
    """A ``totals(keep=...)`` filter: spans of the given request ids."""
    wanted = set(requests)
    return lambda span: span[REQUEST] in wanted


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: id(prepared query) -> request, for the loop-to-worker hop.
        self._bound: dict[int, object] = {}

    # ------------------------------------------------------------------
    @contextmanager
    def request(self, request_id):
        """Attribute every span opened in this thread or task to ``request_id``."""
        token = _REQUEST.set(request_id)
        try:
            yield
        finally:
            _REQUEST.reset(token)

    @contextmanager
    def span(self, name: str, adopt: object = None):
        """Record one span around the body (what the wrappers use)."""
        parent = _OPEN.get()
        if parent is not None:
            request = parent[REQUEST]
        else:
            request = _REQUEST.get()
            if request is None and adopt is not None:
                request = self._bound.pop(id(adopt), None)
        record = [name, perf_counter_ns(), 0, parent, request]
        self.spans.append(record)  # list.append is atomic: worker threads share it
        token = _OPEN.set(record)
        try:
            yield record
        finally:
            record[END] = perf_counter_ns()
            _OPEN.reset(token)

    def _wrap(self, func, name: str):
        if name == "api.prepare":
            @functools.wraps(func)
            def traced(*args, **kwargs):
                with self.span(name) as record:
                    prepared = func(*args, **kwargs)
                    if record[REQUEST] is not None:
                        self._bound[id(prepared)] = record[REQUEST]
                    return prepared
        elif name == "api.run":
            @functools.wraps(func)
            def traced(session, query, *args, **kwargs):
                with self.span(name, adopt=query):
                    return func(session, query, *args, **kwargs)
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                with self.span(name):
                    return func(*args, **kwargs)
        return traced

    @contextmanager
    def wrapping(self, targets=None):
        """Install the timing wrappers; restore every original on exit."""
        originals = []
        try:
            for owner, attr, name in default_targets() if targets is None else targets:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(original.__func__, name))
                else:
                    wrapped = self._wrap(original, name)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            self._bound.clear()

    # ------------------------------------------------------------------
    def mark(self) -> int:
        """A position in the span list, for :meth:`totals` over a phase."""
        return len(self.spans)

    def totals(self, start: int = 0, stop: int | None = None, keep=None) -> dict[str, dict]:
        """Per span name over ``spans[start:stop]``: calls, total and self ns.

        Self time is duration minus the time covered by direct children.
        Children of one span run on its own thread one after another, so
        their durations never overlap and simply add.  ``keep`` filters the
        spans counted (see :func:`under` and :func:`of_requests`).  A name
        with no span reads as zeros.
        """
        window = self.spans[start:stop]
        if keep is not None:
            window = [span for span in window if keep(span)]
        child_ns: dict[int, int] = {}
        for span in window:
            parent = span[PARENT]
            if parent is not None:
                child_ns[id(parent)] = child_ns.get(id(parent), 0) + span[END] - span[START]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for span in window:
            duration = span[END] - span[START]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns.get(id(span), 0)
        return out

    def write(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent, request."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = span[PARENT]
                handle.write(json.dumps({
                    "id": index,
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "parent": ids.get(id(parent)) if parent is not None else None,
                    "request_id": span[REQUEST],
                }) + "\n")
