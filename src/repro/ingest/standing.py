"""Standing queries: registered aggregates whose answers are current on read.

A :class:`StandingQuery` keeps no answer of its own, only a one-entry
:class:`~repro.engine.cache.ExecutionCache`.  Every read
runs :func:`~repro.engine.plan.execute_query` under the session's context
with that memo in place of the session's, so the memo's lineage extension
does the maintenance: after a fact append the read folds only the rows
appended since the last read into the kept partial aggregate (one ranged
pipeline pass over ``[rows, n)``), after a dimension append it re-evaluates
in full (an updated dimension re-labels *old* fact rows), and with nothing
new it replays.  Appends do no standing-query work: the work moves from
every append to the first read after it.

The memo is private rather than an entry of the session's LRU, so other
queries never evict it, it works under ``Session(cache=False)``, and
standing reads leave the session's hit counters alone.  Its builds and zone
maps are the session's, so standing queries and the reads beside them share
one artifact per dimension build.

Exactness, not approximation: the partial-aggregate algebra is exact over
SSB's integer-valued measures, so the answer is byte-identical to a
from-scratch evaluation at every version (the differential suite in
``tests/test_ingest.py`` proves it).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.context import activate_context
from repro.engine.cache import ExecutionCache
from repro.engine.plan import execute_query
from repro.ssb.queries import SSBQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (api imports this module)
    from repro.api.session import Session


class StandingQuery:
    """One registered query, answered at the current version on every read.

    Construct through :meth:`repro.api.Session.register_standing`, which
    runs the initial full evaluation.
    """

    def __init__(self, session: "Session", query: SSBQuery, *, name: "str | None" = None) -> None:
        self.session = session
        self.query = query
        self.name = name if name is not None else query.name
        self._memo = ExecutionCache(session.db, maxsize=1)

    def refresh(self) -> object:
        """The answer at the current version, folding in whatever was
        published since the last read.

        Same shape as :func:`repro.engine.plan.execute_query`'s value: a
        scalar for ungrouped queries, a dict of group-key tuple -> value
        (keys lexicographically sorted) for grouped ones.
        """
        context = replace(self.session.context(shards=1), cache=self._memo)
        with activate_context(context):
            return execute_query(self.session.db, self.query)[0]

    def answer(self) -> object:
        """The answer at the current version (see :meth:`refresh`)."""
        return self.refresh()

    @property
    def ticks(self) -> int:
        """Reads that did work: a full evaluation or a fold of new rows."""
        return self._memo.misses

    @property
    def full_refreshes(self) -> int:
        """Full evaluations (registration, or a dimension changed)."""
        return self._memo.misses - self._memo.extensions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StandingQuery({self.name!r}, ticks={self.ticks}, full_refreshes={self.full_refreshes})"
