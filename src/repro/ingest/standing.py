"""Incrementally maintained aggregate queries over a growing fact table.

A :class:`StandingQuery` is a client of the partial-aggregate algebra in
:mod:`repro.engine.plan`: its whole state is **one**
:class:`~repro.engine.plan.PartialAggregate` over fact rows ``[0,
rows_seen)``.  A refresh tick runs the ordinary staged pipeline -- the same
lowering, the same operators, on the real database -- over just the newly
appended range ``[rows_seen, n)``
(:func:`~repro.engine.physical.execute_physical_partial`, whose span reads
``column[rows_seen:n]`` views, so a tick costs O(batch) whatever the size
of the sealed prefix) and folds the result in with
:func:`~repro.engine.plan.combine_partials`; the answer is
:func:`~repro.engine.plan.finalize_partial` of the state.  A tick is thus
exactly what a shard is -- a ranged partial -- and every op, ``avg``
included, costs one pipeline pass.

Exactness, not approximation: the algebra is exact over SSB's
integer-valued measures, so the maintained answer is byte-identical to a
from-scratch evaluation at every version (the differential suite in
``tests/test_ingest.py`` proves it for all 13 queries).

Dimension appends cannot be folded incrementally (an updated dimension
re-labels *old* fact rows), so a changed dimension version resets the state
and folds ``[0, n)`` afresh; the session's build cache keys its artifacts
by ``(build, dimension version)``, so only the changed dimension rebuilds
-- and standing queries, and the reads beside them, share one artifact per
build.
A dimension append racing a tick is caught by the next one: versions are
read before the pipeline runs, so the recorded version can only lag the
data the tick saw.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.context import activate_context
from repro.engine import physical
from repro.engine.plan import PartialAggregate, combine_partials, finalize_partial
from repro.ssb.queries import SSBQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (api imports this module)
    from repro.api.session import Session


class StandingQuery:
    """One registered query plus its incrementally maintained answer.

    Construct through :meth:`repro.api.Session.register_standing`, which
    runs the initial full evaluation and refreshes the instance on every
    :meth:`~repro.api.Session.ingest`.  :meth:`refresh` is also safe to
    call directly after out-of-band appends.
    """

    def __init__(self, session: "Session", query: SSBQuery, *, name: "str | None" = None) -> None:
        self.session = session
        self.query = query
        self.name = name if name is not None else query.name
        self._lock = threading.Lock()
        #: The partial over fact rows ``[0, _rows)`` (``None`` until the
        #: first refresh) at the table versions in ``_versions``.
        self._state: "PartialAggregate | None" = None
        self._rows = 0
        self._versions: dict[str, int] = {}
        #: Refresh ticks that folded new data (or fully re-evaluated).
        self.ticks = 0
        #: Fact rows folded incrementally over the query's lifetime.
        self.delta_rows = 0
        #: Full re-evaluations (registration, or a dimension changed).
        self.full_refreshes = 0

    def refresh(self) -> bool:
        """Fold any data published since the last refresh into the answer.

        Incremental when only the fact table grew (the pipeline runs over
        just the appended row range); a full re-evaluation when a
        dimension's version changed or on first call.  Returns whether any
        work was done (``False`` for a no-op tick: nothing new anywhere).
        """
        with self._lock:
            db = self.session.db
            fact = db.table(self.query.fact).snapshot()
            n = fact.num_rows
            dimensions = {join.dimension: db.table(join.dimension).version for join in self.query.joins}
            versions = {self.query.fact: fact.version, **dimensions}

            full = self._state is None or any(
                version != self._versions.get(name) for name, version in dimensions.items()
            )
            if not full and n <= self._rows:
                self._versions = versions
                return False
            start = 0 if full else self._rows
            # A tick runs under the session's context *without* zones: column
            # statistics and packed twins are O(table) on first touch, and a
            # tick must cost O(batch).  (A ranged partial consults neither
            # the execution memo nor a shard binding.)
            context = replace(self.session.context(cache=False, shards=1), zones=None)
            with activate_context(context):
                # Lowered through the module, so a tracer patching
                # ``physical.lower_query`` sees ticks too.
                delta, _ = physical.execute_physical_partial(
                    db, physical.lower_query(self.query, db), start, n
                )
            self._state = delta if full else combine_partials([self._state, delta])
            self._rows = n
            self._versions = versions
            self.ticks += 1
            self.delta_rows += n - start
            self.full_refreshes += full
            return True

    def answer(self) -> object:
        """The maintained answer at the last refreshed version.

        Same shape as :func:`repro.engine.plan.execute_query`'s value: a
        scalar for ungrouped queries, a dict of group-key tuple -> value
        (keys lexicographically sorted) for grouped ones.
        """
        with self._lock:
            return None if self._state is None else finalize_partial(self._state)

    @property
    def versions(self) -> dict[str, int]:
        """The table versions the maintained answer reflects."""
        with self._lock:
            return dict(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StandingQuery({self.name!r}, ticks={self.ticks}, "
            f"delta_rows={self.delta_rows}, full_refreshes={self.full_refreshes})"
        )
