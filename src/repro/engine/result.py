"""Query result type shared by all engines, and the one way to make one."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.plan import QueryProfile
from repro.hardware.counters import TrafficCounter
from repro.sim.timing import TimeBreakdown
from repro.ssb.queries import SSBQuery


@dataclass
class QueryResult:
    """The answer and simulated cost of one query on one engine."""

    query: str
    engine: str
    #: Scalar aggregate (flight 1) or ``{group key tuple: aggregate}`` dict.
    value: object
    time: TimeBreakdown
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    #: Data-dependent statistics gathered during execution.
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def simulated_ms(self) -> float:
        return self.time.total_ms

    @property
    def rows(self) -> int:
        """Number of result rows (1 for a scalar aggregate)."""
        if isinstance(self.value, dict):
            return len(self.value)
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryResult({self.query!r}, engine={self.engine!r}, rows={self.rows}, "
            f"simulated={self.simulated_ms:.2f}ms)"
        )


def bill(engine, query: SSBQuery, value, profile: QueryProfile) -> QueryResult:
    """``engine``'s price for one functional pass (``value`` and ``profile``
    of :func:`~repro.engine.plan.execute_query`).

    An engine is a hardware model: its ``simulate`` gives the time and its
    ``traffic`` the bytes it moves.  The stats are the profile's facts, the
    same on every engine.
    """
    return QueryResult(
        query=query.name,
        engine=engine.name,
        value=value,
        time=engine.simulate(query, profile),
        traffic=engine.traffic(profile),
        stats={
            "fact_rows": float(profile.fact_rows),
            "result_rows": profile.result_input_rows,
            "groups": float(profile.num_groups),
            "fact_filter_selectivity": profile.fact_filter_selectivity,
        },
    )
