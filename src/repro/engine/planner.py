"""Cost-based join ordering for star-join queries.

The paper notes (Section 5.3) that it chose the q2.1 plan -- join
``lineorder`` with ``supplier``, then ``part``, then ``date`` -- because it
"delivers the highest performance among the several promising plans".  For a
star join the plan space is simply the order in which the dimension joins are
applied; the best order applies the most selective joins first so that later
joins (and later fact-column accesses) touch fewer rows.

:class:`JoinOrderPlanner` enumerates the dimension-join permutations of a
declarative :class:`~repro.ssb.queries.SSBQuery`, costs each one with the
same bandwidth/cache model the engines use (via a lightweight per-order
profile), and returns the cheapest order.  The SSB engines accept the
reordered query transparently because the joins carry their own metadata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.engine.expr import evaluate_pred
from repro.engine.plan import HASH_ENTRY_BYTES
from repro.hardware.presets import NVIDIA_V100
from repro.ssb.queries import JoinSpec, SSBQuery
from repro.storage import Database


def joins_by_dimension(query: SSBQuery) -> dict[str, JoinSpec]:
    """Map each dimension name to its join spec.

    Join-order planning identifies joins by dimension name, so a query that
    joins the same dimension twice (a role-playing dimension) cannot be
    planned: collapsing the map silently would drop one join's filters and
    corrupt the answer, so this raises instead.
    """
    mapping = {join.dimension: join for join in query.joins}
    if len(mapping) != len(query.joins):
        raise ValueError(
            f"query {query.name!r} joins the same dimension more than once; "
            f"join-order planning requires one join per dimension"
        )
    return mapping


@dataclass(frozen=True)
class PlanChoice:
    """One candidate join order with its estimated cost."""

    join_order: tuple[str, ...]
    estimated_seconds: float
    selectivities: tuple[float, ...]


class JoinOrderPlanner:
    """Chooses the dimension-join order of a star-join query by cost."""

    def __init__(self, db: Database) -> None:
        self.db = db

    # ------------------------------------------------------------------
    def _join_selectivity(self, join: JoinSpec) -> float:
        table = self.db.table(join.dimension)
        if table.num_rows == 0:
            return 1.0
        mask = evaluate_pred(table, join.predicate)
        return float(np.count_nonzero(mask)) / table.num_rows

    def estimate_order_cost(
        self,
        query: SSBQuery,
        order: tuple[str, ...],
        fact_rows: int,
        *,
        selectivity_by_dimension: dict[str, float] | None = None,
    ) -> PlanChoice:
        """Estimate the probe-phase cost of one join order on the GPU model.

        The cost follows the Section 5.3 structure: each join's probes are
        charged one L2/global transaction for the fraction of its hash table
        that does not fit in cache, and each later fact column access shrinks
        with the cumulative selectivity.

        Selectivities are order-independent; :meth:`enumerate` computes them
        once and passes them via ``selectivity_by_dimension`` so the n!
        candidate orders do not each re-scan the dimension tables.
        """
        line = NVIDIA_V100.global_access_granularity_bytes
        l2 = float(NVIDIA_V100.l2_capacity_bytes)
        read_bw = NVIDIA_V100.global_read_bandwidth

        joins = joins_by_dimension(query)
        if selectivity_by_dimension is None:
            selectivity_by_dimension = {
                dimension: self._join_selectivity(join) for dimension, join in joins.items()
            }
        selectivities = tuple(selectivity_by_dimension[dimension] for dimension in order)
        seconds = 0.0
        surviving = float(fact_rows)
        for dimension, selectivity in zip(order, selectivities):
            table = self.db.table(joins[dimension].dimension)
            hash_table_bytes = HASH_ENTRY_BYTES * table.num_rows
            # Key column access for the surviving rows.
            seconds += min(4.0 * fact_rows, surviving * line) / read_bw
            # Probe misses to global memory.
            hit = min(l2 / hash_table_bytes, 1.0) if hash_table_bytes > 0 else 1.0
            seconds += (1.0 - hit) * surviving * line / read_bw
            surviving *= selectivity
        # Measure columns for the rows that survive every join.
        seconds += len(query.aggregate.columns) * min(4.0 * fact_rows, surviving * line) / read_bw
        return PlanChoice(join_order=order, estimated_seconds=seconds, selectivities=selectivities)

    # ------------------------------------------------------------------
    def enumerate(self, query: SSBQuery, fact_rows: int | None = None) -> list[PlanChoice]:
        """All join orders of ``query`` with their estimated costs, best first."""
        if fact_rows is None:
            fact_rows = self.db.table(query.fact).num_rows
        joins = joins_by_dimension(query)
        selectivity_by_dimension = {
            dimension: self._join_selectivity(join) for dimension, join in joins.items()
        }
        choices = [
            self.estimate_order_cost(
                query, order, fact_rows, selectivity_by_dimension=selectivity_by_dimension
            )
            for order in itertools.permutations(tuple(joins))
        ]
        return sorted(choices, key=lambda choice: choice.estimated_seconds)

    def best_order(self, query: SSBQuery, fact_rows: int | None = None) -> PlanChoice:
        """The cheapest join order."""
        return self.enumerate(query, fact_rows)[0]

    def reorder(self, query: SSBQuery, fact_rows: int | None = None) -> SSBQuery:
        """Return ``query`` with its joins rearranged into the cheapest order."""
        best = self.best_order(query, fact_rows)
        joins = joins_by_dimension(query)
        reordered = tuple(joins[d] for d in best.join_order)
        return replace(query, joins=reordered)

    # ------------------------------------------------------------------
