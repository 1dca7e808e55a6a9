"""Unified query API: fluent builder, decoded results, and Session facade.

This package is the one entry point for composing and executing arbitrary
star-schema queries:

* :mod:`repro.api.builder` -- :func:`Q` / :class:`QueryBuilder`, a fluent,
  schema-validating builder that emits the declarative
  :class:`~repro.ssb.queries.SSBQuery` specs every engine understands, and
  the :func:`col` predicate DSL whose comparisons compose into boolean
  AND/OR/NOT trees with ``&``, ``|``, and ``~``.
* :mod:`repro.api.resultset` -- :class:`ResultSet`, the decoded tabular
  result (named columns, dictionary codes translated back to labels) every
  Session execution returns.
* :mod:`repro.api.session` -- :class:`Session`, which binds a database to
  the engines of :data:`repro.engine.ENGINES`: ``run``, ``run_many``, and
  ``compare`` across engines, with an ``optimize=True`` path through the
  join-order planner.  The session runs the functional execution pass once
  per query (memoized across engines) and each engine only prices it.
"""

from repro.api.builder import ColumnRef, Q, QueryBuilder, QueryValidationError, col
from repro.api.resultset import ResultSet
from repro.api.session import Comparison, ComparisonRow, Session, values_agree
from repro.engine import available_engines
from repro.faults import FaultPlan, FaultPoint, ResiliencePolicy

__all__ = [
    "ColumnRef",
    "Comparison",
    "ComparisonRow",
    "FaultPlan",
    "FaultPoint",
    "Q",
    "QueryBuilder",
    "QueryValidationError",
    "ResiliencePolicy",
    "ResultSet",
    "Session",
    "available_engines",
    "col",
    "values_agree",
]
