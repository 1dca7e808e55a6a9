"""A fluent, validating builder for star-schema queries.

The 13 canonical SSB queries in :mod:`repro.ssb.queries` are hand-written
:class:`~repro.ssb.queries.SSBQuery` dataclasses.  :class:`QueryBuilder`
lets users compose *arbitrary* star-schema queries -- any combination of
fact predicates, filtered dimension joins, group-bys, and ``sum`` /
``count`` / ``min`` / ``max`` / ``avg`` aggregates -- and emits the same
declarative spec, so every engine runs them unchanged::

    from repro import Q, Session, col, generate_ssb

    db = generate_ssb(scale_factor=0.01, seed=7)
    q = (
        Q("lineorder")
        .where(col("lo_discount").between(1, 3) | (col("lo_quantity") < 25))
        .join("date", on=("lo_orderdate", "d_datekey"),
              filters=[("d_year", "eq", 1993)], payload="d_year")
        .group_by("d_year")
        .agg("sum", "lo_extendedprice", "lo_discount", combine="mul")
    )
    result = Session(db).run(q, engine="gpu")

Predicates come in two flavours.  :meth:`QueryBuilder.filter` adds one
``(column, op, value)`` comparison -- successive calls AND together, the
seed behaviour.  :meth:`QueryBuilder.where` accepts full boolean
expression trees built from :func:`col` references with the ``&``, ``|``,
and ``~`` operators (:class:`~repro.ssb.queries.And` /
:class:`~repro.ssb.queries.Or` / :class:`~repro.ssb.queries.Not` nodes),
so disjunctions and negations reach every engine; multiple ``where`` calls
also AND together.

Builders are immutable: every method returns a new builder, so a common
prefix can be shared between query variants.  Structural validation (known
operators, join/aggregate arity, duplicate joins) happens eagerly at each
call; schema validation (tables, columns, dictionary encodings) happens in
:meth:`QueryBuilder.build` against a :class:`~repro.storage.Database`.
"""

from __future__ import annotations

import copy
from typing import Iterable, Sequence

from repro.ssb.queries import (
    AGGREGATE_OPS,
    COMBINE_OPS,
    FILTER_OPS,
    AggregateSpec,
    And,
    FilterSpec,
    JoinSpec,
    Leaf,
    Pred,
    SSBQuery,
)
from repro.storage import Database, Table


class QueryValidationError(ValueError):
    """A query under construction is malformed or inconsistent with the schema."""


def _as_filter_spec(spec) -> FilterSpec:
    """Normalize a ``FilterSpec`` or a ``(column, op, value[, encoded])`` tuple."""
    if isinstance(spec, FilterSpec):
        out = spec
    elif isinstance(spec, Sequence) and not isinstance(spec, str) and len(spec) in (3, 4):
        out = FilterSpec(*spec)
    else:
        raise QueryValidationError(
            f"filter must be a FilterSpec or a (column, op, value[, encoded]) tuple, got {spec!r}"
        )
    # Sets have no order, so (low, high) would come out in hash order.
    if out.op == "between" and isinstance(out.value, (set, frozenset)):
        raise QueryValidationError(
            f"'between' on {out.column!r} needs an ordered (low, high) pair, got a set"
        )
    # Materialize multi-value operands into tuples: a generator/iterator would
    # be consumed by validation and evaluate as empty at execution time.
    if (
        out.op in ("between", "in")
        and isinstance(out.value, Iterable)
        and not isinstance(out.value, (str, tuple))
    ):
        out = FilterSpec(out.column, out.op, tuple(out.value), out.encoded)
    _check_filter_shape(out)
    return out


def _check_filter_shape(spec: FilterSpec) -> None:
    if spec.op not in FILTER_OPS:
        raise QueryValidationError(
            f"unknown filter operator {spec.op!r} on column {spec.column!r}; "
            f"expected one of {FILTER_OPS}"
        )
    if spec.value is None:
        raise QueryValidationError(
            f"filter {spec.op!r} on {spec.column!r} needs a comparison value, got None"
        )
    operands = spec.value if isinstance(spec.value, (tuple, list)) else (spec.value,)
    if any(isinstance(v, (ColumnRef, Pred, FilterSpec)) for v in operands):
        # NumPy's reflected comparison against such an object would not
        # produce a row mask, silently selecting every row.
        raise QueryValidationError(
            f"filter {spec.op!r} on {spec.column!r} compares against {spec.value!r}; "
            f"column-to-column predicates are not supported -- compare against a constant"
        )
    if (
        spec.op not in ("between", "in")
        and isinstance(spec.value, Iterable)
        and not isinstance(spec.value, str)
    ):
        raise QueryValidationError(
            f"filter {spec.op!r} on {spec.column!r} needs a scalar comparison value, "
            f"got {spec.value!r}"
        )
    if spec.op == "between":
        if not (isinstance(spec.value, Sequence) and not isinstance(spec.value, str) and len(spec.value) == 2):
            raise QueryValidationError(
                f"'between' on {spec.column!r} needs a (low, high) pair, got {spec.value!r}"
            )
    if spec.op == "in":
        if isinstance(spec.value, str) or not isinstance(spec.value, Iterable):
            raise QueryValidationError(
                f"'in' on {spec.column!r} needs an iterable of values, got {spec.value!r}"
            )


def _filter_values(spec: FilterSpec) -> tuple:
    if spec.op in ("between", "in"):
        return tuple(spec.value)
    return (spec.value,)


class ColumnRef:
    """A column reference that turns comparisons into predicate leaves.

    ``col("lo_quantity") < 25`` yields a :class:`~repro.ssb.queries.Leaf`;
    leaves compose into trees with ``&``, ``|``, and ``~``.  Note that the
    bitwise operators bind tighter than comparisons, so comparison leaves
    need parentheses inside a composition: ``(col("a") < 1) | (col("b") > 2)``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise QueryValidationError(f"col() needs a non-empty column name, got {name!r}")
        self.name = name

    def _leaf(self, op: str, value, encoded: bool = False) -> Leaf:
        spec = _as_filter_spec(FilterSpec(self.name, op, value, encoded))
        return Leaf(spec)

    # Comparison operators.  __eq__/__ne__ intentionally build predicates
    # instead of comparing references, mirroring NumPy/pandas expressions;
    # ColumnRef is therefore unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, value) -> Leaf:  # type: ignore[override]
        return self._leaf("eq", value)

    def __ne__(self, value) -> Leaf:  # type: ignore[override]
        return self._leaf("ne", value)

    def __lt__(self, value) -> Leaf:
        return self._leaf("lt", value)

    def __le__(self, value) -> Leaf:
        return self._leaf("le", value)

    def __gt__(self, value) -> Leaf:
        return self._leaf("gt", value)

    def __ge__(self, value) -> Leaf:
        return self._leaf("ge", value)

    # Named forms, for readers who prefer words over operators.
    def eq(self, value) -> Leaf:
        return self._leaf("eq", value)

    def between(self, low, high) -> Leaf:
        """Inclusive two-sided range: ``low <= column <= high``."""
        return self._leaf("between", (low, high))

    def isin(self, *values) -> Leaf:
        """Membership in an explicit value set."""
        if len(values) == 1 and isinstance(values[0], Iterable) and not isinstance(values[0], str):
            values = tuple(values[0])
        return self._leaf("in", values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"col({self.name!r})"


def col(name: str) -> ColumnRef:
    """A fact- or dimension-column reference for the predicate DSL."""
    return ColumnRef(name)


def _as_pred(obj) -> Pred:
    """Normalize builder predicate input into a structurally valid tree.

    Accepts a :class:`~repro.ssb.queries.Pred` tree (its leaves are
    re-validated: trees can be hand-assembled from raw specs), a bare
    :class:`~repro.ssb.queries.FilterSpec`, or a ``(column, op, value)``
    tuple.  A bare :class:`ColumnRef` is rejected with a pointer at the
    missing comparison.
    """
    if isinstance(obj, ColumnRef):
        raise QueryValidationError(
            f"{obj!r} is a bare column reference; compare it to something "
            f"(e.g. col({obj.name!r}) < 10) to make a predicate"
        )
    if isinstance(obj, Pred):
        return obj.map_leaves(_as_filter_spec)
    return Leaf(_as_filter_spec(obj))


class QueryBuilder:
    """Fluent builder emitting :class:`~repro.ssb.queries.SSBQuery` specs."""

    def __init__(self, fact: str = "lineorder", *, db: Database | None = None) -> None:
        self._fact = fact
        self._db = db
        self._name: str | None = None
        self._flight = 0
        self._description = ""
        #: Top-level AND terms of the fact predicate, each an arbitrary tree.
        self._filters: tuple[Pred, ...] = ()
        self._joins: tuple[JoinSpec, ...] = ()
        self._group_by: tuple[str, ...] = ()
        self._aggregate: AggregateSpec | None = None

    # ------------------------------------------------------------------
    def _clone(self) -> "QueryBuilder":
        return copy.copy(self)

    # ------------------------------------------------------------------
    def filter(self, column: str, op: str, value, *, encoded: bool = False) -> "QueryBuilder":
        """Add one predicate on a fact-table column (successive calls AND)."""
        return self.where(FilterSpec(column, op, value, encoded))

    def where(self, *predicates) -> "QueryBuilder":
        """AND boolean predicate trees onto the fact-table restriction.

        Each argument is a :class:`~repro.ssb.queries.Pred` tree (built from
        :func:`col` comparisons with ``&``/``|``/``~``), a bare
        :class:`~repro.ssb.queries.FilterSpec`, or a ``(column, op, value)``
        tuple.  Arguments -- and successive ``where``/``filter`` calls --
        combine conjunctively; disjunction and negation live *inside* a
        tree::

            Q().where(col("lo_discount").between(1, 3) | (col("lo_quantity") < 25))
            Q().where(~col("s_region").eq("ASIA"))
        """
        if not predicates:
            raise QueryValidationError("where() needs at least one predicate")
        out = self._clone()
        out._filters = self._filters + tuple(_as_pred(p) for p in predicates)
        return out

    def join(
        self,
        dimension: str,
        *,
        on: tuple[str, str],
        filters: "Iterable | Pred | FilterSpec" = (),
        payload: str | None = None,
    ) -> "QueryBuilder":
        """Join the fact table to ``dimension``.

        ``on`` is the ``(fact_key, dimension_key)`` pair; ``filters`` are
        predicates on the dimension's own columns -- a list of ``(column,
        op, value)`` tuples (ANDed) or one boolean tree; ``payload`` names
        the dimension column carried into the group-by (if any).
        """
        if isinstance(on, str) or not (isinstance(on, Sequence) and len(on) == 2):
            raise QueryValidationError(
                f"join on {dimension!r} needs on=(fact_key, dimension_key), got {on!r}"
            )
        # Role-playing dimensions (same table via different fact keys) are
        # allowed; only an exact repeat of the same edge is a mistake.
        if any(join.dimension == dimension and join.fact_key == on[0] for join in self._joins):
            raise QueryValidationError(
                f"duplicate join with dimension {dimension!r} on fact key {on[0]!r}"
            )
        if payload is not None and any(join.payload == payload for join in self._joins):
            raise QueryValidationError(
                f"payload {payload!r} is already produced by another join; "
                f"payload names must be unique"
            )
        if isinstance(filters, (Pred, FilterSpec)):
            join_filters: "tuple[FilterSpec, ...] | Pred" = _as_pred(filters)
        else:
            join_filters = tuple(_as_filter_spec(f) for f in filters)
        spec = JoinSpec(
            dimension=dimension,
            fact_key=on[0],
            dimension_key=on[1],
            filters=join_filters,
            payload=payload,
        )
        out = self._clone()
        out._joins = self._joins + (spec,)
        return out

    def group_by(self, *columns: str) -> "QueryBuilder":
        """Group the aggregate by dimension payload columns."""
        merged = self._group_by + columns
        duplicates = {c for c in merged if merged.count(c) > 1}
        if duplicates:
            raise QueryValidationError(f"duplicate group-by column(s): {sorted(duplicates)}")
        out = self._clone()
        out._group_by = merged
        return out

    def agg(self, op: str, *columns: str, combine: str | None = None) -> "QueryBuilder":
        """Set the aggregate: ``op`` over a one- or two-column expression.

        ``count`` takes no measure columns; the other ops take one column,
        or two with ``combine`` (``"mul"`` or ``"sub"``).
        """
        if op not in AGGREGATE_OPS:
            raise QueryValidationError(
                f"unknown aggregate op {op!r}; expected one of {AGGREGATE_OPS}"
            )
        if op == "count":
            if columns or combine is not None:
                raise QueryValidationError("'count' counts surviving rows: no columns or combine")
        else:
            if len(columns) not in (1, 2):
                raise QueryValidationError(f"aggregate {op!r} takes 1 or 2 columns, got {len(columns)}")
            if len(columns) == 2 and combine not in COMBINE_OPS:
                raise QueryValidationError(
                    f"two-column aggregates need combine= one of {COMBINE_OPS}, got {combine!r}"
                )
            if len(columns) == 1 and combine is not None:
                raise QueryValidationError("combine= only applies to two-column aggregates")
        out = self._clone()
        out._aggregate = AggregateSpec(columns=columns, combine=combine, op=op)
        return out

    def named(
        self, name: str, *, flight: int | None = None, description: str | None = None
    ) -> "QueryBuilder":
        """Set the query's name (and optionally flight / description)."""
        out = self._clone()
        out._name = name
        if flight is not None:
            out._flight = flight
        if description is not None:
            out._description = description
        return out

    # ------------------------------------------------------------------
    def build(self, db: Database | None = None) -> SSBQuery:
        """Validate and emit the immutable query spec.

        When a :class:`~repro.storage.Database` is available (passed here or
        at construction) every table and column reference is checked against
        it, and string predicates on dictionary-encoded columns are marked
        ``encoded`` automatically.
        """
        if self._aggregate is None:
            raise QueryValidationError(
                "query has no aggregate; call .agg(...) before .build()"
            )

        payloads = [join.payload for join in self._joins if join.payload is not None]
        missing_groups = [c for c in self._group_by if c not in payloads]
        if missing_groups:
            raise QueryValidationError(
                f"group-by column(s) {missing_groups} are not payloads of any join; "
                f"available payloads: {payloads}"
            )

        database = db if db is not None else self._db
        conjuncts = self._filters
        joins = self._joins
        if database is not None:
            if self._fact not in database:
                raise QueryValidationError(
                    f"unknown fact table {self._fact!r}; database has {sorted(database.tables)}"
                )
            fact = database.table(self._fact)
            conjuncts = tuple(self._validated_pred(fact, p) for p in conjuncts)
            joins = tuple(self._validated_join(database, fact, join) for join in self._joins)
            for column in self._aggregate.columns:
                self._require_column(fact, column, "aggregate measure")
                if column in fact.dictionaries:
                    raise QueryValidationError(
                        f"aggregate measure {column!r} is a dictionary-encoded string "
                        f"column; aggregating its codes is meaningless"
                    )

        return SSBQuery(
            name=self._name or "custom",
            flight=self._flight,
            fact_filters=self._emit_fact_filters(conjuncts),
            joins=joins,
            group_by=self._group_by,
            aggregate=self._aggregate,
            description=self._description,
            fact=self._fact,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _emit_fact_filters(terms: "tuple[Pred, ...]") -> "tuple[FilterSpec, ...] | Pred":
        """Emit the spec's fact restriction in its most interoperable shape.

        A pure conjunction of single-column comparisons comes out as the
        legacy ``tuple[FilterSpec, ...]``, so specs round-trip unchanged
        through code that predates predicate trees; anything with an OR/NOT
        somewhere stays a tree (collapsed to the lone term when possible).
        """
        if all(isinstance(term, Leaf) for term in terms):
            return tuple(term.spec for term in terms)
        if len(terms) == 1:
            return terms[0]
        return And(*terms)

    @staticmethod
    def _require_column(table: Table, column: str, role: str) -> None:
        if column not in table:
            raise QueryValidationError(
                f"{role} column {column!r} does not exist in table {table.name!r}; "
                f"available: {sorted(table.columns)}"
            )

    def _validated_pred(self, table: Table, pred: Pred) -> Pred:
        """Schema-validate every leaf of a tree (columns, dictionary rewrites)."""
        return pred.map_leaves(lambda spec: self._validated_filter(table, spec))

    def _validated_filter(self, table: Table, spec: FilterSpec) -> FilterSpec:
        self._require_column(table, spec.column, "filter")
        has_dictionary = spec.column in table.dictionaries
        if spec.encoded and not has_dictionary:
            raise QueryValidationError(
                f"filter on {spec.column!r} is marked encoded but table {table.name!r} "
                f"has no dictionary for it"
            )
        if not spec.encoded and has_dictionary:
            if any(isinstance(v, str) for v in _filter_values(spec)):
                spec = FilterSpec(spec.column, spec.op, spec.value, encoded=True)
            else:
                raise QueryValidationError(
                    f"column {spec.column!r} of table {table.name!r} is dictionary encoded; "
                    f"filter it with its string values (got {spec.value!r}, which would "
                    f"compare raw dictionary codes)"
                )
        if spec.encoded:
            # Execution stringifies every constant before the dictionary
            # lookup, so validate non-string values the same way rather than
            # letting them surface later as a bare KeyError.
            encoder = table.dictionaries[spec.column]
            unknown = [v for v in _filter_values(spec) if str(v) not in encoder]
            if unknown:
                raise QueryValidationError(
                    f"value(s) {unknown} are not in the dictionary of "
                    f"{table.name!r}.{spec.column!r}"
                )
        return spec

    def _validated_join(self, database: Database, fact: Table, join: JoinSpec) -> JoinSpec:
        if join.dimension not in database:
            raise QueryValidationError(
                f"unknown dimension table {join.dimension!r}; database has {sorted(database.tables)}"
            )
        dimension = database.table(join.dimension)
        self._require_column(fact, join.fact_key, "join fact-key")
        self._require_column(dimension, join.dimension_key, "join dimension-key")
        if join.payload is not None:
            self._require_column(dimension, join.payload, "join payload")
        if isinstance(join.filters, Pred):
            filters: "tuple[FilterSpec, ...] | Pred" = self._validated_pred(dimension, join.filters)
        else:
            filters = tuple(self._validated_filter(dimension, f) for f in join.filters)
        if filters != join.filters:
            join = JoinSpec(join.dimension, join.fact_key, join.dimension_key, filters, join.payload)
        return join

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryBuilder(fact={self._fact!r}, filters={len(self._filters)}, "
            f"joins={[j.dimension for j in self._joins]}, group_by={self._group_by}, "
            f"agg={self._aggregate})"
        )


def Q(fact: str = "lineorder", *, db: Database | None = None) -> QueryBuilder:
    """Start a fluent query over ``fact`` (optionally bound to a database)."""
    return QueryBuilder(fact, db=db)
