"""Declarative definitions of the 13 Star Schema Benchmark queries.

Every query is described as a :class:`SSBQuery`: filters applied directly to
fact-table columns, one :class:`JoinSpec` per dimension join (with the
dimension's own filters and the dimension column the query groups on, if
any), the group-by columns, and the aggregate expression.  The engines in
:mod:`repro.engine` interpret these specifications; keeping them declarative
lets the CPU, GPU, coprocessor, and baseline engines share one source of
truth for what each query computes.

String constants are written as strings here; the engines rewrite them into
dictionary codes against the loaded database (the paper's manual rewrite of
``s_region = 'ASIA'`` into ``s_region = 2``, Section 5.2).  Because the
dictionary encoder assigns codes in sorted order, range predicates on
encoded columns (q2.2's brand range) translate directly to code ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Union

#: Predicate operators understood by :mod:`repro.engine.expr`.
FILTER_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "between", "in")

#: Aggregate operators understood by :func:`repro.engine.plan.execute_query`.
AGGREGATE_OPS = ("sum", "count", "min", "max", "avg")

#: Two-column measure combinators (``lo_extendedprice * lo_discount`` etc.).
COMBINE_OPS = ("mul", "sub")


@dataclass(frozen=True)
class FilterSpec:
    """A single-column predicate.

    ``op`` is one of ``eq``, ``ne``, ``lt``, ``le``, ``gt``, ``ge``,
    ``between`` (inclusive two-sided range), or ``in`` (membership).
    ``encoded=True`` marks string constants that must be rewritten into
    dictionary codes before evaluation.
    """

    column: str
    op: str
    value: object
    encoded: bool = False

    # Boolean composition: specs combine directly into predicate trees, so
    # hand-written queries read the same as builder-made ones.
    def __and__(self, other: "PredLike") -> "Pred":
        return as_pred(self) & as_pred(other)

    def __or__(self, other: "PredLike") -> "Pred":
        return as_pred(self) | as_pred(other)

    def __invert__(self) -> "Pred":
        return ~as_pred(self)


def _render_spec(spec: FilterSpec) -> str:
    """SQL-flavoured rendering of one leaf predicate."""
    symbol = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
    quote = (lambda v: f"'{v}'" if isinstance(v, str) else str(v))
    if spec.op == "between":
        low, high = spec.value
        return f"{spec.column} BETWEEN {quote(low)} AND {quote(high)}"
    if spec.op == "in":
        return f"{spec.column} IN ({', '.join(quote(v) for v in spec.value)})"
    return f"{spec.column} {symbol[spec.op]} {quote(spec.value)}"


class Pred:
    """Base of the boolean predicate algebra.

    A predicate is a tree whose leaves are :class:`FilterSpec` single-column
    comparisons and whose inner nodes are :class:`And`, :class:`Or`, and
    :class:`Not`.  Trees compose with the bitwise operators (``&``, ``|``,
    ``~``), compare structurally, and are hashable, so they can sit inside
    the frozen :class:`SSBQuery`/:class:`JoinSpec` specs (and inside cache
    keys) exactly like the legacy ``tuple[FilterSpec, ...]`` conjunctions,
    which :func:`as_pred` normalizes into :class:`And` nodes.
    """

    __slots__ = ()

    def __and__(self, other: "PredLike") -> "Pred":
        return And(*self._flatten(And), *as_pred(other)._flatten(And))

    def __or__(self, other: "PredLike") -> "Pred":
        return Or(*self._flatten(Or), *as_pred(other)._flatten(Or))

    def __invert__(self) -> "Pred":
        return Not(self)

    def _flatten(self, kind: type) -> tuple["Pred", ...]:
        """Children to splice when combining under ``kind`` (associativity)."""
        if isinstance(self, kind):
            return self.children  # type: ignore[attr-defined]
        return (self,)

    # ------------------------------------------------------------------
    def leaves(self) -> Iterator[FilterSpec]:
        """Every :class:`FilterSpec` leaf of the tree, left to right."""
        raise NotImplementedError

    def map_leaves(self, fn: Callable[[FilterSpec], FilterSpec]) -> "Pred":
        """The same tree shape with every leaf spec replaced by ``fn(spec)``."""
        raise NotImplementedError

    def columns(self) -> tuple[str, ...]:
        """Distinct columns the tree references, in first-use order."""
        seen: list[str] = []
        for spec in self.leaves():
            if spec.column not in seen:
                seen.append(spec.column)
        return tuple(seen)


class Leaf(Pred):
    """A single-column comparison (one :class:`FilterSpec`)."""

    __slots__ = ("spec",)

    def __init__(self, spec: FilterSpec) -> None:
        if not isinstance(spec, FilterSpec):
            raise TypeError(f"Leaf wraps a FilterSpec, got {type(spec).__name__}")
        self.spec = spec

    def leaves(self) -> Iterator[FilterSpec]:
        yield self.spec

    def map_leaves(self, fn: Callable[[FilterSpec], FilterSpec]) -> "Pred":
        replaced = fn(self.spec)
        return self if replaced is self.spec else Leaf(replaced)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Leaf) and other.spec == self.spec

    def __hash__(self) -> int:
        return hash((Leaf, self.spec))

    def __repr__(self) -> str:
        return f"Leaf({self.spec!r})"

    def __str__(self) -> str:
        return _render_spec(self.spec)


class _Junction(Pred):
    """Shared machinery of the variadic :class:`And` / :class:`Or` nodes."""

    __slots__ = ("children",)
    _word = ""

    def __init__(self, *children: "PredLike") -> None:
        self.children: tuple[Pred, ...] = tuple(as_pred(child) for child in children)

    def leaves(self) -> Iterator[FilterSpec]:
        for child in self.children:
            yield from child.leaves()

    def map_leaves(self, fn: Callable[[FilterSpec], FilterSpec]) -> "Pred":
        return type(self)(*(child.map_leaves(fn) for child in self.children))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.children == self.children  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.children))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(repr(c) for c in self.children)})"

    def __str__(self) -> str:
        if not self.children:
            return "TRUE" if isinstance(self, And) else "FALSE"
        if len(self.children) == 1:
            return str(self.children[0])
        return "(" + f" {self._word} ".join(str(c) for c in self.children) + ")"


class And(_Junction):
    """Conjunction: true where every child is true (vacuously true if empty)."""

    __slots__ = ()
    _word = "AND"


class Or(_Junction):
    """Disjunction: true where any child is true (vacuously false if empty)."""

    __slots__ = ()
    _word = "OR"


class Not(Pred):
    """Negation of one child predicate."""

    __slots__ = ("child",)

    def __init__(self, child: "PredLike") -> None:
        self.child = as_pred(child)

    def leaves(self) -> Iterator[FilterSpec]:
        yield from self.child.leaves()

    def map_leaves(self, fn: Callable[[FilterSpec], FilterSpec]) -> "Pred":
        return Not(self.child.map_leaves(fn))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.child == self.child

    def __hash__(self) -> int:
        return hash((Not, self.child))

    def __repr__(self) -> str:
        return f"Not({self.child!r})"

    def __str__(self) -> str:
        return f"NOT {self.child}"


#: Anything the spec layer accepts where a predicate is expected.
PredLike = Union[Pred, FilterSpec, tuple]


def as_pred(obj) -> Pred:
    """Normalize ``obj`` into a :class:`Pred` tree.

    Accepts a tree (returned as-is), a bare :class:`FilterSpec` (wrapped in a
    :class:`Leaf`), or the legacy ``tuple``/``list`` of specs (wrapped in an
    :class:`And`), so every consumer -- mask evaluation, profiling, planning,
    validation -- can walk one shape.
    """
    if isinstance(obj, Pred):
        return obj
    if isinstance(obj, FilterSpec):
        return Leaf(obj)
    if obj is None:
        return And()
    if isinstance(obj, (tuple, list)):
        return And(*obj)
    raise TypeError(
        f"expected a Pred, FilterSpec, or tuple of FilterSpec, got {type(obj).__name__}"
    )


def conjuncts(pred: "PredLike") -> tuple[Pred, ...]:
    """The top-level AND terms of a predicate (the tree itself if not an And).

    The executor applies conjuncts one at a time so the profile records how
    the surviving-row count shrinks term by term, exactly as the legacy
    filter list did.
    """
    pred = as_pred(pred)
    if isinstance(pred, And):
        return pred.children
    return (pred,)


@dataclass(frozen=True)
class JoinSpec:
    """A join between the fact table and one dimension table.

    ``filters`` restricts the dimension before the hash-table build: either
    the legacy tuple of :class:`FilterSpec` (an implicit conjunction) or an
    arbitrary :class:`Pred` tree.
    """

    dimension: str
    fact_key: str
    dimension_key: str
    filters: "tuple[FilterSpec, ...] | Pred" = ()
    payload: str | None = None

    @property
    def predicate(self) -> Pred:
        """The dimension restriction as a normalized :class:`Pred` tree."""
        return as_pred(self.filters)


@dataclass(frozen=True)
class AggregateSpec:
    """The aggregate of a query.

    ``op`` is one of ``sum``, ``count``, ``min``, ``max``, or ``avg``,
    applied to a one- or two-column measure expression (``combine`` is
    ``"mul"`` or ``"sub"`` for two columns, ``None`` for one).  ``count``
    counts surviving rows and takes no measure columns.
    """

    columns: tuple[str, ...]
    combine: str | None = None  # None, "mul", or "sub"
    op: str = "sum"


@dataclass(frozen=True)
class SSBQuery:
    """One declarative star-schema query (canonical SSB or user-built).

    ``fact`` names the fact table the filters, join keys, and measures are
    evaluated against; the 13 canonical queries all use ``lineorder``, but
    :class:`repro.api.QueryBuilder` can target any star schema loaded into a
    :class:`~repro.storage.Database`.
    """

    name: str
    flight: int
    fact_filters: "tuple[FilterSpec, ...] | Pred"
    joins: tuple[JoinSpec, ...]
    group_by: tuple[str, ...]
    aggregate: AggregateSpec
    description: str = ""
    fact: str = "lineorder"

    def __hash__(self) -> int:
        """The hash of the field tuple, computed on first use and kept.

        A spec is a memo key on every served request, and hashing its
        nested filters and joins costs microseconds each time.  Computed
        lazily, not at construction: a hand-built spec holding a list
        constant still constructs, and only hashing it raises
        ``TypeError`` (the execution memo then leaves it uncached).
        Equality and repr are the dataclass's.
        """
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = _field_hash(self)
        return value

    def __getstate__(self) -> dict:
        # The kept hash is salted by this process's string-hash seed; a
        # copy unpickled elsewhere (a spawn-started shard worker) rehashes.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def has_group_by(self) -> bool:
        return bool(self.group_by)

    @property
    def predicate(self) -> Pred:
        """The fact-table restriction as a normalized :class:`Pred` tree."""
        return as_pred(self.fact_filters)


_HASHED_FIELDS = tuple(f.name for f in fields(SSBQuery) if f.compare)


def _field_hash(query: SSBQuery) -> int:
    """What the dataclass's own ``__hash__`` would return for ``query``."""
    return hash(tuple(getattr(query, name) for name in _HASHED_FIELDS))


def _q1(name: str, date_filters: tuple[FilterSpec, ...], discount, quantity) -> SSBQuery:
    """Query-flight-1 template: date-restricted scan of the fact table."""
    fact_filters = (
        FilterSpec("lo_discount", "between", discount),
        quantity,
    )
    return SSBQuery(
        name=name,
        flight=1,
        fact_filters=fact_filters,
        joins=(
            JoinSpec(
                dimension="date",
                fact_key="lo_orderdate",
                dimension_key="d_datekey",
                filters=date_filters,
            ),
        ),
        group_by=(),
        aggregate=AggregateSpec(columns=("lo_extendedprice", "lo_discount"), combine="mul"),
        description="revenue = SUM(lo_extendedprice * lo_discount) under date/discount/quantity filters",
    )


QUERIES: dict[str, SSBQuery] = {}

QUERIES["q1.1"] = _q1(
    "q1.1",
    (FilterSpec("d_year", "eq", 1993),),
    (1, 3),
    FilterSpec("lo_quantity", "lt", 25),
)
QUERIES["q1.2"] = _q1(
    "q1.2",
    (FilterSpec("d_yearmonthnum", "eq", 199401),),
    (4, 6),
    FilterSpec("lo_quantity", "between", (26, 35)),
)
QUERIES["q1.3"] = _q1(
    "q1.3",
    (FilterSpec("d_weeknuminyear", "eq", 6), FilterSpec("d_year", "eq", 1994)),
    (5, 7),
    FilterSpec("lo_quantity", "between", (26, 35)),
)

QUERIES["q2.1"] = SSBQuery(
    name="q2.1",
    flight=2,
    fact_filters=(),
    joins=(
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_region", "eq", "AMERICA", encoded=True),)),
        JoinSpec("part", "lo_partkey", "p_partkey",
                 (FilterSpec("p_category", "eq", "MFGR#12", encoded=True),), payload="p_brand1"),
        JoinSpec("date", "lo_orderdate", "d_datekey", (), payload="d_year"),
    ),
    group_by=("d_year", "p_brand1"),
    aggregate=AggregateSpec(columns=("lo_revenue",)),
    description="SUM(lo_revenue) by year and brand for one category in one region",
)

QUERIES["q2.2"] = SSBQuery(
    name="q2.2",
    flight=2,
    fact_filters=(),
    joins=(
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_region", "eq", "ASIA", encoded=True),)),
        JoinSpec("part", "lo_partkey", "p_partkey",
                 (FilterSpec("p_brand1", "between", ("MFGR#2221", "MFGR#2228"), encoded=True),),
                 payload="p_brand1"),
        JoinSpec("date", "lo_orderdate", "d_datekey", (), payload="d_year"),
    ),
    group_by=("d_year", "p_brand1"),
    aggregate=AggregateSpec(columns=("lo_revenue",)),
    description="SUM(lo_revenue) by year and brand for a brand range in ASIA",
)

QUERIES["q2.3"] = SSBQuery(
    name="q2.3",
    flight=2,
    fact_filters=(),
    joins=(
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_region", "eq", "EUROPE", encoded=True),)),
        JoinSpec("part", "lo_partkey", "p_partkey",
                 (FilterSpec("p_brand1", "eq", "MFGR#2221", encoded=True),), payload="p_brand1"),
        JoinSpec("date", "lo_orderdate", "d_datekey", (), payload="d_year"),
    ),
    group_by=("d_year", "p_brand1"),
    aggregate=AggregateSpec(columns=("lo_revenue",)),
    description="SUM(lo_revenue) by year and brand for a single brand in EUROPE",
)

_Q3_YEAR_RANGE = (FilterSpec("d_year", "between", (1992, 1997)),)

QUERIES["q3.1"] = SSBQuery(
    name="q3.1",
    flight=3,
    fact_filters=(),
    joins=(
        JoinSpec("customer", "lo_custkey", "c_custkey",
                 (FilterSpec("c_region", "eq", "ASIA", encoded=True),), payload="c_nation"),
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_region", "eq", "ASIA", encoded=True),), payload="s_nation"),
        JoinSpec("date", "lo_orderdate", "d_datekey", _Q3_YEAR_RANGE, payload="d_year"),
    ),
    group_by=("c_nation", "s_nation", "d_year"),
    aggregate=AggregateSpec(columns=("lo_revenue",)),
    description="revenue by customer nation, supplier nation, and year within ASIA",
)

QUERIES["q3.2"] = SSBQuery(
    name="q3.2",
    flight=3,
    fact_filters=(),
    joins=(
        JoinSpec("customer", "lo_custkey", "c_custkey",
                 (FilterSpec("c_nation", "eq", "UNITED STATES", encoded=True),), payload="c_city"),
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_nation", "eq", "UNITED STATES", encoded=True),), payload="s_city"),
        JoinSpec("date", "lo_orderdate", "d_datekey", _Q3_YEAR_RANGE, payload="d_year"),
    ),
    group_by=("c_city", "s_city", "d_year"),
    aggregate=AggregateSpec(columns=("lo_revenue",)),
    description="revenue by city pair and year within the United States",
)

_UK_CITIES = ("UNITED KI1", "UNITED KI5")

QUERIES["q3.3"] = SSBQuery(
    name="q3.3",
    flight=3,
    fact_filters=(),
    joins=(
        JoinSpec("customer", "lo_custkey", "c_custkey",
                 (FilterSpec("c_city", "in", _UK_CITIES, encoded=True),), payload="c_city"),
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_city", "in", _UK_CITIES, encoded=True),), payload="s_city"),
        JoinSpec("date", "lo_orderdate", "d_datekey", _Q3_YEAR_RANGE, payload="d_year"),
    ),
    group_by=("c_city", "s_city", "d_year"),
    aggregate=AggregateSpec(columns=("lo_revenue",)),
    description="revenue between two UK cities by year",
)

QUERIES["q3.4"] = SSBQuery(
    name="q3.4",
    flight=3,
    fact_filters=(),
    joins=(
        JoinSpec("customer", "lo_custkey", "c_custkey",
                 (FilterSpec("c_city", "in", _UK_CITIES, encoded=True),), payload="c_city"),
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_city", "in", _UK_CITIES, encoded=True),), payload="s_city"),
        JoinSpec("date", "lo_orderdate", "d_datekey",
                 (FilterSpec("d_yearmonth", "eq", "Dec1997", encoded=True),), payload="d_year"),
    ),
    group_by=("c_city", "s_city", "d_year"),
    aggregate=AggregateSpec(columns=("lo_revenue",)),
    description="revenue between two UK cities in one month",
)

QUERIES["q4.1"] = SSBQuery(
    name="q4.1",
    flight=4,
    fact_filters=(),
    joins=(
        JoinSpec("customer", "lo_custkey", "c_custkey",
                 (FilterSpec("c_region", "eq", "AMERICA", encoded=True),), payload="c_nation"),
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_region", "eq", "AMERICA", encoded=True),)),
        JoinSpec("part", "lo_partkey", "p_partkey",
                 (FilterSpec("p_mfgr", "in", ("MFGR#1", "MFGR#2"), encoded=True),)),
        JoinSpec("date", "lo_orderdate", "d_datekey", (), payload="d_year"),
    ),
    group_by=("d_year", "c_nation"),
    aggregate=AggregateSpec(columns=("lo_revenue", "lo_supplycost"), combine="sub"),
    description="profit by year and customer nation in the Americas",
)

QUERIES["q4.2"] = SSBQuery(
    name="q4.2",
    flight=4,
    fact_filters=(),
    joins=(
        JoinSpec("customer", "lo_custkey", "c_custkey",
                 (FilterSpec("c_region", "eq", "AMERICA", encoded=True),)),
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_region", "eq", "AMERICA", encoded=True),), payload="s_nation"),
        JoinSpec("part", "lo_partkey", "p_partkey",
                 (FilterSpec("p_mfgr", "in", ("MFGR#1", "MFGR#2"), encoded=True),), payload="p_category"),
        JoinSpec("date", "lo_orderdate", "d_datekey",
                 (FilterSpec("d_year", "in", (1997, 1998)),), payload="d_year"),
    ),
    group_by=("d_year", "s_nation", "p_category"),
    aggregate=AggregateSpec(columns=("lo_revenue", "lo_supplycost"), combine="sub"),
    description="profit by year, supplier nation, and category for 1997-1998",
)

QUERIES["q4.3"] = SSBQuery(
    name="q4.3",
    flight=4,
    fact_filters=(),
    joins=(
        JoinSpec("customer", "lo_custkey", "c_custkey",
                 (FilterSpec("c_region", "eq", "AMERICA", encoded=True),)),
        JoinSpec("supplier", "lo_suppkey", "s_suppkey",
                 (FilterSpec("s_nation", "eq", "UNITED STATES", encoded=True),), payload="s_city"),
        JoinSpec("part", "lo_partkey", "p_partkey",
                 (FilterSpec("p_category", "eq", "MFGR#14", encoded=True),), payload="p_brand1"),
        JoinSpec("date", "lo_orderdate", "d_datekey",
                 (FilterSpec("d_year", "in", (1997, 1998)),), payload="d_year"),
    ),
    group_by=("d_year", "s_city", "p_brand1"),
    aggregate=AggregateSpec(columns=("lo_revenue", "lo_supplycost"), combine="sub"),
    description="profit by year, supplier city, and brand for one category",
)

#: Queries in the order the paper's figures plot them.
QUERY_ORDER = [
    "q1.1", "q1.2", "q1.3",
    "q2.1", "q2.2", "q2.3",
    "q3.1", "q3.2", "q3.3", "q3.4",
    "q4.1", "q4.2", "q4.3",
]
