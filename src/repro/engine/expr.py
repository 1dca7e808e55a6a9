"""Predicate evaluation against columnar data.

Predicates arrive either as the legacy flat sequences of
:class:`~repro.ssb.queries.FilterSpec` (implicit conjunctions) or as
arbitrary boolean :class:`~repro.ssb.queries.Pred` trees; both are
normalized through :func:`~repro.ssb.queries.as_pred` and evaluated
recursively into NumPy boolean masks by :func:`evaluate_pred`.
"""

from __future__ import annotations

import numpy as np

from repro.ssb.queries import And, FilterSpec, Leaf, Not, Or, as_pred
from repro.storage import Table


def resolve_filter_value(table: Table, spec: FilterSpec):
    """Rewrite a filter's constant(s) into dictionary codes when needed."""
    if not spec.encoded:
        return spec.value
    encoder = table.dictionaries.get(spec.column)
    if encoder is None:
        raise KeyError(
            f"filter on {spec.column!r} is marked encoded but table {table.name!r} has no "
            f"dictionary for it"
        )
    if spec.op == "in":
        return tuple(encoder.encode_value(v) for v in spec.value)
    if spec.op == "between":
        low, high = spec.value
        return (encoder.encode_value(low), encoder.encode_value(high))
    return encoder.encode_value(spec.value)


def compare_values(values: np.ndarray, spec: FilterSpec, constant) -> np.ndarray:
    """Apply one filter's comparison to an array of (possibly gathered) values."""
    op = spec.op
    if op == "eq":
        return values == constant
    if op == "ne":
        return values != constant
    if op == "lt":
        return values < constant
    if op == "le":
        return values <= constant
    if op == "gt":
        return values > constant
    if op == "ge":
        return values >= constant
    if op == "between":
        low, high = constant
        keep = values >= low
        keep &= values <= high
        return keep
    if op == "in":
        return np.isin(values, np.asarray(constant))
    raise ValueError(f"unsupported filter operator {op!r}")


def _check_filter_types(values: np.ndarray, spec: FilterSpec, constant) -> None:
    if not spec.encoded and np.issubdtype(values.dtype, np.number):
        operands = (
            tuple(constant)
            if isinstance(constant, (tuple, list, set, frozenset, np.ndarray))
            else (constant,)
        )
        if any(isinstance(v, str) for v in operands):
            # NumPy would resolve str-vs-numeric comparisons to a scalar False,
            # silently selecting zero rows instead of failing.
            raise TypeError(
                f"filter on {spec.column!r} compares string constant(s) against a numeric "
                f"column; mark the filter encoded=True or build the query against the "
                f"database so constants are rewritten to dictionary codes"
            )


def evaluate_filter(table: Table, spec: FilterSpec) -> np.ndarray:
    """Evaluate one filter against a table, returning a boolean mask."""
    values = table[spec.column]
    constant = resolve_filter_value(table, spec)
    _check_filter_types(values, spec, constant)
    return compare_values(values, spec, constant)


def evaluate_pred(table: Table, pred) -> np.ndarray:
    """Evaluate a predicate tree against ``table``, returning a boolean mask.

    ``pred`` may be a :class:`~repro.ssb.queries.Pred`, a bare
    :class:`~repro.ssb.queries.FilterSpec`, or a tuple of specs (the legacy
    conjunction shape).  An empty :class:`~repro.ssb.queries.And` selects
    every row; an empty :class:`~repro.ssb.queries.Or` selects none (the
    identities of the respective operators).
    """
    pred = as_pred(pred)
    if isinstance(pred, Leaf):
        return evaluate_filter(table, pred.spec)
    if isinstance(pred, And):
        mask = np.ones(table.num_rows, dtype=bool)
        for child in pred.children:
            mask &= evaluate_pred(table, child)
        return mask
    if isinstance(pred, Or):
        mask = np.zeros(table.num_rows, dtype=bool)
        for child in pred.children:
            mask |= evaluate_pred(table, child)
        return mask
    if isinstance(pred, Not):
        return ~evaluate_pred(table, pred.child)
    raise TypeError(f"unsupported predicate node {type(pred).__name__}")


def evaluate_pred_at(table: Table, pred, sel: "np.ndarray | slice") -> np.ndarray:
    """Evaluate a predicate tree only at the rows named by ``sel``.

    The late-materialization counterpart of :func:`evaluate_pred`: instead
    of producing a full-width mask, each referenced column is read once at
    the width of ``sel`` and every comparison runs over those values.
    ``sel`` is either a row-id vector -- a gather, ``table[column][sel]`` --
    or a ``slice`` of contiguous rows, which reads a zero-copy view: the
    sequential tile scan the paper prices at ``bytes / bandwidth``.  Returns
    one boolean per selected row, so ``sel[evaluate_pred_at(table, pred,
    sel)]`` is the refined selection vector (for a slice, the mask equals
    ``evaluate_pred(table, pred)[sel]``).
    """
    contiguous = isinstance(sel, slice)
    width = len(range(*sel.indices(table.num_rows))) if contiguous else sel.shape[0]
    gathered: dict[str, np.ndarray] = {}

    def gather(column: str) -> np.ndarray:
        values = gathered.get(column)
        if values is None:
            values = gathered[column] = table[column][sel]
        return values

    return _walk_at(table, as_pred(pred), gather, width)


def _walk_at(table: Table, node, gather, width: int) -> np.ndarray:
    """:func:`evaluate_pred_at`'s recursion over one node.

    Module-level on purpose: a nested function that calls itself forms a
    reference cycle with its own closure, which would keep the gathered
    columns and the selection vector alive until the cycle collector runs.
    """
    if isinstance(node, Leaf):
        spec = node.spec
        constant = resolve_filter_value(table, spec)
        values = gather(spec.column)
        _check_filter_types(values, spec, constant)
        return compare_values(values, spec, constant)
    if isinstance(node, And):
        keep = np.ones(width, dtype=bool)
        for child in node.children:
            keep &= _walk_at(table, child, gather, width)
        return keep
    if isinstance(node, Or):
        keep = np.zeros(width, dtype=bool)
        for child in node.children:
            keep |= _walk_at(table, child, gather, width)
        return keep
    if isinstance(node, Not):
        return ~_walk_at(table, node.child, gather, width)
    raise TypeError(f"unsupported predicate node {type(node).__name__}")


# ----------------------------------------------------------------------
# Predicate shape: how a tree maps onto selection hardware.
#
# A conjunction of single-column comparisons evaluates as one fused,
# branch-free pass (the paper's Section 4.2 ``pred``/``simd_pred`` selection
# variants); every OR alternative beyond straight-line evaluation costs an
# extra predicated pass on SIMD CPUs, a short-circuit branch on compiled
# scalar code, and a whole extra operator (select + union of selection
# vectors) on operator-at-a-time engines.  These helpers measure that shape
# so the filter stages of the physical plan record it and the engine cost
# models can charge branchy disjunctions differently from fused band
# predicates.
# ----------------------------------------------------------------------

def predicate_leaf_count(pred) -> int:
    """Number of single-column comparisons in the tree."""
    return sum(1 for _ in as_pred(pred).leaves())


def predicate_or_branches(pred) -> int:
    """Extra disjunctive alternatives: ``sum(len(children) - 1)`` over Or nodes.

    Zero for any pure conjunction (including a fused band predicate such as
    ``between``), so conjunctive plans cost exactly what they did before
    disjunction support existed.
    """
    pred = as_pred(pred)
    if isinstance(pred, Leaf):
        return 0
    if isinstance(pred, Not):
        return predicate_or_branches(pred.child)
    extra = max(len(pred.children) - 1, 0) if isinstance(pred, Or) else 0
    return extra + sum(predicate_or_branches(child) for child in pred.children)
