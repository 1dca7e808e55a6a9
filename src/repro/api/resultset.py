"""First-class, decoded query results.

Engines return :class:`~repro.engine.result.QueryResult`, whose ``value``
is the *raw* answer: a scalar, or a dict mapping tuples of group keys --
dictionary codes for encoded columns -- to aggregates.  That shape is right
for engine-to-engine comparison but wrong for humans: q2.1's group key
``(1997, 253)`` means nothing until ``253`` is decoded back through
``part.dictionaries["p_brand1"]`` into ``"MFGR#2239"``.

:class:`ResultSet` is the user-facing result the :class:`~repro.api.Session`
returns.  It keeps the underlying :class:`~repro.engine.result.QueryResult`
(and delegates its timing/traffic surface), names the output columns, and
materializes decoded records: each group-by column is traced to the
dimension join that produced it and run backwards through that table's
dictionary when one exists (numeric payloads like ``d_year`` pass through
unchanged).
"""

from __future__ import annotations

import csv
import io
from typing import Iterator

from repro.engine.result import QueryResult
from repro.ssb.queries import SSBQuery
from repro.storage import Database


def measure_label(query: SSBQuery) -> str:
    """The output column name of the query's aggregate, SQL style."""
    agg = query.aggregate
    if agg.op == "count":
        return "count(*)"
    if agg.combine is not None:
        symbol = "*" if agg.combine == "mul" else "-"
        return f"{agg.op}({agg.columns[0]}{symbol}{agg.columns[1]})"
    return f"{agg.op}({agg.columns[0]})"


def _decoders(db: Database, query: SSBQuery) -> list:
    """Per group-by column, the dictionary that decodes it (or ``None``).

    Group-by columns are payloads of dimension joins, so each one is looked
    up in its own dimension's dictionaries; a fact-table group-by column
    (not produced by any join) falls back to the fact table's dictionaries.
    """
    payload_table = {join.payload: join.dimension for join in query.joins if join.payload}
    decoders = []
    for column in query.group_by:
        table_name = payload_table.get(column, query.fact)
        table = db.table(table_name) if table_name in db else None
        decoders.append(table.dictionaries.get(column) if table is not None else None)
    return decoders


class ResultSet:
    """A decoded, tabular view of one query's answer on one engine.

    Construct via :meth:`from_result`.  The set behaves like a small named
    table: ``columns`` names the group-by columns plus the aggregate,
    ``records`` holds one decoded tuple per output row, and
    ``sort_values`` / ``head`` / ``to_csv`` reshape it.  The
    raw engine answer stays reachable -- ``value``, ``simulated_ms``,
    ``time``, ``traffic``, ``stats`` delegate to the underlying
    :class:`~repro.engine.result.QueryResult` -- so everything that worked
    against the raw result keeps working against a ResultSet.
    """

    def __init__(
        self,
        result: QueryResult,
        spec: SSBQuery,
        columns: tuple[str, ...],
        records: tuple[tuple, ...],
    ) -> None:
        self.result = result
        self.spec = spec
        self.columns = columns
        self.records = records

    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, db: Database, spec: SSBQuery, result: QueryResult) -> "ResultSet":
        """Decode a raw engine result against the database it ran on."""
        label = measure_label(spec)
        if not spec.has_group_by:
            records = () if result.value is None else ((result.value,),)
            return cls(result, spec, (label,), records)
        columns = spec.group_by + (label,)
        # Column by column: transpose the group keys, decode each column's
        # codes in one pass, and zip the records back together.
        labels = [
            codes if decoder is None else decoder.decode(codes)
            for codes, decoder in zip(zip(*result.value), _decoders(db, spec))
        ]
        return cls(result, spec, columns, tuple(zip(*labels, result.value.values())))

    # ------------------------------------------------------------------
    # Delegation to the underlying engine result.
    @property
    def query(self) -> str:
        return self.result.query

    @property
    def engine(self) -> str:
        return self.result.engine

    @property
    def value(self):
        """The raw (un-decoded) engine answer."""
        return self.result.value

    @property
    def simulated_ms(self) -> float:
        return self.result.simulated_ms

    @property
    def time(self):
        return self.result.time

    @property
    def traffic(self):
        return self.result.traffic

    @property
    def stats(self) -> dict:
        return self.result.stats

    @property
    def rows(self) -> int:
        """Raw result-row count (1 for a scalar aggregate), as before."""
        return self.result.rows

    # ------------------------------------------------------------------
    def _replace_records(self, records: tuple[tuple, ...]) -> "ResultSet":
        return ResultSet(self.result, self.spec, self.columns, records)

    def _column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"result of {self.query!r} has no column {name!r}; available: {list(self.columns)}"
            ) from None

    def sort_values(self, by: "str | list[str] | None" = None, *, ascending: bool = True) -> "ResultSet":
        """A copy ordered by ``by`` (default: all group-by columns in order)."""
        if by is None:
            names = list(self.columns[:-1]) or [self.columns[-1]]
        elif isinstance(by, str):
            names = [by]
        else:
            names = list(by)
        indices = [self._column_index(name) for name in names]
        ordered = sorted(
            self.records,
            key=lambda record: tuple(record[i] for i in indices),
            reverse=not ascending,
        )
        return self._replace_records(tuple(ordered))

    def head(self, n: int = 10) -> "ResultSet":
        """A copy keeping only the first ``n`` records."""
        return self._replace_records(self.records[:n])

    def to_csv(self, path: "str | None" = None) -> str:
        """The decoded table as CSV text (also written to ``path`` if given)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.records)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return text

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.records)

    def __str__(self) -> str:
        cells = [[_format(v) for v in record] for record in self.records]
        widths = [
            max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
            for i, name in enumerate(self.columns)
        ]
        header = "  ".join(name.ljust(width) for name, width in zip(self.columns, widths))
        rule = "  ".join("-" * width for width in widths)
        lines = [header.rstrip(), rule]
        for row in cells:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        lines.append(f"[{len(self.records)} rows; {self.query} on {self.engine}]")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultSet({self.query!r}, engine={self.engine!r}, columns={list(self.columns)}, "
            f"records={len(self.records)})"
        )


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}" if value != int(value) else f"{value:.1f}"
    return str(value)
