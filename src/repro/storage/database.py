"""A small in-memory database catalogue."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.memory import Device
from repro.storage.table import Table


@dataclass
class Database:
    """A named collection of tables."""

    name: str = "db"
    tables: dict[str, Table] = field(default_factory=dict)

    def add_table(self, table: Table) -> None:
        if table.name in self.tables:
            raise ValueError(f"database {self.name!r} already has a table named {table.name!r}")
        self.tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"database {self.name!r} has no table {name!r}; available: {sorted(self.tables)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __getitem__(self, name: str) -> Table:
        return self.table(name)

    @property
    def nbytes(self) -> int:
        """Total size of all tables in bytes."""
        return sum(table.nbytes for table in self.tables.values())

    def to_device(self, device: Device) -> "Database":
        """Return a database with every table marked resident on ``device``."""
        moved = Database(name=self.name)
        for table in self.tables.values():
            moved.add_table(table.to_device(device))
        return moved

    def summary(self) -> str:
        """A human-readable one-line-per-table summary."""
        lines = [f"database {self.name!r}: {len(self.tables)} tables, {self.nbytes / 1e9:.2f} GB"]
        for table in self.tables.values():
            lines.append(
                f"  {table.name:<12} rows={table.num_rows:>12,} cols={table.num_columns:>3} "
                f"size={table.nbytes / 1e6:10.1f} MB"
            )
        return "\n".join(lines)
