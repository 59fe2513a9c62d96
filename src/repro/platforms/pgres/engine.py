"""A miniature relational engine (the Postgres analog's storage layer).

Implements heap tables of dict-shaped rows, ordered (B-tree-style) indexes
with range scans, a tiny catalog with statistics, and the relation payload
the platform's channel carries — enough substance for indexed selections,
projections and hash joins to behave (and cost) like a single-node DBMS in
the reproduction's experiments.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class Relation:
    """Payload of a ``pgres.relation`` channel.

    Attributes:
        rows: Dict-shaped tuples — a list, or a
            :class:`~repro.core.batch.RecordBatch` of them.
        base_table: The catalog table these rows come from *unmodified*
            (enables index scans); ``None`` for derived intermediates.
    """

    rows: list[dict | Any]
    base_table: str | None = None

    def __len__(self) -> int:
        return len(self.rows)


class TableNotFound(KeyError):
    """Raised when a statement references a missing table."""


class DuplicateTable(ValueError):
    """Raised when creating a table that already exists."""


@dataclass
class OrderedIndex:
    """A B-tree-style ordered index over one column."""

    column: str
    keys: list[Any] = field(default_factory=list, repr=False)
    row_ids: list[int] = field(default_factory=list, repr=False)

    def build(self, rows: list[dict]) -> None:
        """(Re)build the index over the current rows."""
        order = sorted(range(len(rows)), key=lambda i: rows[i][self.column])
        self.row_ids = order
        self.keys = [rows[i][self.column] for i in order]

    def range_row_ids(self, low: Any = None, high: Any = None) -> list[int]:
        """Row ids with column values in ``[low, high]`` (inclusive)."""
        lo = 0 if low is None else bisect_left(self.keys, low)
        hi = len(self.keys) if high is None else bisect_right(self.keys, high)
        return self.row_ids[lo:hi]


@dataclass
class Table:
    """A heap table plus simulated-size metadata."""

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list, repr=False)
    indexes: dict[str, OrderedIndex] = field(default_factory=dict)
    sim_factor: float = 1.0
    bytes_per_row: float = 100.0

    @property
    def sim_row_count(self) -> float:
        """Simulated number of rows."""
        return len(self.rows) * self.sim_factor

    @property
    def sim_mb(self) -> float:
        """Simulated table size in MB."""
        return self.sim_row_count * self.bytes_per_row / 1e6

    def bytes_for_projection(self, projection: list[str] | None) -> float:
        """Approximate per-row bytes when only some columns survive."""
        if not projection or not self.columns:
            return self.bytes_per_row
        keep = len([c for c in projection if c in self.columns])
        return self.bytes_per_row * keep / len(self.columns)


class PgresDatabase:
    """The catalog: named tables, indexes, and ANALYZE-style statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(
        self,
        name: str,
        columns: list[str],
        rows: Iterable[dict] = (),
        sim_factor: float = 1.0,
        bytes_per_row: float = 100.0,
    ) -> Table:
        """Create and optionally populate a table.

        Raises:
            DuplicateTable: If the name is taken.
        """
        if name in self._tables:
            raise DuplicateTable(name)
        stored = [dict(r) if isinstance(r, dict) else r for r in rows]
        table = Table(name, list(columns), stored,
                      sim_factor=sim_factor, bytes_per_row=bytes_per_row)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table.

        Raises:
            TableNotFound: If no such table exists.
        """
        try:
            del self._tables[name]
        except KeyError:
            raise TableNotFound(name) from None

    def table(self, name: str) -> Table:
        """Look up a table.

        Raises:
            TableNotFound: If no such table exists.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFound(name) from None

    def has_table(self, name: str) -> bool:
        """Whether a table of this name exists."""
        return name in self._tables

    def insert_many(self, name: str, rows: Iterable[dict]) -> int:
        """Append rows; indexes are rebuilt lazily on next use."""
        table = self.table(name)
        added = 0
        for row in rows:
            table.rows.append(dict(row) if isinstance(row, dict) else row)
            added += 1
        for index in table.indexes.values():
            index.build(table.rows)
        return added

    def create_index(self, table_name: str, column: str) -> OrderedIndex:
        """Build an ordered index on one column.

        Raises:
            ValueError: If the column does not exist.
        """
        table = self.table(table_name)
        if column not in table.columns:
            raise ValueError(f"{table_name} has no column {column!r}")
        index = OrderedIndex(column)
        index.build(table.rows)
        table.indexes[column] = index
        return index

    def index_for(self, table_name: str, column: str) -> OrderedIndex | None:
        """The index on ``column``, if one was created."""
        return self.table(table_name).indexes.get(column)

    def analyze(self) -> dict[str, float]:
        """Simulated row counts per table (feeds cardinality estimation)."""
        return {name: t.sim_row_count for name, t in self._tables.items()}

    def row_bytes(self) -> dict[str, float]:
        """Per-row simulated byte widths (feeds data-movement planning)."""
        return {name: t.bytes_per_row for name, t in self._tables.items()}

    def table_names(self) -> list[str]:
        """All catalog table names, sorted."""
        return sorted(self._tables)
