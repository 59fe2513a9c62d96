"""A TPC-H-lite data generator for the polystore experiments.

Generates the six tables touched by TPC-H Q5 with the standard per-scale-
factor row counts carried by ``sim_factor`` (actual rows stay small).  The
Figure 2(d) placement spreads them across three stores: LINEITEM and ORDERS
on HDFS, CUSTOMER/SUPPLIER/REGION in the relational engine, NATION on the
local file system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .text import parse_delimited

#: TPC-H rows per scale factor 1.
SF1_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
}

#: Approximate simulated bytes per row.
ROW_BYTES = {
    "region": 40.0,
    "nation": 60.0,
    "supplier": 140.0,
    "customer": 180.0,
    "orders": 100.0,
    "lineitem": 120.0,
}

#: Actual in-memory rows generated per table.
ACTUAL_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 80,
    "customer": 400,
    "orders": 800,
    "lineitem": 3_200,
}

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]


@dataclass
class TpchLite:
    """Deterministic TPC-H-lite generator for one scale factor."""

    scale_factor: float = 1.0
    seed: int = 47
    #: Multiplier on the ACTUAL generated rows (region and nation stay at
    #: their fixed TPC-H sizes).  ``sim_factor`` shrinks in proportion, so
    #: simulated volumes — and therefore plans and simulated runtimes — are
    #: independent of it; benchmarks raise it to measure real throughput.
    actual_scale: float = 1.0

    def actual_rows(self, table: str) -> int:
        """Actual in-memory rows generated for ``table``."""
        if table in ("region", "nation"):
            return ACTUAL_ROWS[table]
        return max(1, int(ACTUAL_ROWS[table] * self.actual_scale))

    def sim_factor(self, table: str) -> float:
        """Simulated rows per actual row for ``table`` at this scale."""
        return (SF1_ROWS[table] * self.scale_factor) / self.actual_rows(table)

    # ------------------------------------------------------------- tables
    def region(self) -> list[dict]:
        """The five TPC-H regions."""
        return [{"regionkey": i, "name": REGIONS[i]}
                for i in range(ACTUAL_ROWS["region"])]

    def nation(self) -> list[dict]:
        """The 25 TPC-H nations (5 per region)."""
        return [{"nationkey": i, "regionkey": i % 5, "name": f"NATION{i:02d}"}
                for i in range(ACTUAL_ROWS["nation"])]

    def supplier(self) -> list[dict]:
        """Suppliers with random nations."""
        rng = random.Random(self.seed + 1)
        return [{"suppkey": i, "nationkey": rng.randrange(25),
                 "name": f"Supplier#{i:09d}"}
                for i in range(self.actual_rows("supplier"))]

    def customer(self) -> list[dict]:
        """Customers with random nations."""
        rng = random.Random(self.seed + 2)
        return [{"custkey": i, "nationkey": rng.randrange(25),
                 "name": f"Customer#{i:09d}"}
                for i in range(self.actual_rows("customer"))]

    def orders(self) -> list[dict]:
        """Orders referencing customers, spread over three order years."""
        rng = random.Random(self.seed + 3)
        customers = self.actual_rows("customer")
        return [{"orderkey": i,
                 "custkey": rng.randrange(customers),
                 "orderyear": rng.choice((1993, 1994, 1995))}
                for i in range(self.actual_rows("orders"))]

    def lineitem(self) -> list[dict]:
        """Line items referencing orders and suppliers, with prices."""
        rng = random.Random(self.seed + 4)
        orders = self.actual_rows("orders")
        suppliers = self.actual_rows("supplier")
        return [{"orderkey": rng.randrange(orders),
                 "suppkey": rng.randrange(suppliers),
                 "extendedprice": round(rng.uniform(1_000.0, 90_000.0), 2),
                 "discount": round(rng.uniform(0.0, 0.1), 2)}
                for i in range(self.actual_rows("lineitem"))]

    def table(self, name: str) -> list[dict]:
        """Generate a table by name."""
        return getattr(self, name)()

    # ----------------------------------------------------------- placement
    def place_for_q5(self, ctx) -> None:
        """Spread the Q5 tables across the three stores (Figure 2(d))."""
        for name in ("lineitem", "orders"):
            rows = self.table(name)
            ctx.vfs.write(f"hdfs://tpch/{name}.csv",
                          [_to_csv(name, r) for r in rows],
                          sim_factor=self.sim_factor(name),
                          bytes_per_record=ROW_BYTES[name])
        ctx.vfs.write("file://tpch/nation.csv",
                      [_to_csv("nation", r) for r in self.nation()],
                      sim_factor=self.sim_factor("nation"),
                      bytes_per_record=ROW_BYTES["nation"])
        for name in ("customer", "supplier", "region"):
            rows = self.table(name)
            ctx.pgres.create_table(name, sorted(rows[0]), rows,
                                   sim_factor=self.sim_factor(name),
                                   bytes_per_row=ROW_BYTES[name])

    def place_all_in_pgres(self, ctx) -> None:
        """Everything inside the relational engine (single-platform case)."""
        for name in SF1_ROWS:
            rows = self.table(name)
            ctx.pgres.create_table(name, sorted(rows[0]), rows,
                                   sim_factor=self.sim_factor(name),
                                   bytes_per_row=ROW_BYTES[name])

    def place_all_on_hdfs(self, ctx) -> None:
        """Everything on HDFS as CSV (single-platform Spark case)."""
        for name in SF1_ROWS:
            rows = self.table(name)
            ctx.vfs.write(f"hdfs://tpch/{name}.csv",
                          [_to_csv(name, r) for r in rows],
                          sim_factor=self.sim_factor(name),
                          bytes_per_record=ROW_BYTES[name])


_CSV_COLUMNS = {
    "region": ("regionkey", "name"),
    "nation": ("nationkey", "regionkey", "name"),
    "supplier": ("suppkey", "nationkey", "name"),
    "customer": ("custkey", "nationkey", "name"),
    "orders": ("orderkey", "custkey", "orderyear"),
    "lineitem": ("orderkey", "suppkey", "extendedprice", "discount"),
}

#: Columns that are not integers.
_COLUMN_TYPES = {"name": str, "extendedprice": float, "discount": float}

#: Per table, each CSV column with its converter — resolved once here, not
#: per field of every parsed row.
_CSV_FIELDS = {
    table: tuple((column, _COLUMN_TYPES.get(column, int))
                 for column in columns)
    for table, columns in _CSV_COLUMNS.items()
}


def _to_csv(table: str, row: dict) -> str:
    return "|".join(str(row[c]) for c in _CSV_COLUMNS[table])


def parse_row(table: str, line: str) -> dict:
    """Parse a generated ``|``-separated line back into a row dict."""
    return {column: convert(value) for (column, convert), value
            in zip(_CSV_FIELDS[table], line.split("|"))}


def parse_batch(table: str, batch):
    """Columnar :func:`parse_row` over one batch of ``|``-separated lines,
    exactly: :func:`~repro.workloads.text.parse_delimited`'s byte pass, or
    the per-record parse where that pass declines."""
    from ..core.batch import RecordBatch

    lines = batch.to_records()
    columns = parse_delimited(
        lines, "|", [convert for __, convert in _CSV_FIELDS[table]])
    if columns is None:
        return [parse_row(table, line) for line in lines]
    return RecordBatch.from_columns(_CSV_COLUMNS[table], columns)
