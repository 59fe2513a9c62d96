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
        return [{"orderkey": i,
                 "custkey": rng.randrange(self.actual_rows("customer")),
                 "orderyear": rng.choice([1993, 1994, 1995])}
                for i in range(self.actual_rows("orders"))]

    def lineitem(self) -> list[dict]:
        """Line items referencing orders and suppliers, with prices."""
        rng = random.Random(self.seed + 4)
        return [{"orderkey": rng.randrange(self.actual_rows("orders")),
                 "suppkey": rng.randrange(self.actual_rows("supplier")),
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


def _text_field(flat, offset, flen, kind):
    """One variable-offset field of every row as a fixed-width ``S`` or
    ``U`` array.

    ``flat`` is the codepoint view of all lines end to end, ``offset`` each
    row's field start in it and ``flen`` the field lengths.  The
    ``(rows, max_field_width)`` character matrix behind the result is
    zero-padded past each field's end and filled one character position at
    a time, so nothing wider than one of its columns is ever allocated.
    """
    import numpy as np

    n = len(flen)
    maxw = int(flen.max()) if n else 0
    if not maxw:
        return np.full(n, "" if kind == "U" else b"", dtype=f"{kind}1")
    field = np.zeros((n, maxw),
                     dtype=np.uint32 if kind == "U" else np.uint8)
    last = flat.size - 1
    for j in range(maxw):
        chars = flat[np.minimum(offset + j, last)]
        field[:, j] = np.where(j < flen, chars, 0)
    return field.view(f"{kind}{maxw}").reshape(n)


def _int_field(flat, offset, flen):
    """Parse a digit field by Horner's rule, one character position at a
    time — no per-element parse calls at all.

    Any non-digit character (sign, blank), an empty or an overflow-width
    field routes the whole column through numpy's C string parser, which
    raises on exactly the inputs ``int()`` raises on.
    """
    import numpy as np

    maxw = int(flen.max()) if len(flen) else 0
    value = np.zeros(len(flen), dtype=np.int64)
    last = flat.size - 1
    clean = maxw <= 18 and not (flen == 0).any()
    for j in range(maxw if clean else 0):
        digit = flat[np.minimum(offset + j, last)].astype(np.int64) - ord("0")
        active = j < flen
        if (((digit < 0) | (digit > 9)) & active).any():
            clean = False
            break
        value = np.where(active, value * 10 + digit, value)
    if clean:
        return value
    return _text_field(flat, offset, flen, "S").astype(np.int64)


def parse_batch(table: str, batch):
    """Columnar :func:`parse_row` over one batch of CSV lines.

    Works on the codepoint view of the lines column: one pass finds the
    ``|`` separators, integer columns go through a Horner digit kernel,
    float columns are gathered into a narrow fixed-width window for numpy's
    C parser.  int64/float64 parsing of decimal text matches Python's
    ``int``/``float`` exactly, so the rows equal the per-record parse
    bit-for-bit; anything the fast path cannot prove it handles exactly
    (non-ASCII, trimmed NULs, a malformed field count) falls back to the
    per-record parse.
    """
    import numpy as np

    from ..core.batch import RecordBatch

    columns = _CSV_COLUMNS[table]
    lines = batch.array(0)
    if lines is None or lines.dtype.kind != "U" or not len(lines):
        # Non-string (or no) payload: per-record fallback.
        return [parse_row(table, line) for line in batch]
    n = len(lines)
    width = lines.dtype.itemsize // 4
    flat = lines.view(np.uint32)
    if flat.max() > 127:  # non-ASCII: keep the per-record parse exact
        return [parse_row(table, line) for line in batch]
    base = np.arange(n) * width
    seps = np.flatnonzero(flat == ord("|"))
    if len(seps) != n * (len(columns) - 1):
        return [parse_row(table, line) for line in batch]
    sep_pos = seps.reshape(n, len(columns) - 1) - base[:, None]
    if ((sep_pos < 0) | (sep_pos >= width)).any():  # uneven field counts
        return [parse_row(table, line) for line in batch]
    lens = np.strings.str_len(lines)
    out = []
    for i, (__, convert) in enumerate(_CSV_FIELDS[table]):
        start = sep_pos[:, i - 1] + 1 if i else 0
        end = sep_pos[:, i] if i < len(columns) - 1 else lens
        offset, flen = base + start, end - start
        if convert is str:
            out.append(_text_field(flat, offset, flen, "U"))
        elif convert is float:
            out.append(_text_field(flat, offset, flen,
                                   "S").astype(np.float64))
        else:
            out.append(_int_field(flat, offset, flen))
    return RecordBatch.from_columns(columns, out)
