"""What every job's output is checked against.

Two kinds of expectation, both independent of the code under test at the
time of the run:

* **references** computed here in plain Python from the generated inputs
  (``collections.Counter`` for wordcount, a hash join over the generated
  tables for TPC-H Q5 and the Q5-style documents), compared with a
  relative tolerance of 1e-9 on floats;
* **golden digests** committed under ``expected/`` for the kinds whose
  answer has no short independent derivation (cross-community PageRank,
  SGD weights) or is cheapest to pin by value (``wide_merge``,
  ``chain100``).  A digest is the SHA-256 of the output with floats
  rounded to 9 significant digits; there is one per data variant.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import Counter
from pathlib import Path
from typing import Any, Iterable

REL_TOL = 1e-9
DIGESTS_PATH = Path(__file__).resolve().parent / "expected" / "digests.json"


# ------------------------------------------------------------- references
def wordcount_reference(lines: Iterable[str],
                        stop: str | None = None) -> list[tuple[str, int]]:
    """``(word, count)`` pairs over whitespace-split lines, minus ``stop``."""
    counts = Counter(word for line in lines for word in line.split())
    counts.pop(stop, None)
    return sorted(counts.items())


def q5_rows(tables: dict[str, list[dict]], region: str = "ASIA",
            year: int = 1994) -> list[tuple[str, int, float]]:
    """Q5's joined line items: ``(nation name, suppkey, revenue)``.

    Region -> nation -> customer -> orders of ``year`` -> line items whose
    supplier sits in the customer's nation: the five-way join every Q5
    variant in the benchmark shares, as dictionary probes.
    """
    regionkeys = {r["regionkey"] for r in tables["region"]
                  if r["name"] == region}
    nations = {n["nationkey"]: n["name"] for n in tables["nation"]
               if n["regionkey"] in regionkeys}
    customers = {c["custkey"]: c["nationkey"] for c in tables["customer"]
                 if c["nationkey"] in nations}
    orders = {o["orderkey"]: customers[o["custkey"]]
              for o in tables["orders"]
              if o["orderyear"] == year and o["custkey"] in customers}
    suppliers = {s["suppkey"]: s["nationkey"] for s in tables["supplier"]}
    rows = []
    for item in tables["lineitem"]:
        nation = orders.get(item["orderkey"])
        if nation is not None and suppliers.get(item["suppkey"]) == nation:
            rows.append((nations[nation], item["suppkey"],
                         item["extendedprice"] * (1.0 - item["discount"])))
    return rows


def q5_tail(rows: list[tuple[str, int, float]], tail: str,
            tag: int | None = None) -> list:
    """The expected output of one Q5 variant over :func:`q5_rows`.

    ``revenue``: revenue per nation, highest first (TPC-H Q5 itself; with
    ``tag`` every row carries that constant as a third field);
    ``count``: line items per nation by name; ``supplier``: revenue per
    supplier, highest first; ``total``: the one grand total.
    """
    if tail == "total":
        return [math.fsum(r[2] for r in rows)] if rows else []
    if tail == "count":
        return sorted(Counter(r[0] for r in rows).items())
    column = 1 if tail == "supplier" else 0
    sums: dict[Any, list[float]] = {}
    for row in rows:
        sums.setdefault(row[column], []).append(row[2])
    ranked = sorted(((key, math.fsum(values)) for key, values in sums.items()),
                    key=lambda kv: -kv[1])
    if tag is not None:
        return [(key, value, tag) for key, value in ranked]
    return ranked


# -------------------------------------------------------------- comparison
def matches(actual: Any, expected: Any) -> bool:
    """Structural equality; floats to ``REL_TOL``; lists equal tuples
    (JSON replies carry every tuple as a list)."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(actual, (int, float))
                and isinstance(expected, (int, float))
                and not isinstance(actual, bool)
                and math.isclose(actual, expected, rel_tol=REL_TOL,
                                 abs_tol=0.0))
    if isinstance(expected, (list, tuple)):
        return (isinstance(actual, (list, tuple))
                and len(actual) == len(expected)
                and all(matches(a, e) for a, e in zip(actual, expected)))
    return type(actual) is type(expected) and actual == expected


def matches_unordered(actual: Any, expected: list) -> bool:
    """:func:`matches` for outputs whose row order the program leaves open
    (``expected`` is sorted; rows are tuples of comparable scalars)."""
    if not isinstance(actual, (list, tuple)):
        return False
    try:
        rows = sorted(tuple(row) if isinstance(row, list) else row
                      for row in actual)
    except TypeError:
        return False
    # Exact equality first: it is the usual case and 20 times cheaper
    # than the tolerant walk, which matters to a client that checks a
    # 460-row reply between two 2 ms requests.
    return rows == expected or matches(rows, expected)


# ----------------------------------------------------------------- digests
def _canonical(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return repr(value)


def digest(output: Any) -> str:
    """SHA-256 of ``output``, floats rounded to 9 significant digits."""
    return hashlib.sha256(_canonical(output).encode()).hexdigest()


@functools.lru_cache(maxsize=1)
def load_digests() -> dict[str, list[str]]:
    """``{"<data tag>.<kind>": [digest per data variant]}`` as committed."""
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)
