"""xDB: database functionality on top of Rheem.

A small declarative query layer over catalog tables, plus the
cross-community PageRank task ("CrocoPR") the paper evaluates: intersect
two community link datasets and run PageRank on the result — easy to state
here, painful in SQL, and a poor fit for a DBMS engine.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.context import DataQuanta, RheemContext
from ..core.executor import ExecutionResult
from ..workloads.graphs import parse_edge, parse_edges


class XdbQuery:
    """A minimal fluent select-where-join-aggregate query builder.

    Compiles to a Rheem plan; the optimizer decides whether each piece runs
    inside the relational engine or is shipped elsewhere.
    """

    def __init__(self, ctx: RheemContext, table: str,
                 projection: list[str] | None = None) -> None:
        self.ctx = ctx
        self._quanta = ctx.read_table(table, projection)

    def where(self, column: str, low: Any = None, high: Any = None,
              selectivity: float | None = None) -> "XdbQuery":
        """Keep rows with ``column`` in ``[low, high]``."""
        self._quanta = self._quanta.filter_range(column, low, high,
                                                 selectivity)
        return self

    def select(self, *columns: str) -> "XdbQuery":
        """Project to the given columns."""
        cols = list(columns)
        self._quanta = self._quanta.map(
            lambda r: {c: r[c] for c in cols},
            name=f"select({','.join(cols)})",
            bytes_per_record=24.0 * len(cols))
        return self

    def join(self, other: "XdbQuery", left_on: str, right_on: str,
             selectivity: float | None = None) -> "XdbQuery":
        """Inner-join on column equality; rows merge into one dict."""
        joined = self._quanta.join(
            other._quanta, lambda l: l[left_on], lambda r: r[right_on],
            selectivity=selectivity)
        self._quanta = joined.map(lambda p: {**p[0], **p[1]},
                                  name="merge-rows")
        return self

    def group_sum(self, key: str, value: Callable[[dict], float]
                  ) -> "XdbQuery":
        """Group by ``key`` and sum ``value(row)`` per group."""
        self._quanta = (self._quanta
                        .map(lambda r: (r[key], value(r)),
                             name=f"pre-agg({key})", bytes_per_record=24)
                        .reduce_by_key(lambda t: t[0],
                                       lambda a, b: (a[0], a[1] + b[1])))
        return self

    def quanta(self) -> DataQuanta:
        """The underlying DataQuanta (to keep composing manually)."""
        return self._quanta

    def run(self, **execute_kwargs) -> ExecutionResult:
        """Optimize and execute the query."""
        return self._quanta.execute(**execute_kwargs)


def crocopr_quanta(ctx: RheemContext, community_a: str, community_b: str,
                   iterations: int = 10) -> DataQuanta:
    """Cross-community PageRank: intersect two link datasets, rank the
    shared subgraph, return the vertices sorted by rank."""
    edges_a = (ctx.read_text_file(community_a)
               .map(parse_edge, name="parse-a", bytes_per_record=16,
                    batch_udf=parse_edges))
    edges_b = (ctx.read_text_file(community_b)
               .map(parse_edge, name="parse-b", bytes_per_record=16,
                    batch_udf=parse_edges))
    shared = edges_a.intersect(edges_b).distinct()
    ranks = shared.pagerank(iterations=iterations)
    return ranks.sort(key=lambda vr: -vr[1])


def crocopr(ctx: RheemContext, community_a: str, community_b: str,
            iterations: int = 10, **execute_kwargs) -> ExecutionResult:
    """Run cross-community PageRank end to end."""
    return crocopr_quanta(ctx, community_a, community_b,
                          iterations).execute(**execute_kwargs)


def crocopr_from_tables(ctx: RheemContext, table_a: str, table_b: str,
                        iterations: int = 10,
                        **execute_kwargs) -> ExecutionResult:
    """Cross-community PageRank with the link datasets resident in the
    relational store (Figure 2(c): the *mandatory* cross-platform case —
    PageRank cannot run inside the DBMS, so Rheem must move the data out)."""
    edges_a = (ctx.read_table(table_a)
               .map(lambda r: (r["src"], r["dst"]), name="rows-a",
                    bytes_per_record=16))
    edges_b = (ctx.read_table(table_b)
               .map(lambda r: (r["src"], r["dst"]), name="rows-b",
                    bytes_per_record=16))
    shared = edges_a.intersect(edges_b).distinct()
    ranks = shared.pagerank(iterations=iterations)
    return ranks.sort(key=lambda vr: -vr[1]).execute(**execute_kwargs)
