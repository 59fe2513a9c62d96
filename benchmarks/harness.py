"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark module reproduces one table/figure of the paper: it runs
the corresponding workload on the simulated cluster, prints the paper-style
series (simulated seconds per system and sweep point) and asserts the
*shape* the paper reports — who wins, rough factors, where crossovers and
failures fall.  Each scenario runs once as a plain pytest test; wall time
is perfbench's business, not this suite's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import RheemContext
from repro.core.optimizer import OptimizationError
from repro.simulation.cluster import SimulatedOutOfMemory

#: Friendly display names for the simulated platforms.
DISPLAY = {
    "pystreams": "JavaStreams*",
    "sparklite": "Spark*",
    "flinklite": "Flink*",
    "pgres": "Postgres*",
    "graphlite": "Giraph*",
    "jgraph": "JGraph*",
}


@dataclass
class Cell:
    """One measurement: simulated seconds or a failure marker."""

    seconds: float | None
    note: str = ""

    def __str__(self) -> str:
        if self.note and self.seconds is not None:
            return self.note  # custom formatting (e.g. dollar amounts)
        if self.seconds is None:
            return self.note or "-"
        return f"{self.seconds:,.1f}"


def run_forced(build, platforms: set[str] | None) -> Cell:
    """Run a freshly built task, optionally pinned to a platform set.

    ``build`` must create a new context + plan each call (operator objects
    are single-use).  OOM and infeasible pins become marker cells, like the
    crosses and stars in the paper's figures.
    """
    try:
        dq_or_result = build()
        if hasattr(dq_or_result, "execute"):
            kwargs = {}
            if platforms is not None:
                kwargs["allowed_platforms"] = set(platforms) | {"driver"}
            result = dq_or_result.execute(**kwargs)
        else:
            result = dq_or_result
        return Cell(result.runtime)
    except SimulatedOutOfMemory:
        return Cell(None, "OOM")
    except OptimizationError:
        return Cell(None, "n/a")


def print_series(title: str, x_label: str,
                 rows: dict[str, dict[str, Cell]]) -> None:
    """Print a paper-style results table: one line per sweep point."""
    systems = sorted({s for cells in rows.values() for s in cells})
    width = max(12, *(len(s) + 2 for s in systems))
    print(f"\n=== {title} ===")
    print(f"{x_label:>14} | " + " | ".join(f"{s:>{width}}" for s in systems))
    for x, cells in rows.items():
        line = " | ".join(f"{str(cells.get(s, Cell(None))):>{width}}"
                          for s in systems)
        print(f"{str(x):>14} | {line}")


def fresh_context(**kwargs) -> RheemContext:
    return RheemContext(**kwargs)
