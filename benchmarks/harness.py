"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark module reproduces one table/figure of the paper: it runs
the corresponding workload on the simulated cluster, prints the paper-style
series (simulated seconds per system and sweep point) and asserts the
*shape* the paper reports — who wins, rough factors, where crossovers and
failures fall.  Each scenario runs once as a plain pytest test; wall time
is perfbench's business, not this suite's.

Every printed cell is also held to ``expected/figures.json`` exactly
(title -> row -> system): ``print_series`` fails the test that printed a
table whose cells moved.  ``pytest benchmarks --write-expected``
re-records the file from a run over the whole suite.
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

    def recorded(self) -> str:
        """The cell as ``expected/figures.json`` holds it: the seconds at
        full ``repr`` (followed by the note, e.g. the chosen platforms),
        or the failure marker."""
        if self.seconds is None:
            return self.note or "-"
        return f"{self.seconds!r} {self.note}".rstrip()


#: Title -> row -> system -> recorded cell that ``print_series`` compares
#: against; conftest loads it, and leaves it ``None`` under
#: ``--write-expected``.
expected: dict | None = None
#: Every table printed in this session, in the same shape.
printed: dict = {}


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
    """Print a paper-style results table: one line per sweep point, and
    check its cells against the recorded table."""
    systems = sorted({s for cells in rows.values() for s in cells})
    width = max(12, *(len(s) + 2 for s in systems))
    print(f"\n=== {title} ===")
    print(f"{x_label:>14} | " + " | ".join(f"{s:>{width}}" for s in systems))
    for x, cells in rows.items():
        line = " | ".join(f"{str(cells.get(s, Cell(None))):>{width}}"
                          for s in systems)
        print(f"{str(x):>14} | {line}")
    table = {str(x): {s: cells[s].recorded() for s in systems if s in cells}
             for x, cells in rows.items()}
    printed[title] = table
    if expected is not None and table != expected.get(title):
        recorded = expected.get(title, {})
        moved = [f"{x} / {s}: {recorded.get(x, {}).get(s)} -> {cell}"
                 for x, cells in table.items() for s, cell in cells.items()
                 if recorded.get(x, {}).get(s) != cell]
        raise AssertionError(
            f"{title}: cells differ from expected/figures.json "
            f"(re-record with --write-expected): {moved or table}")


def fresh_context(**kwargs) -> RheemContext:
    return RheemContext(**kwargs)
