"""Figure 9(a)-(c): platform independence.

For each task and input size, run forced on each single platform and free;
the paper's claims: no single platform wins everywhere, the differences are
large, and Rheem always picks (nearly) the best platform.
"""

import pytest

from harness import Cell, print_series, run_forced
from tasks import build_crocopr, build_sgd, build_wordcount

#: Rheem's free choice may be this factor worse than the best forced run
#: (cardinality estimates are intervals, not oracles).
SLACK = 1.25


def _sweep(build_for, points, systems):
    rows = {}
    for x in points:
        cells = {}
        for name, platforms in systems.items():
            cells[name] = run_forced(lambda: build_for(x), platforms)
        rows[x] = cells
    return rows


def _assert_rheem_near_best(rows):
    for x, cells in rows.items():
        candidates = [c.seconds for name, c in cells.items()
                      if name != "Rheem" and c.seconds is not None]
        rheem = cells["Rheem"].seconds
        assert rheem is not None
        assert rheem <= min(candidates) * SLACK, (x, cells)


class TestFig9a:
    def test_wordcount_sweep(self):
        systems = {
            "JavaStreams*": {"pystreams"},
            "Spark*": {"sparklite"},
            "Flink*": {"flinklite"},
            "Rheem": None,
        }

        def scenario():
            rows = _sweep(lambda pct: build_wordcount(pct),
                          (1, 10, 50, 100), systems)
            print_series("Fig 9(a) WordCount (platform independence)",
                         "dataset %", rows)
            return rows

        rows = scenario()
        _assert_rheem_near_best(rows)
        # Single-threaded JavaStreams degrades hard at full size...
        assert rows[100]["JavaStreams*"].seconds > \
            5 * rows[100]["Flink*"].seconds
        # ...but wins (or ties) at 1% thanks to zero start-up.
        assert rows[1]["JavaStreams*"].seconds < \
            rows[1]["Spark*"].seconds * 1.5


class TestFig9b:
    def test_sgd_sweep(self):
        systems = {
            "JavaStreams*": {"pystreams"},
            "Spark*": {"sparklite"},
            "Flink*": {"flinklite"},
            "Rheem": None,
        }

        def scenario():
            rows = _sweep(
                lambda pct: build_sgd(percent=pct, iterations=100),
                (1, 25, 100), systems)
            print_series("Fig 9(b) SGD (platform independence)",
                         "dataset %", rows)
            return rows

        rows = scenario()
        _assert_rheem_near_best(rows)
        # Big-data platform overheads dominate on the small slices.
        assert rows[1]["JavaStreams*"].seconds < rows[1]["Spark*"].seconds


class TestFig9c:
    def test_crocopr_sweep(self):
        systems = {
            "JGraph*": {"pystreams", "jgraph"},
            "Giraph*": {"graphlite", "pystreams"},
            "Spark*": {"sparklite"},
            "Flink*": {"flinklite"},
            "Rheem": None,
        }

        def scenario():
            def build(pct, platforms):
                pin = "jgraph" if platforms == {"pystreams", "jgraph"} else None
                return build_crocopr(percent=pct, iterations=10,
                                     pin_pagerank=pin)

            rows = {}
            for pct in (1, 10, 25, 100):
                rows[pct] = {
                    name: run_forced(lambda: build(pct, platforms), platforms)
                    for name, platforms in systems.items()
                }
            print_series("Fig 9(c) CrocoPR (platform independence)",
                         "dataset %", rows)
            return rows

        rows = scenario()
        _assert_rheem_near_best(rows)
        # JGraph cannot process the large slices (paper: killed/OOM)...
        assert rows[100]["JGraph*"].note == "OOM"
        # ...but is the platform to beat on the small ones.
        assert rows[1]["JGraph*"].seconds < rows[1]["Giraph*"].seconds
        # At full size the vertex-centric platform wins among baselines.
        assert rows[100]["Giraph*"].seconds < rows[100]["Spark*"].seconds
