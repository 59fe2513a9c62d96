"""Figure 11: Rheem vs the Musketeer-style baseline on CrocoPR.

The paper's claims: Rheem is one order of magnitude (up to 85x) faster,
and — crucially — its runtime stays (nearly) flat as iterations grow,
because the post-preparation PageRank runs in-process while Musketeer
recompiles and re-materializes per iteration.
"""

from harness import Cell, print_series, run_forced
from repro.baselines import MusketeerRunner
from tasks import build_crocopr, crocopr_edge_lines


class TestFig11:
    def test_dataset_size_sweep(self):
        def scenario():
            runner = MusketeerRunner()
            rows = {}
            for pct in (1, 50, 100):
                lines, sim_factor, bpe = crocopr_edge_lines(pct)
                mk = runner.crocopr(lines, sim_factor, bpe, iterations=10)
                rheem = run_forced(
                    lambda: build_crocopr(percent=pct, iterations=10), None)
                rows[f"{pct}%"] = {
                    "Musketeer*": Cell(mk.runtime),
                    "Rheem": Cell(rheem.seconds),
                }
            print_series("Fig 11 (left): CrocoPR, 10 iterations",
                         "dataset %", rows)
            return rows

        rows = scenario()
        for cells in rows.values():
            assert cells["Rheem"].seconds * 5 < cells["Musketeer*"].seconds

    def test_iteration_sweep(self):
        def scenario():
            runner = MusketeerRunner()
            rows = {}
            for iters in (1, 10, 50, 100):
                lines, sim_factor, bpe = crocopr_edge_lines(10)
                mk = runner.crocopr(lines, sim_factor, bpe, iterations=iters)
                rheem = run_forced(
                    lambda: build_crocopr(percent=10, iterations=iters), None)
                rows[iters] = {
                    "Musketeer*": Cell(mk.runtime),
                    "Rheem": Cell(rheem.seconds),
                }
            print_series("Fig 11 (right): CrocoPR at 10%", "iterations",
                         rows)
            return rows

        rows = scenario()
        # Order-of-magnitude gap that WIDENS with iterations (paper: up to
        # ~85x at 100 iterations).
        gap_100 = (rows[100]["Musketeer*"].seconds
                   / rows[100]["Rheem"].seconds)
        gap_10 = rows[10]["Musketeer*"].seconds / rows[10]["Rheem"].seconds
        assert gap_100 > 20
        assert gap_100 > gap_10
        # Rheem's growth over 1->100 iterations is modest; Musketeer's is
        # essentially linear in the iteration count.
        rheem_growth = rows[100]["Rheem"].seconds / rows[1]["Rheem"].seconds
        musketeer_growth = (rows[100]["Musketeer*"].seconds
                            / rows[1]["Musketeer*"].seconds)
        assert musketeer_growth > 5 * rheem_growth
