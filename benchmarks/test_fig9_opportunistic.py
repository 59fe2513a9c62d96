"""Figure 9(d)-(f): opportunistic cross-platform processing.

Re-enable all platform combinations and show that mixing platforms beats
every single platform: WordCount gains a little (driver-fetch trick), SGD
gains a lot (loop body off the big-data platform), CrocoPR picks the
"surprising" Flink+JGraph combination and stays flat as iterations grow.
"""

from harness import Cell, print_series, run_forced
from tasks import build_crocopr, build_sgd, build_wordcount


class TestFig9d:
    def test_wordcount_with_mixing(self):
        def scenario():
            rows = {}
            for pct in (50, 100, 200):
                rows[pct] = {
                    "Spark*": run_forced(lambda: build_wordcount(pct),
                                         {"sparklite"}),
                    "Flink*": run_forced(lambda: build_wordcount(pct),
                                         {"flinklite"}),
                    "Rheem": run_forced(lambda: build_wordcount(pct), None),
                }
            print_series("Fig 9(d) WordCount (opportunistic)", "dataset %",
                         rows)
            return rows

        rows = scenario()
        for pct, cells in rows.items():
            best_single = min(cells["Spark*"].seconds,
                              cells["Flink*"].seconds)
            # Mixing (collect via the in-process platform) never loses and
            # slightly beats the best pure engine.
            assert cells["Rheem"].seconds <= best_single


class TestFig9e:
    def test_sgd_batch_sweep(self):
        def scenario():
            rows = {}
            for batch in (1, 100, 1000, 10000):
                build = lambda plats=None: build_sgd(
                    percent=100, iterations=100, batch=batch,
                    sample_method="random_jump" if plats is None
                    else "random")
                rows[batch] = {
                    "Spark*": run_forced(lambda: build({"sparklite"}),
                                         {"sparklite"}),
                    "Rheem": run_forced(lambda: build(), None),
                }
            print_series("Fig 9(e) SGD (opportunistic), 100 iterations",
                         "batch size", rows)
            return rows

        rows = scenario()
        # Small batches: the mixed plan crushes pure Spark (paper: ~20x at
        # 1000 iterations; here 100 iterations, so >=4x).
        assert rows[1]["Spark*"].seconds > 4 * rows[1]["Rheem"].seconds
        # The gap narrows as batches grow (more real work per iteration).
        gap_small = rows[1]["Spark*"].seconds / rows[1]["Rheem"].seconds
        gap_large = rows[10000]["Spark*"].seconds / rows[10000]["Rheem"].seconds
        assert gap_large < gap_small


class TestFig9f:
    def test_crocopr_iteration_sweep(self):
        def scenario():
            rows = {}
            for iters in (10, 100, 1000):
                rows[iters] = {
                    "Giraph*": run_forced(
                        lambda: build_crocopr(10, iters),
                        {"graphlite", "pystreams"}),
                    "Rheem": run_forced(lambda: build_crocopr(10, iters),
                                        None),
                }
            print_series("Fig 9(f) CrocoPR (opportunistic), 10% input",
                         "iterations", rows)
            return rows

        rows = scenario()
        # Rheem beats the fastest single platform at every iteration count.
        for iters, cells in rows.items():
            assert cells["Rheem"].seconds < cells["Giraph*"].seconds
        # And it grows far slower with iterations (in-process PageRank vs
        # per-superstep synchronisation).
        rheem_growth = rows[1000]["Rheem"].seconds / rows[10]["Rheem"].seconds
        giraph_growth = (rows[1000]["Giraph*"].seconds
                         / rows[10]["Giraph*"].seconds)
        assert rheem_growth < giraph_growth
