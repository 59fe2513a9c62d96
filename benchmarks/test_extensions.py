"""Extension experiments beyond the paper's figures.

1. The graph-platform spectrum: JGraph vs GraphChi vs Giraph across sizes —
   the out-of-core platform fills the gap where JGraph dies but a cluster
   is overkill.
2. Cross-platform fault tolerance: runtime overhead vs injected failure
   rate (the paper's future-work item, quantified).
3. Runtime vs money: the same task optimized for each objective.
"""

from harness import Cell, fresh_context, print_series, run_forced
from repro.core import FaultInjector, monetary, price_of
from repro.workloads import write_abstracts
from tasks import build_crocopr, build_wordcount


class TestGraphPlatformSpectrum:
    def test_graphchi_fills_the_memory_gap(self):
        def scenario():
            rows = {}
            for pct in (1, 25, 100):
                rows[pct] = {
                    "JGraph*": run_forced(
                        lambda: build_crocopr(pct, 10, pin_pagerank="jgraph"),
                        {"pystreams", "jgraph"}),
                    "GraphChi*": run_forced(
                        lambda: build_crocopr(pct, 10,
                                              pin_pagerank="graphchi"),
                        {"flinklite", "pystreams", "graphchi"}),
                    "Giraph*": run_forced(
                        lambda: build_crocopr(pct, 10),
                        {"graphlite", "pystreams"}),
                }
            print_series("Extension: graph platform spectrum (CrocoPR)",
                         "dataset %", rows)
            return rows

        rows = scenario()
        # JGraph dies at 100%; the out-of-core platform survives on ONE
        # machine, slower than the 10-node cluster but alive.
        assert rows[100]["JGraph*"].note == "OOM"
        assert rows[100]["GraphChi*"].seconds is not None


class TestFaultToleranceOverhead:
    def test_overhead_grows_with_failure_rate(self):
        def scenario():
            rows = {}
            baseline = build_wordcount(25).execute()
            rows["p=0.0"] = {"runtime": Cell(baseline.runtime),
                             "crashes": Cell(0)}
            for probability in (0.2, 0.4):
                injector = FaultInjector(probability=probability, seed=1)
                result = build_wordcount(25).execute(
                    fault_injector=injector, max_stage_retries=30)
                rows[f"p={probability}"] = {
                    "runtime": Cell(result.runtime),
                    "crashes": Cell(injector.injected),
                }
                assert sorted(result.output) == sorted(baseline.output)
            print_series("Extension: fault-tolerance overhead (WordCount 25%)",
                         "failure rate", rows)
            return rows

        rows = scenario()
        assert rows["p=0.4"]["runtime"].seconds >= \
            rows["p=0.0"]["runtime"].seconds


class TestRuntimeVsMoney:
    def test_objectives_trace_a_tradeoff(self):
        def scenario():
            rows = {}
            for pct in (5, 50):
                ctx = fresh_context()
                write_abstracts(ctx, "hdfs://obj/wc.txt", pct)
                from tasks import wordcount_quanta
                fast = wordcount_quanta(ctx, "hdfs://obj/wc.txt").execute()
                ctx2 = fresh_context()
                write_abstracts(ctx2, "hdfs://obj/wc.txt", pct)
                cheap = wordcount_quanta(ctx2, "hdfs://obj/wc.txt").execute(
                    objective=monetary())
                rows[f"{pct}%"] = {
                    "runtime-opt (s)": Cell(fast.runtime),
                    "runtime-opt ($)": Cell(price_of(fast),
                                            f"${price_of(fast):.4f}"),
                    "money-opt (s)": Cell(cheap.runtime),
                    "money-opt ($)": Cell(price_of(cheap),
                                          f"${price_of(cheap):.4f}"),
                }
            print_series("Extension: runtime vs monetary optimization",
                         "input", rows)
            return rows

        rows = scenario()
        for cells in rows.values():
            assert cells["money-opt ($)"].seconds <= \
                cells["runtime-opt ($)"].seconds + 1e-9
            assert cells["runtime-opt (s)"].seconds <= \
                cells["money-opt (s)"].seconds + 1e-9
