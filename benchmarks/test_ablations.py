"""Ablations of the design choices DESIGN.md calls out.

A. Lossless pruning: same optimum, far smaller enumeration.
B. Channel conversion graph: adding a platform needs O(1) conversions, not
   one per existing platform — the graph composes the rest.
C. Cost learning: plans picked with a badly mis-calibrated cost model vs
   with parameters re-fitted from execution logs.
"""

import pytest

from harness import Cell, fresh_context, print_series
from tasks import build_crocopr, build_wordcount, wordcount_quanta


class TestAblationPruning:
    def test_pruning_is_lossless_and_effective(self):
        def scenario():
            ctx = fresh_context()
            from repro.workloads import write_abstracts
            write_abstracts(ctx, "hdfs://ab/wc.txt", 10)
            plan = (wordcount_quanta(ctx, "hdfs://ab/wc.txt")
                    .sort(key=lambda t: -t[1])
                    .distinct()
                    .to_plan())
            pruned = ctx.optimizer()
            best_pruned, __ = pruned.pick_best(plan)
            unpruned = ctx.optimizer()
            unpruned.prune = False
            best_full, __ = unpruned.pick_best(plan)
            rows = {"WordCount+sort+distinct": {
                "pruned: partial plans": Cell(pruned.last_enumeration_size),
                "exhaustive: partial plans": Cell(
                    unpruned.last_enumeration_size),
                "pruned cost": Cell(best_pruned.cost.geometric_mean),
                "exhaustive cost": Cell(best_full.cost.geometric_mean),
            }}
            print_series("Ablation A: lossless pruning", "plan", rows)
            return rows

        rows = scenario()
        cells = rows["WordCount+sort+distinct"]
        assert cells["pruned cost"].seconds == pytest.approx(
            cells["exhaustive cost"].seconds)
        assert cells["pruned: partial plans"].seconds * 3 < \
            cells["exhaustive: partial plans"].seconds


class TestAblationChannelGraph:
    def test_new_platform_needs_constant_conversions(self):
        """The paper's O(n) vs O(n*m) extensibility argument, measured."""

        def scenario():
            from repro.core.channels import (
                Channel,
                ChannelDescriptor,
                Conversion,
                PY_COLLECTION,
            )

            ctx = fresh_context()
            data_channels = [d for d in ctx.graph.descriptors()
                             if "broadcast" not in d.name]
            # Plug a brand-new platform with exactly TWO conversions
            # (to/from one existing channel)...
            new_desc = ChannelDescriptor("arraydb.array", "arraydb", True)
            identity = lambda ch, __ctx: ch.with_payload(
                list(ch.payload), new_desc, ch.actual_count)
            back = lambda ch, __ctx: ch.with_payload(
                list(ch.payload), PY_COLLECTION, ch.actual_count)
            ctx.graph.register_conversion(Conversion(
                PY_COLLECTION, new_desc, identity, mb_per_s=200.0,
                overhead_s=0.02, name="arraydb-import"))
            ctx.graph.register_conversion(Conversion(
                new_desc, PY_COLLECTION, back, mb_per_s=200.0,
                overhead_s=0.02, name="arraydb-export"))
            # ...and verify EVERY existing data channel can now reach it and
            # be reached from it through the conversion graph.
            reachable_in = reachable_out = 0
            for desc in data_channels:
                ctx.graph.cheapest_path(desc, new_desc, 1000, 100)
                reachable_in += 1
                ctx.graph.cheapest_path(new_desc, desc, 1000, 100)
                reachable_out += 1
            rows = {"new arraydb platform": {
                "conversions written": Cell(2),
                "channels reachable": Cell(reachable_in + reachable_out),
                "direct-only would need": Cell(2 * len(data_channels)),
            }}
            print_series("Ablation B: channel conversion graph", "event",
                         rows)
            return rows, len(data_channels)

        (rows, n) = scenario()
        cells = rows["new arraydb platform"]
        assert cells["channels reachable"].seconds == 2 * n
        assert cells["conversions written"].seconds == 2


class TestAblationCostLearner:
    def test_learned_model_beats_a_miscalibrated_one(self):
        """Plan quality: runtimes of the plans chosen under (i) a cost model
        whose pystreams costs are wrong by 100x, (ii) the same model after
        re-fitting from generated execution logs."""

        def scenario():
            from repro.core.cost import OperatorCostParams
            from repro.learn import GeneratorConfig, GeneticCostLearner, \
                LogGenerator
            from repro.simulation import VirtualCluster

            def run_with(params):
                ctx = fresh_context(cost_params=params)
                from repro.workloads import write_abstracts
                write_abstracts(ctx, "hdfs://cl/wc.txt", 25)
                return wordcount_quanta(ctx, "hdfs://cl/wc.txt").execute()

            # Mis-calibration: the single-node platform looks 100x cheaper
            # than it is -> the optimizer funnels big data onto it.
            broken = {f"pystreams.{kind}": OperatorCostParams(0.01, 0.0, 0.0)
                      for kind in ("map", "flatmap", "filter", "reduceby",
                                   "source", "sink", "distinct", "sort")}
            bad = run_with(broken)

            config = GeneratorConfig(sizes=(200,), sim_factors=(20_000.0,),
                                     selectivities=(0.5,), udf_weights=(1.0,))
            records = LogGenerator(config).generate()
            learner = GeneticCostLearner(VirtualCluster(), records, seed=5)
            fit = learner.fit(population_size=30, generations=30)
            learned = run_with(fit.params)

            rows = {"WordCount 25%": {
                "mis-calibrated model": Cell(bad.runtime),
                "learned model": Cell(learned.runtime),
            }}
            print_series("Ablation C: cost model learning", "task", rows)
            return rows

        rows = scenario()
        cells = rows["WordCount 25%"]
        assert cells["learned model"].seconds < \
            cells["mis-calibrated model"].seconds / 2
