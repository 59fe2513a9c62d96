"""Tests for mappings, inflation, the cost model and the enumerator."""

import pytest

from repro.core import operators as ops
from repro.core.cardinality import CardinalityEstimate
from repro.core.cost import (
    CostEstimate,
    CostModel,
    OperatorCostParams,
    kind_params,
)
from repro.core.mappings import NoMappingError
from repro.core.optimizer import LoopDecision, OptimizationError
from repro.core.plan import RheemPlan
from repro.simulation import VirtualCluster


class TestCostModel:
    def test_operator_cost_math(self):
        model = CostModel(VirtualCluster())
        cost = model.operator_cost(
            "pystreams", "map", CardinalityEstimate.exact(1_000_000),
            CardinalityEstimate.exact(1_000_000))
        # alpha=1, tuple cost 1e-6, parallelism 1 -> 1 second.
        assert cost.geometric_mean == pytest.approx(1.0)

    def test_parallelism_divides(self):
        model = CostModel(VirtualCluster())
        single = model.operator_cost("pystreams", "map",
                                     CardinalityEstimate.exact(1e6),
                                     CardinalityEstimate.exact(1e6))
        wide = model.operator_cost("sparklite", "map",
                                   CardinalityEstimate.exact(1e6),
                                   CardinalityEstimate.exact(1e6))
        assert wide.geometric_mean < single.geometric_mean

    def test_learned_params_override_defaults(self):
        model = CostModel(VirtualCluster(),
                          {"pystreams.map": OperatorCostParams(0, 0, 9.0)})
        cost = model.operator_cost("pystreams", "map",
                                   CardinalityEstimate.exact(100),
                                   CardinalityEstimate.exact(100))
        assert cost.geometric_mean == pytest.approx(9.0)

    def test_kind_defaults(self):
        assert kind_params("join").beta == 1.0
        assert kind_params("sample").alpha == 0.0
        assert kind_params("totally-unknown").alpha == 1.0

    def test_cost_estimate_algebra(self):
        a = CostEstimate(1, 2, 0.5)
        b = CostEstimate.fixed(3)
        assert a.plus(b).lower == 4 and a.plus(b).confidence == 0.5
        assert a.times(10).upper == 20
        with pytest.raises(ValueError):
            CostEstimate(2, 1)


class TestMappingsAndInflation:
    def test_every_builtin_op_has_alternatives(self, ctx):
        candidates = [
            ops.Map(lambda x: x), ops.Filter(lambda x: True),
            ops.FlatMap(lambda x: [x]), ops.Distinct(), ops.Sort(),
            ops.ReduceBy(lambda x: x, lambda a, b: a),
            ops.GlobalReduce(lambda a, b: a), ops.Count(), ops.Cache(),
            ops.Union(), ops.Intersect(),
            ops.Join(lambda x: x, lambda x: x), ops.CartesianProduct(),
            ops.Sample(size=1), ops.PageRank(), ops.CollectionSink(),
        ]
        for op in candidates:
            assert ctx.registry.alternatives_for(op)

    def test_reduceby_has_composite_alternative(self, ctx):
        alts = ctx.registry.alternatives_for(
            ops.ReduceBy(lambda x: x, lambda a, b: a))
        chain_lengths = sorted(len(a.ops) for a in alts
                               if a.platform == "pystreams")
        assert chain_lengths == [1, 2]  # direct + GroupBy+Map (Figure 4)

    def test_target_platform_filters(self, ctx):
        op = ops.Map(lambda x: x).with_target_platform("pgres")
        alts = ctx.registry.alternatives_for(op)
        assert {a.platform for a in alts} == {"pgres"}

    def test_impossible_pin_raises(self, ctx):
        op = ops.PageRank().with_target_platform("pgres")
        with pytest.raises(NoMappingError):
            ctx.registry.alternatives_for(op)

    def test_pagerank_maps_to_graph_platforms(self, ctx):
        platforms = {a.platform
                     for a in ctx.registry.alternatives_for(ops.PageRank())}
        assert {"jgraph", "graphlite"} <= platforms


class TestOptimizerChoices:
    def _wordcount_plan(self, ctx, path):
        from conftest import wordcount
        return wordcount(ctx, path).to_plan()

    def test_small_input_picks_low_overhead_platform(self, ctx):
        ctx.vfs.write("hdfs://tiny", ["a b"] * 20, sim_factor=1.0)
        plan = self._wordcount_plan(ctx, "hdfs://tiny")
        exec_plan = ctx.optimizer().optimize(plan)
        assert exec_plan.platforms() == {"pystreams"}

    def test_large_input_picks_distributed_platform(self, ctx):
        ctx.vfs.write("hdfs://big", ["a b"] * 100, sim_factor=500_000.0)
        plan = self._wordcount_plan(ctx, "hdfs://big")
        exec_plan = ctx.optimizer().optimize(plan)
        assert exec_plan.platforms() & {"sparklite", "flinklite"}

    def test_allowed_platforms_respected(self, ctx):
        ctx.vfs.write("hdfs://big", ["a b"] * 100, sim_factor=500_000.0)
        plan = self._wordcount_plan(ctx, "hdfs://big")
        exec_plan = ctx.optimizer(
            allowed_platforms={"pystreams", "driver"}).optimize(plan)
        assert exec_plan.platforms() == {"pystreams"}

    def test_unsatisfiable_allowed_set_raises(self, ctx):
        ctx.vfs.write("hdfs://f", ["a"], sim_factor=1.0)
        plan = self._wordcount_plan(ctx, "hdfs://f")
        with pytest.raises(OptimizationError):
            ctx.optimizer(allowed_platforms={"pgres", "driver"}).optimize(plan)

    def test_conversions_inserted_between_platforms(self, ctx):
        ctx.pgres.create_table("t", ["k"], [{"k": i} for i in range(10)],
                               sim_factor=1e6)
        plan = (ctx.read_table("t")
                .map(lambda r: (r["k"] % 5, 1), bytes_per_record=16)
                .reduce_by_key(lambda t: t[0], lambda a, b: (a[0], a[1] + b[1]))
                .to_plan())
        best, __ = ctx.optimizer().pick_best(plan)
        if len({d.platform for d in best.decisions.values()
                if hasattr(d, "platform") and d.platform}) > 1:
            assert any(p.steps for p in best.conversions.values())

    def test_startup_counted_once_per_platform(self, ctx):
        # Two spark-suited branches must not double-charge spark start-up:
        # compare against a single-branch plan cost.
        ctx.vfs.write("hdfs://x", ["a b"] * 100, sim_factor=400_000.0)
        single = self._wordcount_plan(ctx, "hdfs://x")
        best1, __ = ctx.optimizer(
            allowed_platforms={"sparklite", "driver"}).pick_best(single)
        from conftest import wordcount
        two = wordcount(ctx, "hdfs://x")
        plan2 = two.union(wordcount(ctx, "hdfs://x")).to_plan()
        best2, __ = ctx.optimizer(
            allowed_platforms={"sparklite", "driver"}).pick_best(plan2)
        startup = ctx.cluster.profile("sparklite").startup_s
        assert (best2.cost.geometric_mean
                < 2 * best1.cost.geometric_mean + startup)


class TestLosslessPruning:
    def _plan(self, ctx):
        ctx.vfs.write("hdfs://p", [f"{i} {i*2}" for i in range(50)],
                      sim_factor=5_000.0)
        return (ctx.read_text_file("hdfs://p")
                .map(lambda l: tuple(map(int, l.split())))
                .filter(lambda t: t[0] % 2 == 0)
                .distinct()
                .map(lambda t: (t[0] % 10, t[1]))
                .reduce_by_key(lambda t: t[0], lambda a, b: a)
                .sort()
                .to_plan())

    def test_pruning_preserves_the_optimum(self, ctx):
        plan = self._plan(ctx)
        pruned_opt = ctx.optimizer()
        best_pruned, __ = pruned_opt.pick_best(plan)
        full_opt = ctx.optimizer()
        full_opt.prune = False
        best_full, __ = full_opt.pick_best(plan)
        assert best_pruned.cost.geometric_mean == pytest.approx(
            best_full.cost.geometric_mean)

    def test_pruning_shrinks_the_enumeration(self, ctx):
        plan = self._plan(ctx)
        pruned_opt = ctx.optimizer()
        pruned_opt.pick_best(plan)
        full_opt = ctx.optimizer()
        full_opt.prune = False
        full_opt.pick_best(plan)
        assert pruned_opt.last_enumeration_size < full_opt.last_enumeration_size


class TestLoopEnumeration:
    def test_enumeration_size_sums_outer_and_nested_enumerations(self, ctx):
        # Two operators precede the loop: their frontiers must stay in the
        # count after the (nested) body enumeration has run.
        seed = ctx.load_collection([0]).map(lambda x: x + 1)
        plan = seed.repeat(3, lambda s: s.map(lambda x: x * 2)).to_plan()
        optimizer = ctx.optimizer()
        optimizer.pick_best(plan)
        # Every enumerated plan is either pruned or retained in a frontier;
        # each of the two enumerations (outer, body) adds its empty root.
        assert optimizer.last_enumeration_size == (
            optimizer.stats["plans_enumerated"]
            - optimizer.stats["plans_pruned"] + 2)

    def test_loop_decision_shapes(self, ctx):
        data = ctx.load_collection(list(range(20)), sim_factor=1000.0).cache()
        seed = ctx.load_collection([0])
        out = seed.repeat(
            5, lambda s, inv: inv.sample(size=2, broadcasts=[s])
            .reduce(lambda a, b: a + b),
            invariants=[data])
        plan = out.to_plan()
        best, cards = ctx.optimizer().pick_best(plan)
        loops = [d for d in best.decisions.values()
                 if isinstance(d, LoopDecision)]
        assert len(loops) == 1
        decision = loops[0]
        assert len(decision.input_descriptors) == 2
        # Invariant inputs must land on reusable channels.
        assert decision.input_descriptors[1].reusable

    def test_iterations_scale_loop_cost(self, ctx):
        def build(n):
            data = ctx.load_collection(list(range(20)),
                                       sim_factor=50_000.0).cache()
            seed = ctx.load_collection([0])
            return seed.repeat(
                n, lambda s, inv: inv.sample(size=2, broadcasts=[s])
                .reduce(lambda a, b: a + b),
                invariants=[data]).to_plan()
        cheap, __ = ctx.optimizer().pick_best(build(2))
        dear, __ = ctx.optimizer().pick_best(build(200))
        assert dear.cost.geometric_mean > cheap.cost.geometric_mean
