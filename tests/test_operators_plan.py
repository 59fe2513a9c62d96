"""Tests for logical operators, UDF annotations and plan structure."""

import pytest

from repro.core import operators as ops
from repro.core.cardinality import CardinalityEstimate
from repro.core.operators import EstimationContext
from repro.core.plan import (
    PlanValidationError,
    RheemPlan,
    topological_order,
)
from repro.core.udf import Udf, as_udf
from repro.simulation import VirtualFileSystem


def _estimate(op, *input_values, ctx=None):
    inputs = [CardinalityEstimate.exact(v) for v in input_values]
    return op.estimate_cardinality(inputs, ctx or EstimationContext())


class TestUdf:
    def test_wraps_and_calls(self):
        udf = Udf(lambda x: x + 1, selectivity=0.5, cpu_weight=2.0)
        assert udf(1) == 2
        assert udf.selectivity == 0.5

    def test_as_udf_idempotent(self):
        udf = Udf(len)
        assert as_udf(udf) is udf
        assert isinstance(as_udf(len), Udf)

    def test_validation(self):
        with pytest.raises(ValueError):
            Udf(len, selectivity=-1)
        with pytest.raises(ValueError):
            Udf(len, cpu_weight=0)


class TestWiring:
    def test_connect_and_upstream(self):
        src = ops.CollectionSource([1, 2])
        mapped = ops.Map(lambda x: x)
        mapped.connect(0, src)
        assert mapped.upstream_ops == [src]

    def test_connect_bad_slot(self):
        with pytest.raises(ValueError):
            ops.Map(lambda x: x).connect(1, ops.CollectionSource([]))

    def test_broadcast_edges_tracked(self):
        src = ops.CollectionSource([1])
        side = ops.CollectionSource([2])
        mapped = ops.Map(lambda x, b: x)
        mapped.connect(0, src).broadcast(side)
        assert side in mapped.upstream_ops

    def test_with_target_platform(self):
        op = ops.Map(lambda x: x).with_target_platform("sparklite")
        assert op.target_platform == "sparklite"


class TestCardinalityEstimators:
    def test_map_passthrough(self):
        assert _estimate(ops.Map(lambda x: x), 100).geometric_mean == 100

    def test_filter_uses_hint(self):
        udf = Udf(lambda x: True, selectivity=0.25)
        assert _estimate(ops.Filter(udf), 100).geometric_mean == 25

    def test_filter_default_is_uncertain(self):
        est = _estimate(ops.Filter(lambda x: True), 100)
        assert est.confidence < 1.0
        assert est.lower < est.upper

    def test_flatmap_expansion_hint(self):
        udf = Udf(lambda x: [x] * 3, selectivity=3.0)
        assert _estimate(ops.FlatMap(udf), 100).geometric_mean == 300

    def test_sample_size_caps_at_input(self):
        assert _estimate(ops.Sample(size=50), 10).upper == 10
        assert _estimate(ops.Sample(size=5), 100).upper == 5

    def test_sample_fraction(self):
        assert _estimate(ops.Sample(fraction=0.1), 100).geometric_mean == \
            pytest.approx(10)

    def test_sample_requires_exactly_one_of_size_fraction(self):
        with pytest.raises(ValueError):
            ops.Sample()
        with pytest.raises(ValueError):
            ops.Sample(size=1, fraction=0.5)
        with pytest.raises(ValueError):
            ops.Sample(size=1, method="bogus")

    def test_reduce_and_count_are_singletons(self):
        assert _estimate(ops.GlobalReduce(lambda a, b: a), 1000).upper == 1
        assert _estimate(ops.Count(), 1000).upper == 1

    def test_union_adds(self):
        assert _estimate(ops.Union(), 10, 20).geometric_mean == 30

    def test_join_with_selectivity(self):
        est = _estimate(ops.Join(lambda x: x, lambda x: x,
                                 selectivity=0.01), 100, 100)
        assert est.geometric_mean == pytest.approx(100)

    def test_cartesian_is_product(self):
        assert _estimate(ops.CartesianProduct(), 10, 20).upper == 200

    def test_source_estimates_from_vfs(self):
        vfs = VirtualFileSystem()
        vfs.write("hdfs://f", ["a"] * 10, sim_factor=5.0)
        ctx = EstimationContext(vfs=vfs)
        src = ops.TextFileSource("hdfs://f")
        assert src.estimate_cardinality([], ctx).geometric_mean == 50

    def test_table_source_uses_catalog(self):
        ctx = EstimationContext(table_cardinalities={"t": 123.0})
        assert ops.TableSource("t").estimate_cardinality([], ctx).upper == 123

    def test_override_wins(self):
        op = ops.Map(lambda x: x)
        ctx = EstimationContext(overrides={op.id: CardinalityEstimate.exact(7)})
        assert op.estimate_cardinality(
            [CardinalityEstimate.exact(100)], ctx).upper == 7

    def test_filter_from_range(self):
        flt = ops.Filter.from_range("v", 5, 10)
        assert flt.udf({"v": 7}) and not flt.udf({"v": 11})
        assert (flt.column, flt.low, flt.high) == ("v", 5, 10)

    def test_inequality_condition_validation(self):
        with pytest.raises(ValueError):
            ops.InequalityCondition(lambda x: x, "!=", lambda x: x)
        cond = ops.InequalityCondition(lambda x: x, "<", lambda x: x)
        assert cond.holds(1, 2) and not cond.holds(2, 1)

    def test_iejoin_condition_arity(self):
        cond = ops.InequalityCondition(lambda x: x, "<", lambda x: x)
        with pytest.raises(ValueError):
            ops.IEJoin([])
        with pytest.raises(ValueError):
            ops.IEJoin([cond, cond, cond])

    @pytest.mark.parametrize("field, params", [
        ("'iterations'", {"iterations": value})
        for value in (0, "10", 2.5, True, None)] + [
        ("'damping'", {"damping": value})
        for value in ("x", 7, -1, float("nan"), False)])
    def test_pagerank_parameters_are_checked_where_set(self, field, params):
        with pytest.raises(ValueError, match=field):
            ops.PageRank(**params)


def _loop_plan(iterations=3):
    src = ops.CollectionSource(list(range(4)))
    seed = ops.CollectionSource([0])
    loop_in = [ops.LoopInput(0), ops.LoopInput(1)]
    body_map = ops.Map(lambda x: x + 1)
    body_map.connect(0, loop_in[0])
    body = ops.SubPlan(loop_in, [ops.InputRef(body_map, 0)])
    loop = ops.RepeatLoop(iterations, body, num_invariant_inputs=1)
    loop.connect(0, seed).connect(1, src)
    sink = ops.CollectionSink()
    sink.connect(0, loop)
    return RheemPlan([sink]), loop


class TestLoops:
    def test_repeat_validation(self):
        with pytest.raises(ValueError):
            ops.RepeatLoop(0, ops.SubPlan([ops.LoopInput(0)], []))

    def test_body_arity_must_match(self):
        body = ops.SubPlan([ops.LoopInput(0)],
                           [ops.InputRef(ops.LoopInput(0), 0)])
        with pytest.raises(ValueError):
            ops.RepeatLoop(3, body, num_invariant_inputs=2)

    def test_subplan_input_indices_checked(self):
        with pytest.raises(ValueError):
            ops.SubPlan([ops.LoopInput(1)], [])

    def test_loop_estimate_uses_body(self):
        plan, loop = _loop_plan()
        cards = plan.estimate_cardinalities()
        assert cards[loop.id].geometric_mean == 1  # seed collection size


class TestPlan:
    def test_topological_order_producers_first(self):
        src = ops.CollectionSource([1])
        a = ops.Map(lambda x: x)
        a.connect(0, src)
        b = ops.Filter(lambda x: True)
        b.connect(0, a)
        order = topological_order([b])
        assert order == [src, a, b]

    def test_cycle_detection(self):
        a = ops.Map(lambda x: x)
        b = ops.Map(lambda x: x)
        a.connect(0, b)
        b.connect(0, a)
        with pytest.raises(PlanValidationError):
            topological_order([a])

    def test_plan_requires_sink(self):
        src = ops.CollectionSource([1])
        with pytest.raises(PlanValidationError):
            RheemPlan([src])

    def test_plan_rejects_unwired_input(self):
        sink = ops.CollectionSink()
        with pytest.raises(PlanValidationError):
            RheemPlan([sink])

    def test_consumers_map(self):
        src = ops.CollectionSource([1])
        a = ops.Map(lambda x: x)
        a.connect(0, src)
        b = ops.Map(lambda x: x)
        b.connect(0, src)
        sink_a, sink_b = ops.CollectionSink(), ops.CollectionSink()
        sink_a.connect(0, a)
        sink_b.connect(0, b)
        plan = RheemPlan([sink_a, sink_b])
        assert len(plan.consumers()[src.id]) == 2

    def test_operator_count_includes_loop_bodies(self):
        plan, __ = _loop_plan()
        assert plan.operator_count() == plan.operator_count(False) + 3

    def test_shared_subplan_counted_once(self):
        src = ops.CollectionSource([1])
        a = ops.Map(lambda x: x)
        a.connect(0, src)
        join = ops.Join(lambda x: x, lambda x: x)
        join.connect(0, a).connect(1, a)
        sink = ops.CollectionSink()
        sink.connect(0, join)
        plan = RheemPlan([sink])
        assert plan.operator_count(False) == 4
