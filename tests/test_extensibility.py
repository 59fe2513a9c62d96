"""End-to-end extensibility tests: custom operators and a whole new
platform plugged in exactly the way the paper prescribes — execution
operators + mappings, channels, and conversions to/from ONE existing
channel."""

import pytest

from repro import RheemContext
from repro.core.channels import (Channel, ChannelDescriptor, Conversion,
                                 PY_COLLECTION)
from repro.core.mappings import OperatorMapping
from repro.core.operators import Map, Operator
from repro.core.cardinality import CardinalityEstimate
from repro.platforms import builtin_platforms
from repro.platforms.base import ExecutionOperator, Platform, charge_operator
from repro.platforms.dataflow import DataflowEngine
from repro.simulation import PlatformProfile


# ---------------------------------------------------------------------------
# A user-defined logical operator + execution operator (customOperator).
# ---------------------------------------------------------------------------
class TopK(Operator):
    """Keep the K largest quanta (user-defined logical operator)."""

    def __init__(self, k: int) -> None:
        super().__init__(f"top{k}")
        self.k = k

    def estimate_cardinality(self, inputs, ctx):
        return CardinalityEstimate.exact(self.k)


class PyTopK(ExecutionOperator):
    """Heap-select implementation on the in-process platform."""

    platform = "pystreams"
    op_kind = "topk"

    def input_descriptors(self):
        return [PY_COLLECTION]

    def output_descriptor(self):
        return PY_COLLECTION

    def execute(self, inputs, broadcasts, ctx):
        import heapq
        ch = inputs[0]
        out = heapq.nlargest(self.logical.k, ch.payload)
        result = Channel(PY_COLLECTION, out, 1.0, ch.bytes_per_record,
                         len(out))
        charge_operator(ctx, self, ch.sim_cardinality, len(out))
        return result


class TestCustomOperator:
    def test_custom_operator_round_trip(self, ctx):
        out = (ctx.load_collection([5, 1, 9, 7, 3])
               .map(lambda x: x * 2)
               .custom_operator(TopK(2), lambda op: [PyTopK(op)])
               .collect())
        assert sorted(out) == [14, 18]

    def test_custom_mapping_scoped_to_one_instance(self, ctx):
        first = TopK(1)
        (ctx.load_collection([1, 2])
         .custom_operator(first, lambda op: [PyTopK(op)]).collect())
        # A DIFFERENT TopK instance has no mapping: the registry guard
        # matches only the registered instance.
        from repro.core.mappings import NoMappingError
        with pytest.raises(NoMappingError):
            ctx.registry.alternatives_for(TopK(1))


# ---------------------------------------------------------------------------
# A whole new platform: "arraydb", one declaration with a profile, one
# channel, two conversions and an execution operator.
# ---------------------------------------------------------------------------
ARRAY_CHANNEL = ChannelDescriptor("arraydb.array", "arraydb", True)


class ArrayMap(ExecutionOperator):
    """Vectorized map on the array platform."""

    platform = "arraydb"
    op_kind = "map"

    def input_descriptors(self):
        return [ARRAY_CHANNEL]

    def output_descriptor(self):
        return ARRAY_CHANNEL

    def execute(self, inputs, broadcasts, ctx):
        ch = inputs[0]
        bvals = [b.payload for b in broadcasts]
        out = [self.logical.udf(x, *bvals) for x in ch.payload]
        charge_operator(ctx, self, ch.sim_cardinality, len(out))
        return ch.with_payload(out, ARRAY_CHANNEL, len(out))


def _into_array(ch, ctx):
    return ch.with_payload(list(ch.payload), ARRAY_CHANNEL, ch.actual_count)


def _out_of_array(ch, ctx):
    return ch.with_payload(list(ch.payload), PY_COLLECTION, ch.actual_count)


#: A minimal array-database platform, per the paper's recipe: one
#: declaration holding its profile, channel, conversions and mapping.
ARRAYDB = Platform(
    profile=PlatformProfile(
        name="arraydb", startup_s=0.2, stage_overhead_s=0.01,
        parallelism=8, tuple_cost_s=1e-7, io_mb_per_s=400.0,
        net_mb_per_s=300.0, memory_cap_mb=8192.0),
    channels=(ARRAY_CHANNEL,),
    conversions=lambda profile: [
        Conversion(PY_COLLECTION, ARRAY_CHANNEL, _into_array,
                   mb_per_s=profile.net_mb_per_s, overhead_s=0.01,
                   name="arraydb-import"),
        Conversion(ARRAY_CHANNEL, PY_COLLECTION, _out_of_array,
                   mb_per_s=profile.net_mb_per_s, overhead_s=0.01,
                   name="arraydb-export"),
    ],
    mappings=[OperatorMapping(Map, lambda op: [ArrayMap(op)])],
)


class TestNewPlatform:
    def _ctx(self):
        return RheemContext(platforms=builtin_platforms() + [ARRAYDB])

    def test_plan_can_run_on_the_new_platform(self):
        ctx = self._ctx()
        out = (ctx.load_collection([1, 2, 3])
               .map(lambda x: x + 10)
               .collect(allowed_platforms={"arraydb", "pystreams", "driver"}))
        assert out == [11, 12, 13]

    def test_optimizer_picks_it_when_it_is_cheapest(self):
        # arraydb's per-record cost (1e-7/8 lanes) beats every other
        # platform on a map-heavy pipeline over narrow records.
        ctx = self._ctx()
        res = (ctx.load_collection(list(range(500)), sim_factor=1e5,
                                   bytes_per_record=10)
               .map(lambda x: x + 1, name="m1")
               .map(lambda x: x * 2, name="m2")
               .map(lambda x: x - 3, name="m3")
               .execute())
        assert "arraydb" in res.platforms

    def test_reaches_every_platform_through_the_graph(self):
        # Two conversions suffice for full connectivity (paper: O(n), not
        # O(n*m) integration effort).
        ctx = self._ctx()
        for desc in ctx.graph.descriptors():
            if "broadcast" in desc.name:
                continue
            ctx.graph.cheapest_path(desc, ARRAY_CHANNEL, 1000, 100)
            ctx.graph.cheapest_path(ARRAY_CHANNEL, desc, 1000, 100)

    def test_cross_platform_mix_with_new_platform(self):
        # Relational source -> arraydb map -> driver collect.
        ctx = self._ctx()
        ctx.pgres.create_table("t", ["v"], [{"v": i} for i in range(10)],
                               sim_factor=1e5)
        out = (ctx.read_table("t")
               .map(lambda r: r["v"] * 3, name="triple")
               .with_target_platform("arraydb")
               .collect())
        assert sorted(out) == [v * 3 for v in range(10)]


# ---------------------------------------------------------------------------
# A fourth partitioned dataflow engine: ONE declaration of a DataflowEngine
# value, its profile and conversions to/from PY_COLLECTION.  No operator
# subclass anywhere.
# ---------------------------------------------------------------------------
TOY_DATASET = ChannelDescriptor("toyflow.dataset", "toyflow", True)
TOY = DataflowEngine("toyflow", TOY_DATASET, TOY_DATASET)


#: toyflow's one declaration: a four-partition profile, its channel, two
#: conversions priced from that profile and the shared mapping table.
TOYFLOW = Platform(
    profile=PlatformProfile(
        name="toyflow", startup_s=0.1, stage_overhead_s=0.01,
        parallelism=4, tuple_cost_s=1e-7, io_mb_per_s=400.0,
        net_mb_per_s=300.0, memory_cap_mb=8192.0),
    channels=(TOY_DATASET,),
    conversions=lambda profile: [
        Conversion(PY_COLLECTION, TOY_DATASET, TOY.from_collection,
                   mb_per_s=profile.net_mb_per_s, overhead_s=0.01,
                   name="toyflow-load"),
        Conversion(TOY_DATASET, PY_COLLECTION, TOY.to_collection,
                   mb_per_s=profile.net_mb_per_s, overhead_s=0.01,
                   name="toyflow-collect"),
    ],
    mappings=TOY.mappings(),
)


class TestNewDataflowEngine:
    def _ctx(self):
        ctx = RheemContext(platforms=builtin_platforms() + [TOYFLOW])
        ctx.vfs.write("hdfs://toy/x.txt", ["a b a", "b c", "a"],
                      sim_factor=10.0)
        return ctx

    def test_wordcount_runs_end_to_end_on_the_engine_value(self):
        from conftest import wordcount

        ctx = self._ctx()
        result = wordcount(ctx, "hdfs://toy/x.txt").execute(
            allowed_platforms={"toyflow", "driver"})
        assert sorted(result.output) == [("a", 3), ("b", 2), ("c", 1)]
        assert result.platforms == {"toyflow"}

    def test_every_operator_is_a_shared_class_bound_by_value(self):
        from repro.core.operators import Map
        from repro.platforms import dataflow

        ctx = self._ctx()
        [alt] = [a for a in ctx.registry.alternatives_for(Map(lambda x: x))
                 if a.platform == "toyflow"]
        assert type(alt.ops[0]) is dataflow.DFMap
        assert alt.ops[0].name == "toyflow.map[map]"
        assert alt.output_descriptor().name == "toyflow.dataset"
