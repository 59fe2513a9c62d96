"""Tests for the public RheemContext / DataQuanta fluent API."""

import pytest

from repro import RheemContext
from repro.core.operators import InequalityCondition


class TestContextSetup:
    def test_all_builtin_platforms_registered(self, ctx):
        names = {p.name for p in ctx.platforms}
        assert names == {"pystreams", "sparklite", "flinklite", "pgres",
                         "graphlite", "graphchi", "jgraph"}

    def test_partial_platform_installation(self):
        from repro.platforms import pystreams
        small = RheemContext(platforms=[pystreams.PLATFORM])
        out = small.load_collection([3, 1, 2]).sort().collect()
        assert out == [1, 2, 3]

    def test_cluster_profile_prices_the_conversions(self):
        """A what-if profile installed before the context wins over the
        declared one, and the conversions priced from it move with it."""
        from dataclasses import replace

        from repro.simulation import VirtualCluster

        cluster = VirtualCluster()
        for name, net in (("sparklite", 60.0), ("pgres", 20.0)):
            cluster.set_profile(replace(cluster.profile(name),
                                        net_mb_per_s=net))
        ctx = RheemContext(cluster=cluster)
        assert ctx.cluster.profile("sparklite").net_mb_per_s == 60.0
        conversions = {c.name: c for d in ctx.graph.descriptors()
                       for c in ctx.graph.conversions_from(d.name)}
        mb = 1e6 * 100.0 / 1e6  # a million 100-byte records
        for name, rate in (("spark-parallelize", 60.0),
                           ("spark-collect", 60.0),
                           ("spark-broadcast", 60.0 / 4),
                           ("pgres-export", 20.0)):
            conversion = conversions[name]
            assert conversion.estimate_cost(1e6, 100.0) == (
                conversion.overhead_s + mb / rate)

    def test_estimation_context_carries_catalog(self, ctx):
        ctx.pgres.create_table("t", ["a"], [{"a": 1}], sim_factor=7.0,
                               bytes_per_row=33.0)
        est = ctx.estimation_context()
        assert est.table_cardinalities["t"] == 7.0
        assert est.table_bytes["t"] == 33.0

    def test_config_seed_threads_through(self):
        a = RheemContext(config={"seed": 1})
        b = RheemContext(config={"seed": 1})
        data = list(range(100))
        sample = lambda c: c.load_collection(data).sample(size=5).collect()
        assert sample(a) == sample(b)

    @pytest.mark.parametrize("key", [
        "stage_paralelism",                                     # a typo
        "stage_parallelism", "stage_parallelism_cap", "stage_wall_s",
        "reuse_budget_mb", "reuse_min_benefit"])  # store defaults now
    def test_config_key_nobody_reads_is_an_error(self, key):
        """Accepted and ignored on the parent: a misspelt key — or one of
        the three the lane scheduler took with it — changed nothing,
        silently."""
        with pytest.raises(ValueError) as refused:
            RheemContext(config={key: 4})
        assert repr(key) in str(refused.value)
        for accepted in ("seed", "result_reuse", "plan_cache_size"):
            assert accepted in str(refused.value)

    def test_every_accepted_config_key_is_read(self):
        ctx = RheemContext(config={
            "seed": 7, "result_reuse": False, "plan_cache_size": 3})
        assert ctx.config["seed"] == 7
        assert not ctx.result_store.enabled
        assert ctx.plan_cache.capacity == 3
        assert len(ctx.config) == 3


class TestFluentVerbs:
    def test_map_filter_flatmap(self, ctx):
        out = (ctx.load_collection(["a b", "c"])
               .flat_map(str.split)
               .map(str.upper)
               .filter(lambda w: w != "B")
               .collect())
        assert out == ["A", "C"]

    def test_distinct_sort_count(self, ctx):
        assert ctx.load_collection([3, 1, 3]).distinct().sort().collect() == [1, 3]
        assert ctx.load_collection([3, 1, 3]).count().collect() == [3]

    def test_group_by(self, ctx):
        out = ctx.load_collection([1, 2, 3, 4]).group_by(
            lambda x: x % 2).collect()
        groups = {k: sorted(v) for k, v in out}
        assert groups == {0: [2, 4], 1: [1, 3]}

    def test_reduce_by_key_and_reduce(self, ctx):
        out = (ctx.load_collection([("a", 1), ("a", 2), ("b", 3)])
               .reduce_by_key(lambda t: t[0],
                              lambda x, y: (x[0], x[1] + y[1]))
               .collect())
        assert sorted(out) == [("a", 3), ("b", 3)]
        assert ctx.load_collection([1, 2, 3]).reduce(
            lambda a, b: a + b).collect() == [6]

    def test_union_intersect_cartesian(self, ctx):
        a = ctx.load_collection([1, 2])
        b = ctx.load_collection([2, 3])
        assert sorted(a.union(b).collect()) == [1, 2, 2, 3]
        a = ctx.load_collection([1, 2])
        b = ctx.load_collection([2, 3])
        assert a.intersect(b).collect() == [2]
        a = ctx.load_collection([1])
        b = ctx.load_collection([2, 3])
        assert sorted(a.cartesian(b).collect()) == [(1, 2), (1, 3)]

    def test_ie_join(self, ctx):
        a = ctx.load_collection([1, 5])
        b = ctx.load_collection([3])
        cond = InequalityCondition(lambda x: x, "<", lambda x: x)
        assert a.ie_join(b, [cond]).collect() == [(1, 3)]

    def test_sample_first(self, ctx):
        out = ctx.load_collection(list(range(10))).sample(
            size=3, method="first").collect()
        assert out == [0, 1, 2]

    def test_pagerank_verb(self, ctx):
        edges = [(0, 1), (1, 0), (1, 2)]
        ranks = dict(ctx.load_collection(edges).pagerank(
            iterations=5).collect())
        assert set(ranks) == {0, 1, 2}

    def test_write_text_file(self, ctx):
        res = (ctx.load_collection([1, 2])
               .map(lambda x: x * 10)
               .write_text_file("hdfs://out/r.txt"))
        assert ctx.vfs.read("hdfs://out/r.txt").records == ["10", "20"]
        assert res.runtime >= 0

    def test_filter_range_on_dict_rows(self, ctx):
        rows = [{"v": i} for i in range(10)]
        out = ctx.load_collection(rows).filter_range("v", 3, 5).collect()
        assert [r["v"] for r in out] == [3, 4, 5]

    def test_read_table_roundtrip(self, ctx):
        ctx.pgres.create_table("people", ["name"], [{"name": "ada"}])
        assert ctx.read_table("people").collect() == [{"name": "ada"}]

    def test_result_platforms_exposed(self, ctx):
        res = ctx.load_collection([1]).map(lambda x: x).execute()
        assert res.platforms == {"pystreams"}
