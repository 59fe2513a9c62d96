"""Engine-level tests: partitioned datasets, Pregel, the graph library,
the relational engine, and cross-engine result equivalence."""

import pytest
from hypothesis import given, strategies as st

from repro.algorithms import pagerank_edges
from repro.platforms.distributed import PartitionedDataset
from repro.platforms.graphlite import PregelEngine
from repro.platforms.jgraph import Graph
from repro.platforms.pgres import (
    DuplicateTable,
    PgresDatabase,
    TableNotFound,
)


class TestPartitionedDataset:
    def test_from_records_distributes_all(self):
        ds = PartitionedDataset.from_records(range(10), 3)
        assert ds.num_partitions == 3
        assert sorted(ds.records()) == list(range(10))

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            PartitionedDataset.from_records([1], 0)

    @given(st.lists(st.integers(), max_size=40), st.integers(1, 9),
           st.sampled_from([list, tuple, iter]))
    def test_from_records_is_round_robin(self, records, n, shape):
        """Slicing places what the record-by-record loop placed — also
        with fewer records than partitions, and from a one-shot iterator."""
        expected = [[] for __ in range(n)]
        for i, rec in enumerate(records):
            expected[i % n].append(rec)
        ds = PartitionedDataset.from_records(shape(records), n)
        assert ds.partitions == expected
        assert ds.to_list() == list(ds.records()) == sum(expected, [])
        assert ds.count() == len(records)

    @given(st.integers(-3, 0))
    def test_from_records_needs_a_partition(self, n):
        with pytest.raises(ValueError):
            PartitionedDataset.from_records([1, 2], n)

    def test_map_partitions(self):
        ds = PartitionedDataset.from_records(range(6), 2)
        out = ds.map_partitions(lambda p: [x * 2 for x in p])
        assert sorted(out.records()) == [0, 2, 4, 6, 8, 10]

    @given(st.lists(st.integers(0, 50), max_size=60), st.integers(1, 7))
    def test_shuffle_preserves_multiset(self, records, n):
        ds = PartitionedDataset.from_records(records, 3)
        shuffled = ds.shuffle_by_key(lambda x: x % 5, n)
        assert sorted(shuffled.records()) == sorted(records)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60))
    def test_shuffle_colocates_keys(self, records):
        ds = PartitionedDataset.from_records(records, 4)
        shuffled = ds.shuffle_by_key(lambda x: x % 3, 4)
        location = {}
        for pid, part in enumerate(shuffled.partitions):
            for record in part:
                key = record % 3
                assert location.setdefault(key, pid) == pid

    def test_zip_partitions_requires_equal_counts(self):
        a = PartitionedDataset.from_records(range(4), 2)
        b = PartitionedDataset.from_records(range(4), 4)
        with pytest.raises(ValueError):
            a.zip_partitions(b, lambda x, y: x + y)

    def test_empty_dataset(self):
        ds = PartitionedDataset([])
        assert ds.count() == 0 and ds.num_partitions == 1


class TestPregelEngine:
    def test_pagerank_matches_reference(self):
        edges = [(0, 1), (1, 2), (2, 0), (0, 2), (3, 0)]
        pregel = PregelEngine(num_partitions=4).pagerank(edges, iterations=15)
        reference = pagerank_edges(edges, iterations=15)
        for v in reference:
            assert pregel[v] == pytest.approx(reference[v])

    def test_partition_count_does_not_change_result(self):
        edges = [(i, (i * 3) % 11) for i in range(11)]
        one = PregelEngine(num_partitions=1).pagerank(edges)
        many = PregelEngine(num_partitions=8).pagerank(edges)
        for v in one:
            assert one[v] == pytest.approx(many[v])

    def test_superstep_stats_recorded(self):
        engine = PregelEngine(num_partitions=2)
        engine.pagerank([(0, 1), (1, 0)], iterations=5)
        assert len(engine.stats) == 5
        assert all(s.messages_sent == 2 for s in engine.stats)

    def test_empty_graph(self):
        assert PregelEngine().pagerank([]) == {}

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            PregelEngine(num_partitions=0)


class TestJGraphLibrary:
    def test_counts_and_degrees(self):
        g = Graph.from_edges([(1, 2), (1, 3), (2, 3)])
        assert g.num_vertices == 3 and g.num_edges == 3
        assert g.out_degree(1) == 2 and g.out_degree(3) == 0
        assert sorted(g.neighbors(1)) == [2, 3]

    def test_pagerank_matches_reference(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        ours = Graph.from_edges(edges).pagerank(iterations=20)
        ref = pagerank_edges(edges, iterations=20)
        for v in ref:
            assert ours[v] == pytest.approx(ref[v])

    def test_reachability(self):
        g = Graph.from_edges([(1, 2), (2, 3), (4, 5)])
        assert g.reachable_from(1) == {1, 2, 3}
        assert g.reachable_from(99) == set()


class TestPgresEngine:
    def _db(self):
        db = PgresDatabase()
        rows = [{"k": i, "v": i * 10} for i in range(20)]
        db.create_table("t", ["k", "v"], rows, sim_factor=100.0,
                        bytes_per_row=80.0)
        return db

    def test_create_read_drop(self):
        db = self._db()
        assert len(db.table("t").rows) == 20
        db.drop_table("t")
        with pytest.raises(TableNotFound):
            db.table("t")

    def test_duplicate_table_rejected(self):
        db = self._db()
        with pytest.raises(DuplicateTable):
            db.create_table("t", ["k"])

    def test_analyze_and_row_bytes(self):
        db = self._db()
        assert db.analyze() == {"t": 2000.0}
        assert db.row_bytes() == {"t": 80.0}

    def test_index_range_scan_matches_linear(self):
        db = self._db()
        index = db.create_index("t", "v")
        rows = db.table("t").rows
        got = sorted(rows[i]["v"] for i in index.range_row_ids(30, 120))
        expected = sorted(r["v"] for r in rows if 30 <= r["v"] <= 120)
        assert got == expected

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_index_scan_property(self, values, a, b):
        low, high = sorted((a, b))
        db = PgresDatabase()
        rows = [{"x": v} for v in values]
        db.create_table("p", ["x"], rows)
        index = db.create_index("p", "x")
        got = sorted(rows[i]["x"] for i in index.range_row_ids(low, high))
        assert got == sorted(v for v in values if low <= v <= high)

    def test_open_ended_ranges(self):
        db = self._db()
        index = db.create_index("t", "k")
        assert len(index.range_row_ids(None, None)) == 20
        assert len(index.range_row_ids(15, None)) == 5

    def test_index_on_missing_column(self):
        with pytest.raises(ValueError):
            self._db().create_index("t", "nope")

    def test_insert_rebuilds_index(self):
        db = self._db()
        index = db.create_index("t", "k")
        db.insert_many("t", [{"k": 100, "v": 0}])
        assert db.table("t").rows[
            index.range_row_ids(100, 100)[0]]["k"] == 100

    def test_projection_bytes(self):
        table = self._db().table("t")
        assert table.bytes_for_projection(["k"]) == pytest.approx(40.0)
        assert table.bytes_for_projection(None) == 80.0


class TestEngineEquivalence:
    """The same logical pipeline must produce identical results on every
    platform able to run it (the substance behind platform independence)."""

    PLATFORMS = ("pystreams", "sparklite", "flinklite")

    def _run(self, ctx_factory, platform, pipeline):
        ctx = ctx_factory()
        return pipeline(ctx).collect(
            allowed_platforms={platform, "driver"})

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=40))
    def test_map_filter_distinct_sort(self, values):
        def factory():
            from repro import RheemContext
            return RheemContext()

        def pipeline(ctx):
            return (ctx.load_collection(values)
                    .map(lambda x: x * 2)
                    .filter(lambda x: x >= 0)
                    .distinct()
                    .sort())

        results = [self._run(factory, p, pipeline) for p in self.PLATFORMS]
        assert results[0] == results[1] == results[2]

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=40))
    def test_reduce_by_key(self, values):
        def factory():
            from repro import RheemContext
            return RheemContext()

        def pipeline(ctx):
            return (ctx.load_collection(values)
                    .map(lambda x: (x % 4, x))
                    .reduce_by_key(lambda t: t[0],
                                   lambda a, b: (a[0], a[1] + b[1])))

        results = [sorted(self._run(factory, p, pipeline))
                   for p in self.PLATFORMS]
        assert results[0] == results[1] == results[2]

    def test_join_and_union_across_platforms(self):
        left = [(i, f"l{i}") for i in range(10)]
        right = [(i % 5, f"r{i}") for i in range(10)]

        def pipeline(ctx):
            a = ctx.load_collection(left)
            b = ctx.load_collection(right)
            return a.join(b, lambda t: t[0], lambda t: t[0])

        from repro import RheemContext
        results = [sorted(self._run(RheemContext, p, pipeline))
                   for p in self.PLATFORMS]
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 10  # keys 0-4 match twice each

    def test_global_reduce_and_count(self):
        from repro import RheemContext
        for platform in self.PLATFORMS:
            ctx = RheemContext()
            total = (ctx.load_collection(list(range(50)))
                     .reduce(lambda a, b: a + b)
                     .collect(allowed_platforms={platform, "driver"}))
            assert total == [sum(range(50))]
            ctx = RheemContext()
            n = (ctx.load_collection(list(range(50))).count()
                 .collect(allowed_platforms={platform, "driver"}))
            assert n == [50]


# ---------------------------------------------------------------------------
# Golden binding table of the three partitioned dataflow engines, captured
# from the tree before they were bound by engine value: (engine, logical
# operator name, [(op_kind, execution-operator name)], input channels,
# output channel, broadcast channel).
# ---------------------------------------------------------------------------
_GOLDEN_BINDINGS = [
    ("sparklite", "textfile-source",
     [("source", "sparklite.source[textfile-source]")],
     [], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "collection-source",
     [("source", "sparklite.source[collection-source]")],
     [], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "map", [("map", "sparklite.map[map]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "flatmap", [("flatmap", "sparklite.flatmap[flatmap]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "filter", [("filter", "sparklite.filter[filter]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "map-partitions", [("map", "sparklite.map[map-partitions]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "zipwithid", [("map", "sparklite.map[zipwithid]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "sample", [("sample_scan", "sparklite.sample_scan[sample]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "sample-first",
     [("sample", "sparklite.sample[sample-first]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "distinct", [("distinct", "sparklite.distinct[distinct]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "sort", [("sort", "sparklite.sort[sort]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "groupby", [("groupby", "sparklite.groupby[groupby]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "reduceby", [("reduceby", "sparklite.reduceby[reduceby]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "reduce", [("reduce", "sparklite.reduce[reduce]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "count", [("count", "sparklite.count[count]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "cache", [("cache", "sparklite.cache[cache]")],
     ["sparklite.rdd"], "sparklite.cached_rdd", "sparklite.broadcast"),
    ("sparklite", "union", [("union", "sparklite.union[union]")],
     ["sparklite.rdd"] * 2, "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "intersect",
     [("intersect", "sparklite.intersect[intersect]")],
     ["sparklite.rdd"] * 2, "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "join", [("join", "sparklite.join[join]")],
     ["sparklite.rdd"] * 2, "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "cartesian",
     [("cartesian", "sparklite.cartesian[cartesian]")],
     ["sparklite.rdd"] * 2, "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "iejoin", [("iejoin", "sparklite.iejoin[iejoin]")],
     ["sparklite.rdd"] * 2, "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "pagerank", [("pagerank", "sparklite.pagerank[pagerank]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("sparklite", "collection-sink",
     [("collect_sink", "sparklite.collect_sink[collection-sink]")],
     ["sparklite.rdd"], "pystreams.collection", "sparklite.broadcast"),
    ("sparklite", "textfile-sink", [("sink", "sparklite.sink[textfile-sink]")],
     ["sparklite.rdd"], "sparklite.rdd", "sparklite.broadcast"),
    ("flinklite", "textfile-source",
     [("source", "flinklite.source[textfile-source]")],
     [], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "collection-source",
     [("source", "flinklite.source[collection-source]")],
     [], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "map", [("map", "flinklite.map[map]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "flatmap", [("flatmap", "flinklite.flatmap[flatmap]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "filter", [("filter", "flinklite.filter[filter]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "map-partitions", [("map", "flinklite.map[map-partitions]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "zipwithid", [("map", "flinklite.map[zipwithid]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "sample", [("sample_scan", "flinklite.sample_scan[sample]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "sample-first",
     [("sample", "flinklite.sample[sample-first]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "distinct", [("distinct", "flinklite.distinct[distinct]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "sort", [("sort", "flinklite.sort[sort]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "groupby", [("groupby", "flinklite.groupby[groupby]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "reduceby", [("reduceby", "flinklite.reduceby[reduceby]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "reduce", [("reduce", "flinklite.reduce[reduce]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "count", [("count", "flinklite.count[count]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "cache", [("cache", "flinklite.cache[cache]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "union", [("union", "flinklite.union[union]")],
     ["flinklite.dataset"] * 2, "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "intersect",
     [("intersect", "flinklite.intersect[intersect]")],
     ["flinklite.dataset"] * 2, "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "join", [("join", "flinklite.join[join]")],
     ["flinklite.dataset"] * 2, "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "cartesian",
     [("cartesian", "flinklite.cartesian[cartesian]")],
     ["flinklite.dataset"] * 2, "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "iejoin", [("iejoin", "flinklite.iejoin[iejoin]")],
     ["flinklite.dataset"] * 2, "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "pagerank", [("pagerank", "flinklite.pagerank[pagerank]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("flinklite", "collection-sink",
     [("collect_sink", "flinklite.collect_sink[collection-sink]")],
     ["flinklite.dataset"], "pystreams.collection", "flinklite.broadcast"),
    ("flinklite", "textfile-sink", [("sink", "flinklite.sink[textfile-sink]")],
     ["flinklite.dataset"], "flinklite.dataset", "flinklite.broadcast"),
    ("graphlite", "textfile-source",
     [("source", "graphlite.source[textfile-source]")],
     [], "graphlite.dataset", "graphlite.dataset"),
    ("graphlite", "collection-source",
     [("source", "graphlite.source[collection-source]")],
     [], "graphlite.dataset", "graphlite.dataset"),
    ("graphlite", "map", [("map", "graphlite.map[map]")],
     ["graphlite.dataset"], "graphlite.dataset", "graphlite.dataset"),
    ("graphlite", "filter", [("filter", "graphlite.filter[filter]")],
     ["graphlite.dataset"], "graphlite.dataset", "graphlite.dataset"),
    ("graphlite", "distinct", [("distinct", "graphlite.distinct[distinct]")],
     ["graphlite.dataset"], "graphlite.dataset", "graphlite.dataset"),
    ("graphlite", "intersect",
     [("intersect", "graphlite.intersect[intersect]")],
     ["graphlite.dataset"] * 2, "graphlite.dataset", "graphlite.dataset"),
    ("graphlite", "pagerank", [("pagerank", "graphlite.pagerank[pagerank]")],
     ["graphlite.dataset"], "graphlite.dataset", "graphlite.dataset"),
    ("graphlite", "collection-sink",
     [("collect_sink", "graphlite.collect_sink[collection-sink]")],
     ["graphlite.dataset"], "pystreams.collection", "graphlite.dataset"),
    ("graphlite", "textfile-sink", [("sink", "graphlite.sink[textfile-sink]")],
     ["graphlite.dataset"], "graphlite.dataset", "graphlite.dataset"),
]


def _logical_samples():
    """One instance of every logical operator a dataflow engine maps."""
    from repro.core import operators as ops

    def k(x):
        return x

    return [
        ops.TextFileSource("hdfs://in"), ops.CollectionSource([1]),
        ops.Map(k), ops.FlatMap(k), ops.Filter(k), ops.MapPartitions(k),
        ops.ZipWithId(), ops.Sample(size=1),
        ops.Sample(size=1, method="first", name="sample-first"),
        ops.Distinct(), ops.Sort(), ops.GroupBy(k), ops.ReduceBy(k, k),
        ops.GlobalReduce(k), ops.Count(), ops.Cache(), ops.Union(),
        ops.Intersect(), ops.Join(k, k), ops.CartesianProduct(),
        ops.IEJoin([ops.InequalityCondition(k, "<", k)]), ops.PageRank(),
        ops.CollectionSink(), ops.TextFileSink("hdfs://out"),
    ]


class TestGoldenBindings:
    """No binding of sparklite / flinklite / graphlite is lost or renamed."""

    ENGINES = ("sparklite", "flinklite", "graphlite")

    def test_every_binding_matches_the_golden_table(self):
        from repro import RheemContext

        ctx = RheemContext()
        actual = []
        for op in _logical_samples():
            for alt in ctx.registry.alternatives_for(op):
                if alt.platform not in self.ENGINES:
                    continue
                actual.append((
                    alt.platform, op.name,
                    [(x.op_kind, x.name) for x in alt.ops],
                    [d.name for d in alt.input_descriptors()],
                    alt.output_descriptor().name,
                    alt.broadcast_descriptor().name))

        assert sorted(actual) == sorted(_GOLDEN_BINDINGS)

    def test_no_channel_or_conversion_is_named_for_a_payload_layout(self):
        # A record batch rides the channels that exist.
        from repro import RheemContext

        graph = RheemContext().graph
        names = [d.name for d in graph.descriptors()]
        names += [c.name for d in graph.descriptors()
                  for c in graph.conversions_from(d.name)]
        assert len(names) > 20
        assert not [n for n in names if "batch" in n]
