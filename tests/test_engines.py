"""Engine-level tests: partitioned datasets, the relational engine, and
cross-engine result equivalence."""

import pytest
from hypothesis import given, strategies as st

from repro.core.kernels import group_by_key
from repro.platforms.distributed import PartitionedDataset
from repro.platforms.pgres.engine import (
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

    def test_empty_dataset(self):
        ds = PartitionedDataset([])
        assert ds.count() == 0 and ds.num_partitions == 1


class TestOnePartitionPath:
    """On one partition nothing moves: the shuffle reads no key and
    ReduceBy folds once.  The same operators on a partitioned engine
    shuffle for real."""

    RECORDS = [(i % 4, i) for i in range(12)]

    def _execute(self, exec_op, payload):
        from repro import RheemContext
        from repro.core.channels import Channel
        from repro.core.execution import ExecutionContext

        ctx = RheemContext()
        exec_ctx = ExecutionContext(cluster=ctx.cluster, pgres=ctx.pgres,
                                    seed=0)
        channel = Channel(exec_op.engine.dataset, payload, 1.0, 16.0,
                          len(self.RECORDS))
        return exec_op.execute([channel], [], exec_ctx)

    def test_a_shuffle_of_one_partition_reads_no_key(self):
        from repro.core import operators as ops
        from repro.platforms.dataflow import DFGroupBy
        from repro.platforms.pystreams import PYSTREAMS
        from repro.platforms.sparklite import SPARK

        calls = []

        def key(record):
            calls.append(record)
            return record[0]

        out = self._execute(DFGroupBy(ops.GroupBy(key), PYSTREAMS),
                            list(self.RECORDS))
        assert out.payload == group_by_key(lambda r: r[0], self.RECORDS)
        assert len(calls) == len(self.RECORDS)  # grouping only
        del calls[:]
        self._execute(DFGroupBy(ops.GroupBy(key), SPARK),
                      PartitionedDataset.from_records(self.RECORDS, 3))
        assert len(calls) == 2 * len(self.RECORDS)  # shuffle + grouping

    def test_reduce_by_folds_once_when_nothing_moved(self, monkeypatch):
        from repro.core import operators as ops
        from repro.platforms import dataflow
        from repro.platforms.pystreams import PYSTREAMS
        from repro.platforms.sparklite import SPARK

        folds = []
        run_reduce = dataflow.run_reduce

        def counting(logical, payload):
            folds.append(len(payload))
            return run_reduce(logical, payload)

        monkeypatch.setattr(dataflow, "run_reduce", counting)

        def add(a, b):
            return (a[0], a[1] + b[1])

        out = self._execute(
            dataflow.DFReduceBy(ops.ReduceBy(lambda r: r[0], add),
                                PYSTREAMS), list(self.RECORDS))
        assert out.payload == [(0, 12), (1, 15), (2, 18), (3, 21)]
        assert folds == [len(self.RECORDS)]
        del folds[:]
        self._execute(dataflow.DFReduceBy(ops.ReduceBy(lambda r: r[0], add),
                                          SPARK),
                      PartitionedDataset.from_records(self.RECORDS, 3))
        assert len(folds) > 3  # 3 local folds, then one per target


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
# Golden binding table, captured from the tree before each engine was bound
# by engine value: (engine, logical operator name, [(op_kind,
# execution-operator name)], input channels, output channel, broadcast
# channel or None).  Rows of one logical operator are in registration
# order (the platforms' registration order across them); pystreams'
# ReduceBy has a second, two-operator alternative.  The pgres rows were
# captured before pgres was bound to the shared operators.
# ---------------------------------------------------------------------------
_PY = "pystreams.collection"
_PG = "pgres.relation"

_GOLDEN_BINDINGS = [
    ("pystreams", "textfile-source",
     [("source", "pystreams.source[textfile-source]")], [], _PY, _PY),
    ("pystreams", "collection-source",
     [("source", "pystreams.source[collection-source]")], [], _PY, _PY),
    ("pystreams", "map", [("map", "pystreams.map[map]")], [_PY], _PY, _PY),
    ("pystreams", "flatmap", [("flatmap", "pystreams.flatmap[flatmap]")],
     [_PY], _PY, _PY),
    ("pystreams", "filter", [("filter", "pystreams.filter[filter]")],
     [_PY], _PY, _PY),
    ("pystreams", "map-partitions",
     [("map", "pystreams.map[map-partitions]")], [_PY], _PY, _PY),
    ("pystreams", "zipwithid", [("map", "pystreams.map[zipwithid]")],
     [_PY], _PY, _PY),
    ("pystreams", "sample", [("sample", "pystreams.sample[sample]")],
     [_PY], _PY, _PY),
    ("pystreams", "sample-first",
     [("sample", "pystreams.sample[sample-first]")], [_PY], _PY, _PY),
    ("pystreams", "distinct", [("distinct", "pystreams.distinct[distinct]")],
     [_PY], _PY, _PY),
    ("pystreams", "sort", [("sort", "pystreams.sort[sort]")],
     [_PY], _PY, _PY),
    ("pystreams", "groupby", [("groupby", "pystreams.groupby[groupby]")],
     [_PY], _PY, _PY),
    ("pystreams", "reduceby", [("reduceby", "pystreams.reduceby[reduceby]")],
     [_PY], _PY, _PY),
    ("pystreams", "reduceby",
     [("groupby", "pystreams.groupby[reduceby]"),
      ("map", "pystreams.map[reduceby]")], [_PY], _PY, _PY),
    ("pystreams", "reduce", [("reduce", "pystreams.reduce[reduce]")],
     [_PY], _PY, _PY),
    ("pystreams", "count", [("count", "pystreams.count[count]")],
     [_PY], _PY, _PY),
    ("pystreams", "cache", [("cache", "pystreams.cache[cache]")],
     [_PY], _PY, _PY),
    ("pystreams", "union", [("union", "pystreams.union[union]")],
     [_PY] * 2, _PY, _PY),
    ("pystreams", "intersect",
     [("intersect", "pystreams.intersect[intersect]")], [_PY] * 2, _PY, _PY),
    ("pystreams", "join", [("join", "pystreams.join[join]")],
     [_PY] * 2, _PY, _PY),
    ("pystreams", "cartesian",
     [("cartesian", "pystreams.cartesian[cartesian]")], [_PY] * 2, _PY, _PY),
    ("pystreams", "iejoin", [("iejoin", "pystreams.iejoin[iejoin]")],
     [_PY] * 2, _PY, _PY),
    ("pystreams", "pagerank", [("pagerank", "pystreams.pagerank[pagerank]")],
     [_PY], _PY, _PY),
    ("pystreams", "collection-sink",
     [("sink", "pystreams.sink[collection-sink]")], [_PY], _PY, _PY),
    ("pystreams", "textfile-sink",
     [("sink", "pystreams.sink[textfile-sink]")], [_PY], _PY, _PY),
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
    ("pgres", "table-source(t)",
     [("table_source", "pgres.table_source[table-source(t)]")],
     [], _PG, None),
    ("pgres", "map", [("map", "pgres.map[map]")], [_PG], _PG, None),
    ("pgres", "filter", [("filter", "pgres.filter[filter]")],
     [_PG], _PG, None),
    ("pgres", "distinct", [("distinct", "pgres.distinct[distinct]")],
     [_PG], _PG, None),
    ("pgres", "sort", [("sort", "pgres.sort[sort]")], [_PG], _PG, None),
    ("pgres", "groupby", [("groupby", "pgres.groupby[groupby]")],
     [_PG], _PG, None),
    ("pgres", "reduceby", [("reduceby", "pgres.reduceby[reduceby]")],
     [_PG], _PG, None),
    ("pgres", "reduce", [("reduce", "pgres.reduce[reduce]")],
     [_PG], _PG, None),
    ("pgres", "count", [("count", "pgres.count[count]")], [_PG], _PG, None),
    ("pgres", "union", [("union", "pgres.union[union]")],
     [_PG] * 2, _PG, None),
    ("pgres", "intersect", [("intersect", "pgres.intersect[intersect]")],
     [_PG] * 2, _PG, None),
    ("pgres", "join", [("join", "pgres.join[join]")], [_PG] * 2, _PG, None),
    ("pgres", "iejoin", [("nested_loop", "pgres.nested_loop[iejoin]")],
     [_PG] * 2, _PG, None),
    ("pgres", "collection-sink",
     [("collect_sink", "pgres.collect_sink[collection-sink]")],
     [_PG], _PY, None),
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
    ("graphchi", "pagerank", [("pagerank", "graphchi.pagerank[pagerank]")],
     [_PY], _PY, None),
    ("jgraph", "pagerank", [("pagerank", "jgraph.pagerank[pagerank]")],
     [_PY], _PY, None),
]


def _logical_samples():
    """One instance of every logical operator an engine-bound platform
    maps."""
    from repro.core import operators as ops

    def k(x):
        return x

    return [
        ops.TextFileSource("hdfs://in"), ops.CollectionSource([1]),
        ops.TableSource("t"), ops.Map(k), ops.FlatMap(k), ops.Filter(k),
        ops.MapPartitions(k),
        ops.ZipWithId(), ops.Sample(size=1),
        ops.Sample(size=1, method="first", name="sample-first"),
        ops.Distinct(), ops.Sort(), ops.GroupBy(k), ops.ReduceBy(k, k),
        ops.GlobalReduce(k), ops.Count(), ops.Cache(), ops.Union(),
        ops.Intersect(), ops.Join(k, k), ops.CartesianProduct(),
        ops.IEJoin([ops.InequalityCondition(k, "<", k)]), ops.PageRank(),
        ops.CollectionSink(), ops.TextFileSink("hdfs://out"),
    ]


class TestGoldenBindings:
    """No binding of an engine-bound platform is lost, renamed or
    reordered among its logical operator's alternatives."""

    ENGINES = ("pystreams", "sparklite", "flinklite", "graphlite",
               "graphchi", "jgraph", "pgres")

    def test_every_binding_matches_the_golden_table(self):
        from repro import RheemContext

        ctx = RheemContext()
        samples = _logical_samples()
        actual = []
        for op in samples:
            for alt in ctx.registry.alternatives_for(op):
                if alt.platform not in self.ENGINES:
                    continue
                broadcast = alt.broadcast_descriptor()
                actual.append((
                    alt.platform, op.name,
                    [(x.op_kind, x.name) for x in alt.ops],
                    [d.name for d in alt.input_descriptors()],
                    alt.output_descriptor().name,
                    broadcast.name if broadcast is not None else None))

        position = {op.name: i for i, op in enumerate(samples)}
        assert actual == sorted(_GOLDEN_BINDINGS,
                                key=lambda row: position[row[1]])

    def test_no_channel_or_conversion_is_named_for_a_payload_layout(self):
        # A record batch rides the channels that exist.
        from repro import RheemContext

        graph = RheemContext().graph
        names = [d.name for d in graph.descriptors()]
        names += [c.name for d in graph.descriptors()
                  for c in graph.conversions_from(d.name)]
        assert len(names) > 20
        assert not [n for n in names if "batch" in n]
