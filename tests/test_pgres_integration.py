"""Integration tests for the relational platform inside full plans:
index scans, projection pushdown, exports, and loads."""

import pytest

from repro import RheemContext


def _people(ctx, n=200, sim_factor=50_000.0):
    rows = [{"pid": i, "age": i % 90, "city": f"c{i % 7}"} for i in range(n)]
    ctx.pgres.create_table("people", ["pid", "age", "city"], rows,
                           sim_factor=sim_factor, bytes_per_row=120.0)
    return rows


class TestIndexScans:
    def test_filter_range_uses_index_when_present(self):
        # Same query, with and without an index on the filtered column.
        def run(with_index):
            ctx = RheemContext()
            _people(ctx)
            if with_index:
                ctx.pgres.create_index("people", "age")
            dq = (ctx.read_table("people")
                  .filter_range("age", 80, 89, selectivity=10 / 90))
            return dq.execute(allowed_platforms={"pgres", "driver"})

        indexed = run(True)
        scanned = run(False)
        assert sorted(r["pid"] for r in indexed.output) == \
            sorted(r["pid"] for r in scanned.output)
        # The index scan touches ~11% of the rows; the seq scan all of them.
        assert indexed.runtime < scanned.runtime

    def test_projection_breaks_index_use(self):
        # Filtering PROJECTED rows cannot use the base-table index (the
        # relation is derived), and must still be correct.
        ctx = RheemContext()
        _people(ctx)
        ctx.pgres.create_index("people", "age")
        out = (ctx.read_table("people", projection=["pid", "age"])
               .filter_range("age", 0, 0, selectivity=1 / 90)
               .collect(allowed_platforms={"pgres", "driver"}))
        assert all(set(r) == {"pid", "age"} and r["age"] == 0 for r in out)

    def test_filter_without_range_metadata_seq_scans(self):
        ctx = RheemContext()
        _people(ctx)
        ctx.pgres.create_index("people", "age")
        out = (ctx.read_table("people")
               .filter(lambda r: r["age"] == 5, name="udf-filter")
               .collect(allowed_platforms={"pgres", "driver"}))
        assert all(r["age"] == 5 for r in out)


class TestProjectionPushdown:
    def test_projection_shrinks_export_volume(self):
        def run(projection):
            ctx = RheemContext()
            _people(ctx, sim_factor=200_000.0)
            dq = ctx.read_table("people", projection=projection)
            # Force the aggregation off pgres so the rows must be exported.
            return (dq.map(lambda r: (r["age"], 1), bytes_per_record=16)
                    .with_target_platform("flinklite")
                    .reduce_by_key(lambda t: t[0],
                                   lambda a, b: (a[0], a[1] + b[1]))
                    .execute())

        narrow = run(["age"])
        wide = run(None)
        assert sorted(narrow.output) == sorted(wide.output)
        assert narrow.runtime < wide.runtime  # fewer exported bytes


class TestLoadPaths:
    def test_collection_can_be_loaded_into_pgres(self):
        # Pinning relational work on pgres over driver data triggers the
        # load conversion.
        ctx = RheemContext()
        tables = ctx.pgres.table_names()
        rows = [{"k": i % 3, "v": i} for i in range(30)]
        out = (ctx.load_collection(rows, bytes_per_record=40)
               .filter_range("v", 10, None, selectivity=2 / 3)
               .with_target_platform("pgres")
               .collect())
        assert sorted(r["v"] for r in out) == list(range(10, 30))
        # The catalog is unchanged.
        assert ctx.pgres.table_names() == tables

    def test_repeated_loads_leave_the_catalog_alone(self):
        # Every optimization copies the catalog's statistics, so a table
        # registered per load would grow every later job's work.
        ctx = RheemContext(config={"result_reuse": False})
        tables = ctx.pgres.table_names()
        rows = [{"k": i % 3, "v": i} for i in range(2000)]
        for __ in range(3):
            result = (ctx.load_collection(rows, bytes_per_record=40)
                      .filter_range("v", 500, None, selectivity=0.75)
                      .with_target_platform("pgres")
                      .execute())
            assert len(result.output) == 1500
            assert [e for r in result.tracker.records for e in r.meter.events
                    if e.label.startswith("convert:pgres-load")]
        assert ctx.pgres.table_names() == tables
        assert ctx.estimation_context().table_cardinalities == {}

    def test_local_file_copy_into_pgres(self):
        ctx = RheemContext()
        rows = [{"k": i} for i in range(10)]
        ctx.vfs.write("file://data/rows", rows, sim_factor=10.0,
                      bytes_per_record=30.0)
        from repro.core.channels import LOCAL_FILE, Channel
        conv = [c for c in ctx.graph.conversions_from(LOCAL_FILE.name)
                if c.target.name == "pgres.relation"][0]
        from repro.core.execution import ExecutionContext
        ectx = ExecutionContext(cluster=ctx.cluster, pgres=ctx.pgres)
        out = conv.apply(Channel(LOCAL_FILE, "file://data/rows", 10.0, 30.0,
                                 10), ectx)
        assert len(out.payload.rows) == 10
        assert out.descriptor.name == "pgres.relation"
