"""Declared-vs-stripped parity: same results, same plan, same simulated time.

A logical operator may declare a columnar kernel (``batch_udf`` /
``batch_impl`` / ``batch_key`` / ``*_key_column``); every engine then
runs it on a :class:`RecordBatch` instead of the row UDF.  That must
change nothing observable: the query result is bit-for-bit identical,
the chosen platforms and the simulated runtime are identical (the
conversion graph, the mappings and every charge are the same — only the
payload's layout differs), and sinks, sniffers and file hand-offs keep
handing out plain record lists.  The reference is the same plan with its
declarations stripped (``conftest.stripped``), which runs the record
kernels only; each test runs one workload both ways on default contexts.

Shuffles place rows by ``hash(key) % n``: CI runs this module under
``PYTHONHASHSEED`` 0 and 1.
"""

import numpy as np
import pytest

from repro import RheemContext
from repro.apps import dataciv, q5_quanta
from repro.core.batch import RecordBatch
from repro.core.channels import Channel, PY_COLLECTION
from repro.core.executor import Sniffer
from repro.core.faults import FaultInjector
from repro.core.resultstore import IntermediateResultStore
from repro.workloads import TpchLite, write_community
from conftest import declared_wordcount, stripped


def _run(quanta, **execute_kw):
    """Execute ``quanta``; the result also carries the chosen platform of
    every execution operator, in stage order, as ``placement``."""
    plan = quanta.to_plan()
    exec_plan, __ = quanta.ctx.optimize(plan)
    result = quanta.ctx.execute(plan, **execute_kw)
    result.placement = [
        (task.operator.name, task.operator.platform)
        for stage in exec_plan.build_stages(break_after=set())
        for task in stage.tasks]
    return result


def _both(build, **execute_kw):
    """Execute ``build(ctx)`` as declared and stripped of declarations."""
    results = []
    for strip in (False, True):
        quanta = build(RheemContext())
        results.append(_run(stripped(quanta) if strip else quanta,
                            **execute_kw))
    return results


def _assert_parity(declared, reference):
    assert declared.outputs == reference.outputs
    assert [repr(o) for o in declared.outputs] \
        == [repr(o) for o in reference.outputs]  # 0.0 vs -0.0, 1 vs 1.0
    assert declared.runtime == reference.runtime
    assert declared.platforms == reference.platforms
    assert declared.stage_count == reference.stage_count
    assert getattr(declared, "placement", None) \
        == getattr(reference, "placement", None)


class TestWorkloadParity:
    @staticmethod
    def _wordcount(engine):
        def pin(dq):
            return dq if engine is None else dq.with_target_platform(engine)

        def build(ctx):
            ctx.vfs.write("hdfs://bp/lines.txt",
                          ["a b", "b c", "c", "a a b"], sim_factor=1000.0)
            return declared_wordcount(ctx, "hdfs://bp/lines.txt", pin)

        declared, reference = _both(build)
        _assert_parity(declared, reference)
        assert dict(declared.output) == {"a": 3, "b": 3, "c": 2}
        # == can't see numpy scalars (np.str_ == str): the records must
        # be plain Python types, not just equal-comparing ones.
        assert type(declared.output) is list
        assert all(type(w) is str and type(n) is int
                   for w, n in declared.output)

    def test_wordcount(self):
        self._wordcount(None)  # the optimizer's own placement

    @pytest.mark.parametrize("engine", ["pystreams", "sparklite",
                                        "flinklite"])
    def test_wordcount_pinned(self, engine):
        self._wordcount(engine)

    def test_tpch_q5_polystore(self):
        def build(ctx):
            gen = TpchLite(0.1)
            gen.place_for_q5(ctx)
            return q5_quanta(ctx, 0.1, "polystore")

        declared, reference = _both(build)
        _assert_parity(declared, reference)
        assert declared.output, "Q5 returned no rows"

    #: ``runtime`` (migration charge included) of the parent commit's
    #: default context at sf 0.01, per placement.
    PARENT_RUNTIME = {"polystore": 0.34337579500000004,
                      "all_pgres": 0.85183875,
                      "all_hdfs": 7.135250302}

    @pytest.mark.parametrize("placement, runner", [
        ("polystore", dataciv.run_polystore),
        ("all_pgres", dataciv.run_all_into_pgres),
        ("all_hdfs", dataciv.run_all_on_spark)])
    def test_tpch_q5_on_every_placement(self, placement, runner,
                                        monkeypatch):
        declared = runner(RheemContext(), 0.01)
        build = dataciv.q5_quanta
        monkeypatch.setattr(
            dataciv, "q5_quanta",
            lambda *args, **kw: stripped(build(*args, **kw)))
        reference = runner(RheemContext(), 0.01)
        assert declared.result and declared.result == reference.result
        assert [repr(r) for r in declared.result] \
            == [repr(r) for r in reference.result]
        assert declared.runtime == reference.runtime \
            == self.PARENT_RUNTIME[placement]
        _assert_parity(declared.raw, reference.raw)

    def test_tpch_q5_in_memory(self):
        from repro.workloads.tpch import ROW_BYTES, SF1_ROWS

        gen = TpchLite(0.1)
        tables = {t: gen.table(t) for t in SF1_ROWS}

        def build(ctx):
            def mem(ctx_, table):
                return ctx_.load_collection(
                    tables[table], sim_factor=gen.sim_factor(table),
                    bytes_per_record=ROW_BYTES[table])
            return q5_quanta(ctx, 0.1, sources={t: mem for t in SF1_ROWS})

        declared, reference = _both(build)
        _assert_parity(declared, reference)

    def test_crocopr_pagerank(self):
        # Declared parse -> union + distinct + PageRank (row operators
        # with no columnar kernel) -> declared sort: batches feed row
        # operators, whose lists feed a declared kernel again.
        def edges(ctx, path):
            return ctx.read_text_file(path).map(
                lambda line: tuple(line.split()), bytes_per_record=16,
                batch_udf=lambda b: [tuple(line.split())
                                     for line in b.to_records()])

        def build(ctx):
            write_community(ctx, "hdfs://bp/c1", 1, sim_mb=10.0)
            write_community(ctx, "hdfs://bp/c2", 2, sim_mb=10.0)
            shared = (edges(ctx, "hdfs://bp/c1")
                      .union(edges(ctx, "hdfs://bp/c2")).distinct())
            return shared.pagerank(iterations=5).sort(
                key=lambda vr: -vr[1],
                batch_key=lambda b: -np.asarray(b.col(1)))

        declared, reference = _both(build)
        _assert_parity(declared, reference)
        assert declared.output

    def test_pipeline_with_unbatched_operators(self):
        # sample / zip_with_id have no columnar kernel; parity must
        # survive batch -> row operator -> batch.
        def build(ctx):
            return (ctx.load_collection(list(range(200)))
                    .map(lambda x: x * 3,
                         batch_udf=lambda b: (b.col(0) * 3).tolist())
                    .sample(size=10)
                    .zip_with_id()
                    .sort(key=lambda t: t[1],
                          batch_key=lambda b: b.col(1)))

        declared, reference = _both(build)
        _assert_parity(declared, reference)
        assert len(declared.output) == 10

    @pytest.mark.parametrize("engine", ["pystreams", "sparklite",
                                        "flinklite"])
    def test_a_broadcast_reaches_a_declared_kernel(self, engine):
        def build(ctx):
            side = ctx.load_collection([10]).map(
                lambda x: x + 1, batch_udf=lambda b: (b.col(0) + 1).tolist())
            return ctx.load_collection([1, 2, 3]).map(
                lambda x, b: x + b[0], broadcasts=[side],
                batch_udf=lambda batch, b: (batch.col(0) + b[0]).tolist()
            ).with_target_platform(engine)

        declared, reference = _both(build)
        _assert_parity(declared, reference)
        assert sorted(declared.output) == [12, 13, 14]


class TestControlFlowParity:
    def test_repeat_loop(self):
        def build(ctx):
            data = ctx.load_collection([1, 2, 3]).cache()
            seed = ctx.load_collection([0])
            return seed.repeat(
                3, lambda s, inv: s.map(
                    lambda v: v + 1,
                    batch_udf=lambda b: (b.col(0) + 1).tolist()),
                invariants=[data])

        declared, reference = _both(build)
        _assert_parity(declared, reference)
        assert declared.output == [3]

    def test_do_while_loop(self):
        def build(ctx):
            seed = ctx.load_collection([1])
            return seed.do_while(
                lambda vals: vals[0] < 16,
                lambda s: s.map(lambda v: v * 2,
                                batch_udf=lambda b: (b.col(0) * 2).tolist()))

        declared, reference = _both(build)
        _assert_parity(declared, reference)
        assert declared.output == [16]

    def test_fault_injected_retry(self):
        def build(ctx):
            ctx.vfs.write("hdfs://bp/f.txt", ["a b", "b"], sim_factor=500.0)
            return declared_wordcount(ctx, "hdfs://bp/f.txt")

        def first_stage(strip):
            ctx = RheemContext()
            quanta = build(ctx)
            exec_plan, __ = ctx.optimize(
                (stripped(quanta) if strip else quanta).to_plan())
            return exec_plan.build_stages(break_after=set())[0].id

        results = []
        for strip in (False, True):
            ctx = RheemContext()
            quanta = build(ctx)
            injector = FaultInjector(failures={first_stage(strip): 2})
            result = _run(stripped(quanta) if strip else quanta,
                          fault_injector=injector, max_stage_retries=2)
            assert injector.injected == 2
            results.append(result)
        _assert_parity(*results)


class TestSnifferParity:
    def test_sniffers_see_plain_records_in_both_modes(self):
        taps = []
        for strip in (False, True):
            ctx = RheemContext()
            ctx.vfs.write("hdfs://bp/s.txt", ["a b", "b c"],
                          sim_factor=100.0)
            dq = declared_wordcount(ctx, "hdfs://bp/s.txt",
                                    lambda q: q.with_target_platform(
                                        "pystreams"))
            if strip:
                stripped(dq)
            flatmap_op = dq.op.inputs[0].op.inputs[0].op
            tapped = []
            dq.execute(sniffers=[Sniffer(flatmap_op.id, tapped.append)])
            assert len(tapped) == 1
            taps.append(tapped[0])
        declared_view, reference_view = taps
        assert type(declared_view) is list
        assert declared_view == reference_view == ["a", "b", "b", "c"]


class TestPayloadBoundaries:
    """Where a batch stops being a batch — and where it need not."""

    @staticmethod
    def _tripled(ctx):
        return ctx.load_collection([1, 2, 3]).map(
            lambda x: x * 3, batch_udf=lambda b: (b.col(0) * 3).tolist()
        ).with_target_platform("pystreams")

    def test_sinks_hand_out_plain_lists(self, ctx):
        result = self._tripled(ctx).execute()
        assert type(result.output) is list and result.output == [3, 6, 9]
        self._tripled(ctx).write_text_file("file://bp/out.txt")
        assert ctx.vfs.read("file://bp/out.txt").records == ["3", "6", "9"]

    @pytest.mark.parametrize("scheme", ["hdfs", "file"])
    def test_collection_to_file_conversions_write_records(self, ctx, scheme):
        from repro.core.channels import HDFS_FILE, LOCAL_FILE
        from repro.core.execution import ExecutionContext

        target = HDFS_FILE if scheme == "hdfs" else LOCAL_FILE
        batch = RecordBatch.from_records([{"a": 1}, {"a": 2}])
        channel = Channel(PY_COLLECTION, batch, 1.0, 8.0, len(batch))
        conversion, = [
            c for c in ctx.graph.conversions_from(PY_COLLECTION.name)
            if c.target == target]
        out = conversion.apply(channel, ExecutionContext(ctx.cluster))
        records = ctx.vfs.read(out.payload).records
        assert type(records) is list and records == [{"a": 1}, {"a": 2}]

    def test_detached_shares_the_immutable_batch(self):
        batch = RecordBatch.from_records([1, 2, 3])
        channel = Channel(PY_COLLECTION, batch, 1.0, 8.0, 3)
        assert channel.detached().payload is batch
        rows = [1, 2, 3]
        copy = Channel(PY_COLLECTION, rows, 1.0, 8.0, 3).detached().payload
        assert copy == rows and copy is not rows

    def test_the_result_store_serves_a_batch_to_a_row_operator(self, ctx):
        ctx.result_store = IntermediateResultStore(min_benefit=0.0,
                                                   metrics=ctx.metrics)
        ctx.vfs.write("hdfs://bp/r.txt", [f"{i} {i % 7}" for i in range(300)],
                      sim_factor=1e3)

        def parsed():
            return ctx.read_text_file("hdfs://bp/r.txt").map(
                lambda line: tuple(map(int, line.split())),
                batch_udf=lambda b: [tuple(map(int, line.split()))
                                     for line in b.to_records()],
                name="parse").with_target_platform("pystreams")

        first = parsed().execute()
        stored = [entry.channel.payload
                  for entry in ctx.result_store._entries.values()]
        assert any(isinstance(p, RecordBatch) for p in stored)
        # A row operator (distinct has no columnar kernel) over the same
        # prefix is served from the store and reads the same records.
        second = parsed().distinct(lambda t: t[1]).execute()
        assert ctx.result_store.stats["hits"] >= 1
        assert second.output == first.output[:7]
