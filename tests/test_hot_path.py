"""The serving hot path reads a submission once: counts and equalities.

A resubmitted document whose plan is already in the result store must not
re-derive what cannot have changed: no UDF source is compiled again, no
``dis`` walk is opened on a UDF that cannot yield a finding, each operator
attribute is tokenized once, and only the operators enumeration reaches
are inflated.  What must NOT change with cache state — diagnostics,
rejection, penalized estimates, outputs — is pinned beside the counts.

Run as a script this module prints the plan and subplan digests of the
Table 1 plans as JSON; ``test_digests_do_not_follow_the_hash_seed`` runs
it under two ``PYTHONHASHSEED`` values.
"""

import builtins
import dis
import gc
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import CodeType, FunctionType

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_enumeration_golden import (
    _chain100,
    _crocopr,
    _q5,
    _sgd,
    _wordcount,
)

from repro import RheemContext
from repro.analysis.diagnostics import LintReport
from repro.apps import ML4all, sgd_hinge
from repro.analysis.udfs import (
    UdfReport,
    _resolves_nondeterministic,
    introspect_udf,
)
from repro.api import PlanDocumentError, RheemService, build_quanta
from repro.core import executor as executor_module
from repro.core import fingerprint
from repro.core import operators as ops
from repro.core.execution import ExecutionPlan
from repro.core.executor import Executor
from repro.core.fingerprint import PlanFingerprints, plan_fingerprint
from repro.core.mappings import (
    ExecutionAlternative,
    MappingRegistry,
    NoMappingError,
    OperatorMapping,
)
from repro.core.optimizer import Optimizer, PartialPlan, PlanAnalysisError
from repro.core.plan import RheemPlan
from repro.platforms import base as platforms_base
from repro.platforms.base import ExecutionOperator
from repro.trace import NO_TRACER
from repro.workloads import write_points
from repro.workloads.text import zipf_lines


# ------------------------------------------------------- (i) count guards
def _q5_shaped_document() -> dict:
    """A five-way join with Q5's shape (23 operators with its sink)."""

    def source(name, rows):
        return [{"name": f"{name}_raw", "kind": "collection_source",
                 "data": rows, "sim_factor": 1_000.0},
                {"name": name, "kind": "map", "input": f"{name}_raw",
                 "expr": "{'k': x[0], 'v': x[1] * scale}"}]

    def join(name, left, right):
        return [{"name": f"{name}_j", "kind": "join", "left": left,
                 "right": right, "left_key": "x['k']", "right_key": "x['k']"},
                {"name": name, "kind": "map", "input": f"{name}_j",
                 "expr": "{'k': x[0]['k'], 'v': x[0]['v'] + x[1]['v']}"}]

    rows = [[k, k + 1] for k in range(12)]
    operators = [op for name in "abcde" for op in source(name, rows)]
    operators += join("ab", "a", "b") + join("abc", "ab", "c")
    operators += join("abcd", "abc", "d") + join("abcde", "abcd", "e")
    operators += [
        {"name": "kept", "kind": "filter", "input": "abcde",
         "expr": "x['k'] % 2 == 0"},
        {"name": "pair", "kind": "map", "input": "kept",
         "expr": "(x['k'] % 3, x['v'])"},
        {"name": "agg", "kind": "reduceby", "input": "pair",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"},
        {"name": "out", "kind": "sort", "input": "agg", "key": "x[0]"}]
    return {"operators": operators, "sink": {"name": "out"}}


ENV = {"scale": 2}


class _Counts:
    """Call counters hung on what a hot request must not redo."""

    def __init__(self, monkeypatch) -> None:
        self.calls = dict.fromkeys(
            ("build", "matches", "dis", "compile", "tokenized", "estimate"),
            0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(OperatorMapping, "build",
                            counting("build", OperatorMapping.build))
        monkeypatch.setattr(OperatorMapping, "matches",
                            counting("matches", OperatorMapping.matches))
        monkeypatch.setattr(dis, "get_instructions",
                            counting("dis", dis.get_instructions))
        monkeypatch.setattr(builtins, "compile",
                            counting("compile", builtins.compile))
        monkeypatch.setattr(
            RheemPlan, "estimate_cardinalities",
            counting("estimate", RheemPlan.estimate_cardinalities))
        token = fingerprint._Fingerprinter.token

        def counting_token(fp, value, depth=0):
            # Depth 0 is one operator attribute; deeper calls are its parts.
            self.calls["tokenized"] += depth == 0
            return token(fp, value, depth)

        monkeypatch.setattr(fingerprint._Fingerprinter, "token",
                            counting_token)

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.calls, 0)


def _fingerprinted_attributes(plan) -> int:
    return sum(len(set(op.__dict__) - fingerprint._SKIP_ATTRS)
               for op in plan.operators(include_loop_bodies=True))


def _udf_codes(plan) -> list[CodeType]:
    return [udf.fn.__code__ for op in plan.operators()
            for attr in ("udf", "key", "reducer", "left_key", "right_key")
            if (udf := getattr(op, attr, None)) is not None]


class TestCountGuards:
    def test_a_reuse_served_resubmission_rederives_nothing(self, monkeypatch):
        ctx = RheemContext()
        service = RheemService(ctx, env=ENV)
        document = _q5_shaped_document()
        twin = build_quanta(ctx, document, ENV).to_plan()
        assert len(twin.operators()) >= 20
        sink_alternatives = len(ctx.registry.alternatives_for(twin.sinks[0]))
        attributes = _fingerprinted_attributes(twin)

        counts = _Counts(monkeypatch)
        cold = service.submit(document)
        assert cold["status"] == "ok", cold
        # A cold miss: the probe's keys, the plan-cache key and RP014 all
        # read one tokenization.
        assert counts.calls["tokenized"] == attributes
        assert counts.calls["estimate"] == 1

        counts.reset()
        hot = service.submit(document)
        assert hot["status"] == "ok" and hot["output"] == cold["output"]
        assert ctx.result_store.stats["hits"] == 1
        assert ctx.plan_cache.stats["hits"] == 0  # served by the store
        # Enumeration reached the sink and the reuse root; the root's only
        # alternative is its stored channel, so only the sink is inflated.
        assert 0 < counts.calls["build"] <= sink_alternatives
        assert counts.calls["matches"] == 0
        assert counts.calls["dis"] == 0
        assert counts.calls["compile"] == 0
        assert counts.calls["tokenized"] == attributes
        assert counts.calls["estimate"] == 1

    def test_udf_sources_compile_once_into_shared_code(self):
        ctx = RheemContext()
        document = _q5_shaped_document()
        first = build_quanta(ctx, document, ENV).to_plan()
        second = build_quanta(ctx, document, ENV).to_plan()
        codes = _udf_codes(first)
        assert len(codes) >= 20
        assert all(a is b for a, b in zip(codes, _udf_codes(second)))
        # ... while every request gets functions of its own.
        fns = [op.udf.fn for op in first.operators() if hasattr(op, "udf")]
        again = [op.udf.fn for op in second.operators() if hasattr(op, "udf")]
        assert fns and not any(a is b for a, b in zip(fns, again))

    def test_a_loop_body_is_prepared_once_per_loop_run(self, monkeypatch):
        ctx = RheemContext()
        looped = ctx.load_collection([0], sim_factor=1_000.0).repeat(
            300, lambda s: s.map(lambda v: v + 1).map(lambda v: v * 1))
        plan, estimates = ctx.optimize(
            looped.to_plan(), allowed_platforms={"pystreams", "driver"})
        calls = dict.fromkeys(("build_stages", "crossing_ids"), 0)
        fractions: dict[int, int] = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_fraction(op, profile):
            fractions[op.id] = fractions.get(op.id, 0) + 1
            return 1.0

        monkeypatch.setattr(ExecutionPlan, "build_stages",
                            counting("build_stages",
                                     ExecutionPlan.build_stages))
        monkeypatch.setattr(Executor, "_crossing_ids", staticmethod(
            counting("crossing_ids", Executor._crossing_ids)))
        monkeypatch.setattr(ExecutionOperator, "tasks_fraction",
                            counted_fraction)
        result = ctx.executor().execute(plan, estimates)
        assert result.output == [300]
        assert len(result.tracker.records) > 300
        # The job's plan and its loop body, each once.
        assert calls == {"build_stages": 2, "crossing_ids": 2}
        # The body's maps and the job's source and sink, each once.
        assert len(fractions) >= 3
        assert set(fractions.values()) == {1}

    def test_chains_are_found_once_per_prepared_stage(self, monkeypatch):
        ctx = RheemContext()
        spec = write_points(ctx, "hdfs://hot/points.csv", "higgs")
        quanta = ML4all(ctx).training_quanta(
            "hdfs://hot/points.csv", sgd_hinge(spec.dimensions),
            iterations=30, sample_size=10)
        plan, estimates = ctx.optimize(quanta.to_plan())
        prepared, scans = [], []
        prepare, chains = Executor._prepare, Executor._chains

        def preparing(executor, *args):
            stages = prepare(executor, *args)
            prepared.append(len(stages))
            return stages

        def scanning(tasks, ends):
            scans.append(len(tasks))
            return chains(tasks, ends)

        monkeypatch.setattr(Executor, "_prepare", preparing)
        monkeypatch.setattr(Executor, "_chains", staticmethod(scanning))
        result = ctx.executor().execute(plan, estimates)
        assert len(result.tracker.records) > 60
        # The job's plan and its loop body, each once; one scan per stage.
        assert len(prepared) == 2
        assert len(scans) == sum(prepared)

    def test_a_warm_loop_body_stage_builds_only_its_meter(self,
                                                          monkeypatch):
        """Warm, untraced and without an injector, a loop-body stage run
        builds its meter (and record) and no scaffolding: no context, no
        copy of the attempt's state, no span, no charge lookup."""
        ctx = RheemContext(config={"result_reuse": False})
        spec = write_points(ctx, "hdfs://hot/points.csv", "higgs")

        def job():
            return ML4all(ctx).training_quanta(
                "hdfs://hot/points.csv", sgd_hinge(spec.dimensions),
                iterations=30, sample_size=10).execute()

        job()  # warms the plan cache
        calls = dict.fromkeys(("context", "meter", "dict", "set", "span",
                               "kind_params"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, module, attr in (
                ("context", executor_module, "ExecutionContext"),
                ("meter", executor_module, "CostMeter"),
                ("kind_params", platforms_base, "kind_params")):
            monkeypatch.setattr(module, attr,
                                counting(name, getattr(module, attr)))
        # The executor's own ``dict(...)`` / ``set(...)`` calls: copies.
        monkeypatch.setattr(executor_module, "dict", counting("dict", dict),
                            raising=False)
        monkeypatch.setattr(executor_module, "set", counting("set", set),
                            raising=False)
        monkeypatch.setattr(NO_TRACER, "span", counting("span",
                                                        NO_TRACER.span))
        result = job()
        records = result.tracker.records
        body = [r for r in records if ".loop" in r.stage_id]
        assert len(body) == 30 * 5 and result.output[0] is not None
        # One context per prepared stage list: the job's and the body's.
        assert calls["context"] == 2
        # One meter per record, and nothing else per stage run.
        assert calls["meter"] == len(records)
        # Per job, not per stage run: the monitor's estimates and the
        # started, completed and result platform sets.
        assert (calls["dict"], calls["set"]) == (1, 3)
        assert calls["span"] == 1  # the job's ``executor.run``
        # Charges look their kind up once per operator per loop run.
        assert calls["kind_params"] < 30

    def test_a_chained_wordcount_collects_little_garbage(self):
        """Blocks, not full lists per operator: 60k lines through
        flat_map -> map -> reduce_by_key make ~24 collections, and ~790
        when every operator builds its output."""
        ctx = RheemContext(config={"result_reuse": False})
        ctx.vfs.write("hdfs://hot/lines.txt", zipf_lines(60_000))
        pin = lambda dq: dq.with_target_platform("flinklite")  # noqa: E731

        def job():
            return pin(pin(pin(ctx.read_text_file("hdfs://hot/lines.txt"))
                           .flat_map(str.split)).map(lambda w: (w, 1))
                       ).reduce_by_key(lambda t: t[0],
                                       lambda a, b: (a[0], a[1] + b[1]))

        flink = {"flinklite"}
        job().execute(allowed_platforms=flink)  # warms the plan cache
        collections = []

        def counting(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(counting)
        try:
            result = job().execute(allowed_platforms=flink)
        finally:
            gc.callbacks.remove(counting)
        assert result.platforms == flink and len(result.output) == 500
        assert len(collections) <= 100

    @pytest.mark.parametrize("build", [_chain100, _sgd])
    def test_only_step_survivors_become_partial_plans(self, build,
                                                      monkeypatch):
        """A candidate is priced as floats: the partial plans built are
        the ones a step or join keeps, the empty root plans and the one
        ``pick_best`` returns (chain100 built 906 for 505 kept)."""
        ctx = RheemContext()
        plan = build(ctx).to_plan()
        built, kept = [], []
        init = PartialPlan.__init__

        def counting(partial, *args, **kwargs):
            init(partial, *args, **kwargs)
            built.append(partial)

        monkeypatch.setattr(PartialPlan, "__init__", counting)
        for name in ("_extend", "_join"):
            step = getattr(Optimizer, name)

            def spy(self, *args, __step=step):
                frontier = __step(self, *args)
                kept.append(len(frontier))
                return frontier
            monkeypatch.setattr(Optimizer, name, spy)
        optimizer = ctx.optimizer()
        optimizer.pick_best(plan)
        roots = sum(not partial.decisions for partial in built)
        assert sum(kept) > 500
        assert len(built) == sum(kept) + roots + 1
        assert optimizer.last_enumeration_size == sum(kept) + roots

    def test_crocopr_rebuilds_records_only_in_its_parse_maps(
            self, monkeypatch):
        # Its parse maps read their blocks of lines as records; the
        # intersect keys the parsed edge columns by int and builds records
        # only for the edges it keeps.
        from repro.apps import xdb
        from repro.core.batch import RecordBatch

        parsing, calls = [], []
        to_records, parse_edges = RecordBatch.to_records, xdb.parse_edges

        def recording(batch):
            calls.append(bool(parsing))
            return to_records(batch)

        def parse(batch):
            parsing.append(batch)
            try:
                return parse_edges(batch)
            finally:
                parsing.pop()

        monkeypatch.setattr(RecordBatch, "to_records", recording)
        monkeypatch.setattr(xdb, "parse_edges", parse)
        assert _crocopr(RheemContext()).execute().output
        assert calls == [True, True]

    def test_a_failed_estimate_still_raises_from_pick_best(self, ctx):
        class Boom(ops.Map):
            def estimate_cardinality(self, inputs, ctx):
                raise ZeroDivisionError("no estimate")

        boom = Boom(lambda x: x)
        boom.connect(0, ctx.load_collection([1, 2]).op)
        sink = ops.CollectionSink()
        sink.connect(0, boom)
        plan = RheemPlan([sink])
        with pytest.raises(ZeroDivisionError, match="no estimate"):
            ctx.optimizer().pick_best(plan)
        # The analyzer's own estimate is best-effort: the plan was linted.
        assert isinstance(plan.diagnostics, LintReport)


class TestBatchesOnlyWhereDeclared:
    """A record batch exists because the plan declared a columnar kernel,
    never because of a switch, a size or a cached copy of a source."""

    @pytest.mark.parametrize("build", [_wordcount, _sgd])
    def test_an_undeclared_plan_constructs_none(self, build, batches):
        ctx = RheemContext()
        assert build(ctx).execute().output
        assert batches == []

    def test_crocopr_builds_batches_only_at_its_parse_maps(
            self, monkeypatch):
        # CrocoPR declares its two parse maps' columnar twin: every batch
        # the run constructs is a parse map's block of lines or the edge
        # columns parsed from it, and nothing downstream builds one.
        from repro.apps import xdb
        from repro.core.batch import RecordBatch

        built, parsed = [], []
        init, parse_edges = RecordBatch.__init__, xdb.parse_edges

        def recording(batch, *args, **kwargs):
            built.append(batch)
            init(batch, *args, **kwargs)

        def parsing(batch):
            out = parse_edges(batch)
            parsed.extend([batch, out])
            return out

        monkeypatch.setattr(RecordBatch, "__init__", recording)
        monkeypatch.setattr(xdb, "parse_edges", parsing)
        assert _crocopr(RheemContext()).execute().output
        assert [b.kind for b in parsed] == ["scalar", "tuple"] * 2
        assert list(map(id, built)) == list(map(id, parsed))

    def test_a_served_document_constructs_none(self, batches):
        service = RheemService(RheemContext(), env=ENV)
        reply = service.submit(_q5_shaped_document())
        assert reply["status"] == "ok" and reply["output"]
        assert batches == []

    def test_a_range_filter_over_a_list_stays_a_list(self, monkeypatch):
        from repro.apps import q5_quanta
        from repro.core.batch import RecordBatch
        from repro.platforms import dataflow
        from repro.workloads.tpch import ROW_BYTES, SF1_ROWS, TpchLite

        seen = []
        run_filter = dataflow.run_filter

        def watching(logical, payload, bvals=()):
            out = run_filter(logical, payload, bvals)
            seen.append((logical.column, type(payload), type(out)))
            return out

        monkeypatch.setattr(dataflow, "run_filter", watching)
        gen = TpchLite(0.05)

        def mem(ctx, table):
            return ctx.load_collection(
                gen.table(table), sim_factor=gen.sim_factor(table),
                bytes_per_record=ROW_BYTES[table])

        ctx = RheemContext()
        result = q5_quanta(ctx, 0.05, sources=dict.fromkeys(SF1_ROWS, mem)
                           ).execute(allowed_platforms={"pystreams", "driver"})
        assert result.output
        # Both range filters read collection sources — lists — and the
        # declared mask downstream of the columnar joins reads a batch.
        assert sorted(seen, key=repr) == sorted([
            ("name", list, list), ("orderyear", list, list),
            (None, RecordBatch, RecordBatch)], key=repr)

    def test_no_source_keeps_a_columnar_copy(self):
        from repro.core.batch import RecordBatch

        from repro.apps import q5_quanta
        from repro.workloads.tpch import TpchLite

        ctx = RheemContext(config={"result_reuse": False})
        TpchLite(0.05, seed=47).place_for_q5(ctx)
        plans = []
        for __ in range(2):
            plans.append(q5_quanta(ctx, 0.05, "polystore").to_plan())
            assert ctx.execute(plans[-1]).output
            side = ctx.load_collection([1, 2]).map(
                lambda x: x + 1, batch_udf=lambda b: (b.col(0) + 1).tolist())
            plans.append(side.to_plan())
            assert ctx.execute(plans[-1]).output == [2, 3]
        holders = list(ctx.vfs._files.values())
        holders += [op for plan in plans for op in plan.sources()]
        assert len(holders) > 8
        for holder in holders:
            assert not [name for name, value in vars(holder).items()
                        if isinstance(value, RecordBatch)], holder


# ------------------------------------- (ii) cache-state independence
def _impure_pipeline(ctx, unstable: bool):
    seen = []  # a captured mutable: RP010

    def jitter(x):  # RP009, though the value never depends on the draw
        return x + (1 if random.random() < 2 else 0)

    dq = (ctx.load_collection(list(range(40)), sim_factor=1e5)
          .map(jitter, name="jitter")
          .filter(lambda x: not seen and x % 3 == 0, name="third"))
    if unstable:
        dq.op.handle = object()  # RP014
    return dq.map(lambda x: x * 2, name="double")


def _observe(ctx, build) -> tuple:
    """Submit once; what a client and the optimizer's monitor see."""
    optimized = []
    optimize = RheemContext.optimize.__get__(ctx)
    ctx.optimize = lambda *a, **k: (optimized.append(optimize(*a, **k))
                                    or optimized[-1])
    try:
        result = ctx.execute(build(ctx).to_plan())
    finally:
        del ctx.optimize
    [(__, cards)] = optimized
    diagnostics = [(d.rule_id, d.severity, d.op_name,
                    re.sub(r"<#\d+>", "<#N>", d.message))
                   for d in result.diagnostics]
    estimates = [(cards[k].lower, cards[k].upper, cards[k].confidence)
                 for k in sorted(cards)]
    return diagnostics, sorted(result.output), estimates


class TestCacheStateIndependence:
    @pytest.mark.parametrize("unstable", [True, False])
    def test_diagnostics_estimates_and_outputs(self, unstable):
        def build(ctx):
            return _impure_pipeline(ctx, unstable)

        cold = _observe(RheemContext(), build)
        rules = {rule for rule, *__ in cold[0]}
        assert {"RP009", "RP010"} <= rules
        assert ("RP014" in rules) == unstable
        assert any(confidence < 1.0 for *__, confidence in cold[2])

        plan_warm = RheemContext(config={"result_reuse": False})
        reuse_warm = RheemContext()
        for ctx in (plan_warm, reuse_warm):
            assert _observe(ctx, build) == cold
            assert _observe(ctx, build) == cold
        if unstable:  # ... which no cache ever held
            assert plan_warm.plan_cache.stats["hits"] == 0
            assert reuse_warm.result_store.stats["hits"] == 0
        else:
            assert plan_warm.plan_cache.stats["hits"] == 1
            assert reuse_warm.result_store.stats["hits"] == 1

    def test_an_error_level_plan_is_rejected_with_a_warm_store(self):
        def build(ctx, pin):
            dq = _impure_pipeline(ctx, unstable=False)
            return dq.with_target_platform(pin) if pin else dq

        def rejection(ctx):
            with pytest.raises(PlanAnalysisError) as caught:
                ctx.execute(build(ctx, "jgraph").to_plan())
            return (re.sub(r"<#\d+>", "<#N>", str(caught.value)),
                    [d.rule_id for d in caught.value.report])

        cold = rejection(RheemContext())
        assert "RP005" in cold[1]
        warm = RheemContext()
        warm.execute(build(warm, None).to_plan())
        assert len(warm.result_store) > 0
        assert rejection(warm) == cold


# --------------------------------------- (iii) the purity scan's filter
def _reference_scan(code, globals_ns, report, depth=3):
    """The unconditional ``dis`` walk ``introspect_udf`` must agree with."""
    for instr in dis.get_instructions(code):
        if instr.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
            name = instr.argval
            if _resolves_nondeterministic(name, globals_ns):
                if name not in report.nondeterministic_calls:
                    report.nondeterministic_calls.append(name)
        elif instr.opname in ("STORE_GLOBAL", "DELETE_GLOBAL"):
            if instr.argval not in report.global_writes:
                report.global_writes.append(instr.argval)
    if depth > 0:
        for const in code.co_consts:
            if isinstance(const, CodeType):
                _reference_scan(const, globals_ns, report, depth - 1)


#: Expression leaves: pure, nondeterministic by module, by bare import, by
#: a bare name nothing binds, and the attribute that only shares a name.
_LEAVES = ("x + 1", "x * 2 - 3", "random.random()", "choice([x, 1])",
           "time.time()", "time.time", "x.time", "x.random()", "uuid4()",
           "len([x])", "shuffle")
_WRAPPERS = ("{0}", "(lambda y: {0})(x)", "[{0} for y in [x]]",
             "{{y: {0} for y in [x]}}", "sum({0} for y in [x])",
             "(lambda: (lambda: {0}))()()")
_STATEMENTS = ("", "global g0\n    g0 = x", "global g1\n    del g1",
               "global g0, g2\n    g0 = g2 = x\n    del g2")


@st.composite
def _udf_sources(draw):
    expr = draw(st.sampled_from(_LEAVES))
    for __ in range(draw(st.integers(0, 4))):  # deeper than the scan goes
        expr = draw(st.sampled_from(_WRAPPERS)).format(expr)
    many = draw(st.sampled_from((0, 300)))  # force EXTENDED_ARG
    names = ", ".join(f"n{i}" for i in range(many))
    statement = draw(st.sampled_from(_STATEMENTS))
    body = [f"({names},)"] if many else []
    if draw(st.booleans()):
        body.insert(0, statement)
    else:
        body.append(statement)
    lines = "\n    ".join(line for line in body if line)
    return f"def udf(x):\n    {lines or 'pass'}\n    return {expr}\n"


class TestPurityScan:
    @given(_udf_sources())
    def test_filtered_scan_equals_the_unconditional_walk(self, source):
        import random
        import time
        from random import choice

        namespace = {"random": random, "time": time, "choice": choice,
                     **{f"n{i}": i for i in range(300)}}
        exec(source, namespace)
        want = UdfReport("udf")
        _reference_scan(namespace["udf"].__code__, namespace, want)
        assert introspect_udf(namespace["udf"]) == want, source

    def test_the_verdict_follows_the_globals_of_the_moment(self):
        code = compile("lambda x: clock()", "<udf>", "eval").co_consts[0]
        import time

        for namespace, flagged in (({"clock": time.time}, ["clock"]),
                                   ({"clock": len}, [])):
            report = introspect_udf(FunctionType(code, namespace, "udf"))
            assert report.nondeterministic_calls == flagged


# ------------------------------------------------- (iv) the registry
class _Exec(ExecutionOperator):
    def __init__(self, logical, platform):
        super().__init__(logical)
        self.platform = platform


def _mapping(operator_type, platform, guard=None):
    return OperatorMapping(operator_type,
                           lambda op: [_Exec(op, platform)], guard)


class _SpecialMap(ops.Map):
    pass


class TestRegistryIndex:
    def test_candidates_keep_registration_order(self):
        registry = MappingRegistry()
        registry.register(_mapping(ops.Map, "p1"))
        registry.register_all([_mapping(ops.Filter, "p2"),
                               _mapping(ops.Map, "p3"),
                               _mapping(ops.Operator, "p4")])
        registry.register(_mapping(ops.Map, "p0"))
        op = ops.Map(lambda x: x)
        for __ in range(2):  # built, then read back from the index
            assert [a.platform for a in registry.alternatives_for(op)] == \
                ["p1", "p3", "p4", "p0"]

    def test_guards_are_evaluated_per_operator(self):
        registry = MappingRegistry()
        chosen, other = ops.Map(lambda x: x), ops.Map(lambda x: x)
        registry.register(_mapping(ops.Map, "p1",
                                   guard=lambda op: op is chosen))
        assert len(registry.alternatives_for(chosen)) == 1
        with pytest.raises(NoMappingError):
            registry.alternatives_for(other)
        assert len(registry.alternatives_for(chosen)) == 1

    def test_a_mapping_registered_after_the_first_lookup_is_seen(self):
        registry = MappingRegistry()
        registry.register(_mapping(ops.Map, "p1"))
        op = ops.Map(lambda x: x)
        assert len(registry.alternatives_for(op)) == 1
        registry.register(_mapping(ops.Map, "p2"))
        assert [a.platform for a in registry.alternatives_for(op)] == \
            ["p1", "p2"]
        registry.register_all([_mapping(ops.Map, "p3")])
        assert len(registry.alternatives_for(op)) == 3

    def test_a_subclass_operator_matches_its_bases_mapping(self):
        registry = MappingRegistry()
        registry.register(_mapping(ops.Map, "base"))
        registry.register(_mapping(_SpecialMap, "special"))
        special = _SpecialMap(lambda x: x)
        assert [a.platform for a in registry.alternatives_for(special)] == \
            ["base", "special"]
        assert [a.platform for a in registry.alternatives_for(
            ops.Map(lambda x: x))] == ["base"]

    def test_no_mapping_error_text(self):
        registry = MappingRegistry()
        registry.register(_mapping(ops.Map, "p1"))
        count = ops.Count()
        with pytest.raises(NoMappingError) as caught:
            registry.alternatives_for(count)
        assert str(caught.value) == f"no execution alternative for {count}"
        pinned = ops.Map(lambda x: x).with_target_platform("p9")
        with pytest.raises(NoMappingError) as caught:
            registry.alternatives_for(pinned)
        assert str(caught.value) == \
            f"no execution alternative for {pinned} on platform 'p9'"

    def test_the_index_answers_like_a_scan_of_every_mapping(self, ctx):
        # ``OperatorMapping.matches`` is the unindexed definition.
        registry = ctx.registry
        plans = [build(RheemContext()).to_plan() for build in _TABLE1.values()]
        for op in {type(op): op for plan in plans
                   for op in plan.operators(include_loop_bodies=True)
                   if not isinstance(op, (ops.LoopOperator,
                                          ops.LoopInput))}.values():
            scanned = [m for m in registry._mappings if m.matches(op)]
            assert scanned, op
            assert [repr(a) for a in registry.alternatives_for(op)] == \
                [repr(m.build(op)) for m in scanned]

    def test_lookups_racing_a_registration_never_hide_it(self):
        registry = MappingRegistry()
        registry.register(_mapping(ops.Map, "p0"))
        op = ops.Map(lambda x: x)
        done, wrong = threading.Event(), []

        def look_up():
            try:
                while not done.is_set():
                    seen = [a.platform for a in registry.alternatives_for(op)]
                    if seen != [f"p{i}" for i in range(len(seen))]:
                        wrong.append(seen)
            except Exception as exc:  # noqa: BLE001 — reported below
                wrong.append(exc)

        readers = [threading.Thread(target=look_up) for __ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for i in range(1, 300):
                registry.register(_mapping(ops.Map, f"p{i}"))
                # A reader that raced the append may have filled the index
                # without the new mapping; it must not be THIS index.
                assert len(registry.alternatives_for(op)) == i + 1
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not wrong, wrong[:3]

    def test_alternatives_are_built_fresh_per_call(self):
        registry = MappingRegistry()
        registry.register(_mapping(ops.Map, "p1"))
        op = ops.Map(lambda x: x)
        [first], [second] = (registry.alternatives_for(op) for __ in "ab")
        assert isinstance(first, ExecutionAlternative)
        assert first.ops[0] is not second.ops[0]


# ------------------------------------------ (v) digests and the hash seed
def _vowels(ctx):
    return (ctx.load_collection(["a", "b", "e", "z"])
            .filter(lambda w: w in {"a", "e", "i", "o", "u", "y"}))


_TABLE1 = {"wordcount": _wordcount, "sgd": _sgd, "crocopr": _crocopr,
           "q5": _q5, "frozenset-constant": _vowels}


def _digests() -> dict:
    out = {}
    for name, build in _TABLE1.items():
        plan = build(RheemContext()).to_plan()
        subplans = PlanFingerprints(plan).subplans
        out[name] = [plan_fingerprint(plan),
                     [subplans.get(op.id) for op in plan.operators()]]
    return out


def test_digests_do_not_follow_the_hash_seed():
    root = Path(__file__).resolve().parent.parent
    printed = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, __file__], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        printed.append(json.loads(done.stdout))
    assert printed[0] == printed[1]
    # The constant is a frozenset of strings: its iteration order follows
    # the seed, its token must not.
    whole, subplans = printed[0]["frozenset-constant"]
    assert whole is not None and None not in subplans
    assert printed[0]["wordcount"][0] is not None


# -------------------------------------------- (vi) one expr, two envs
class TestSharedSourcesKeepTheirEnv:
    DOC = {"operators": [
        {"name": "xs", "kind": "collection_source", "data": [1, 2, 3]},
        {"name": "scaled", "kind": "map", "input": "xs",
         "expr": "x * factor"}], "sink": {"name": "scaled"}}

    def test_each_document_sees_its_own_env(self):
        # Two contexts: a digest does not cover the globals a UDF reads,
        # so one result store would serve the first answer twice.
        double = build_quanta(RheemContext(), self.DOC, {"factor": 2})
        tenfold = build_quanta(RheemContext(), self.DOC, {"factor": 10})
        assert double.op.udf.fn.__code__ is tenfold.op.udf.fn.__code__
        assert tenfold.collect() == [10, 20, 30]
        assert double.collect() == [2, 4, 6]

    def test_a_syntax_error_is_not_remembered_as_a_success(self, ctx):
        doc = json.loads(json.dumps(self.DOC))
        doc["operators"][1]["expr"] = "x *"
        for __ in range(2):
            with pytest.raises(PlanDocumentError, match="bad expression"):
                build_quanta(ctx, doc, {"factor": 2})


if __name__ == "__main__":
    print(json.dumps(_digests()))
