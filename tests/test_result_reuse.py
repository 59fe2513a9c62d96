"""The cross-job intermediate-result store (result reuse).

The store keeps committed stage outputs keyed by ``(subplan
fingerprint, source-cardinality bands, cost-model version)`` and offers
them to the optimizer as zero-cost sources, so a resubmission skips both
plan enumeration and the execution itself.  These tests pin down the
contract: reuse is invisible in the *results* (bit-for-bit, stored record
batches included), bypassed whenever execution is observed or perturbed
(sniffers, fault injection), invalidated by cost-model publication, and
bounded by a benefit-ranked byte budget.
"""

import argparse

import pytest
from conftest import declared_wordcount, wordcount

from repro import RheemContext
from repro.core.channels import Channel
from repro.core.cost import OperatorCostParams
from repro.core.executor import Sniffer
from repro.core.faults import FaultInjector
from repro.core.resultstore import IntermediateResultStore


def _corpus(ctx, path="hdfs://reuse/corpus.txt"):
    ctx.vfs.write(path, ["to be or not to be"] * 40, sim_factor=1_000.0)
    return path


def _run(ctx, **kwargs):
    return ctx.execute(wordcount(ctx, _corpus(ctx)).to_plan(), **kwargs)


class TestWarmResubmission:
    def test_second_run_hits_the_store_and_skips_execution(self, ctx):
        first = _run(ctx)
        assert ctx.result_store.stats["admissions"] >= 1
        assert ctx.result_store.stats["hits"] == 0
        second = _run(ctx)
        assert ctx.result_store.stats["hits"] >= 1
        assert second.output == first.output
        # The reused run executes only the sink over the stored channel:
        # virtually none of the original simulated work remains.
        assert second.runtime < first.runtime / 10

    def test_reuse_skips_the_plan_cache_too(self, ctx):
        _run(ctx)
        lookups = ctx.plan_cache.stats["hits"] + ctx.plan_cache.stats["misses"]
        _run(ctx)
        after = ctx.plan_cache.stats["hits"] + ctx.plan_cache.stats["misses"]
        assert after == lookups  # the warm run never consulted it

    @pytest.mark.parametrize("declared", [False, True])
    def test_results_are_bit_for_bit_with_reuse_on_and_off(self, declared):
        # Declared, the stored channel holds a record batch.
        build = declared_wordcount if declared else wordcount
        outputs = []
        for result_reuse in (True, False):
            ctx = RheemContext(config={"result_reuse": result_reuse})
            cold = build(ctx, _corpus(ctx)).execute()
            warm = build(ctx, _corpus(ctx)).execute()
            assert warm.output == cold.output
            if result_reuse:
                assert ctx.result_store.stats["hits"] >= 1
            else:
                assert ctx.result_store.stats["hits"] == 0
                assert len(ctx.result_store) == 0
            outputs.append(warm.output)
        assert outputs[0] == outputs[1]
        assert type(outputs[0]) is list


class TestInvalidationAndBypass:
    def test_publishing_cost_params_flushes_the_store(self, ctx):
        _run(ctx)
        assert len(ctx.result_store) >= 1
        ctx.publish_cost_params(
            {"pystreams.map": OperatorCostParams(2.0, 0.0, 0.1)})
        assert len(ctx.result_store) == 0
        assert ctx.result_store.stats["flushes"] == 1
        # The next run re-executes under the new parameters (no hit) and
        # republishes under the bumped cost-model version.
        _run(ctx)
        assert ctx.result_store.stats["hits"] == 0
        assert len(ctx.result_store) >= 1

    def test_sniffed_runs_bypass_the_store(self, ctx):
        dq = wordcount(ctx, _corpus(ctx))
        flatmap_op = dq.op.inputs[0].op.inputs[0].op
        tapped = []
        dq.execute(sniffers=[Sniffer(flatmap_op.id, tapped.append)])
        assert tapped
        # Sniffers observe (and may perturb) live channels: nothing was
        # published and nothing was probed.
        assert len(ctx.result_store) == 0
        stats = ctx.result_store.stats
        assert stats["hits"] == stats["misses"] == stats["admissions"] == 0
        # ... and a sniffed run after a clean one must not serve the
        # stored result either (the sniffer needs real execution).
        clean = _run(ctx)
        assert len(ctx.result_store) >= 1
        tapped.clear()
        sniffed = ctx.execute(
            wordcount(ctx, _corpus(ctx)).to_plan(),
            sniffers=[Sniffer(flatmap_op.id, tapped.append)])
        assert ctx.result_store.stats["hits"] == 0
        assert sniffed.output == clean.output

    def test_fault_injected_runs_bypass_the_store(self, ctx):
        plan = wordcount(ctx, _corpus(ctx)).to_plan()
        exec_plan, __ = ctx.optimize(plan)
        stage = exec_plan.build_stages(break_after=set())[0].id
        injector = FaultInjector(failures={stage: 1})
        result = ctx.execute(wordcount(ctx, _corpus(ctx)).to_plan(),
                             fault_injector=injector, max_stage_retries=2)
        assert injector.injected == 1
        assert len(ctx.result_store) == 0
        assert ctx.result_store.stats["hits"] == 0
        reference = _run(ctx)
        assert result.output == reference.output


class TestAdmissionAndEviction:
    def _channel(self, ctx, payload, mb, count=10):
        descriptor = next(iter(ctx.graph.descriptors()))
        bytes_per_record = mb * 1e6 / count
        return Channel(descriptor, payload, 1.0, bytes_per_record, count)

    def test_eviction_under_a_tight_byte_budget(self, ctx):
        store = IntermediateResultStore(budget_mb=2.5, min_benefit=0.0,
                                        metrics=ctx.metrics)
        store.offer(("a",), self._channel(ctx, [1], mb=1.0), recompute_s=1.0)
        store.offer(("b",), self._channel(ctx, [2], mb=1.0), recompute_s=9.0)
        assert len(store) == 2 and store.bytes_mb == pytest.approx(2.0)
        # Admitting a third entry overflows the budget; the lowest-benefit
        # resident ("a": 1 s/MB) is evicted, not the newcomer.
        store.offer(("c",), self._channel(ctx, [3], mb=1.0), recompute_s=5.0)
        assert store.stats["evictions"] == 1
        assert store.get(("a",)) is None
        assert store.get(("b",)) is not None
        assert store.get(("c",)) is not None
        assert store.bytes_mb <= store.budget_mb

    def test_oversized_and_cheap_outputs_are_rejected(self, ctx):
        store = IntermediateResultStore(budget_mb=1.0, min_benefit=0.5)
        # Cheaper to recompute than to hold.
        assert not store.offer(("cheap",), self._channel(ctx, [1], mb=1.0),
                               recompute_s=0.01)
        # Larger than the whole budget: rejected, not admitted-then-evicted.
        assert not store.offer(("huge",), self._channel(ctx, [2], mb=4.0),
                               recompute_s=100.0)
        assert store.stats["rejections"] == 2 and len(store) == 0

    def test_end_to_end_budget_is_configurable(self):
        ctx = RheemContext(config={"reuse_budget_mb": 1e-6})
        _run(ctx)
        # Everything worth storing overflows a near-zero budget.
        assert ctx.result_store.stats["admissions"] == 0
        assert len(ctx.result_store) == 0
        _run(ctx)
        assert ctx.result_store.stats["hits"] == 0


class TestTogglesAndExposure:
    def test_config_flag_disables_reuse(self):
        ctx = RheemContext(config={"result_reuse": False})
        assert not ctx.result_store.enabled
        first = _run(ctx)
        second = _run(ctx)
        assert second.output == first.output
        assert len(ctx.result_store) == 0
        # With the store out of the way the plan cache serves the rerun.
        assert ctx.plan_cache.stats["hits"] == 1

    def test_cli_flag_disables_reuse(self):
        from repro.__main__ import _build_context

        args = argparse.Namespace(no_cache=False, no_reuse=True,
                                  abstracts=0.0, pagelinks=0.0)
        ctx = _build_context(args)
        assert not ctx.result_store.enabled
        assert ctx.plan_cache.enabled  # --no-reuse leaves caching alone

    def test_metrics_endpoint_exposes_intermediate_counters(self):
        import json

        from repro.server import JobServer, make_wsgi_app

        ctx = RheemContext()
        ctx.vfs.write("hdfs://doc/lines.txt", ["a b a"] * 10,
                      sim_factor=100.0)
        document = {
            "operators": [
                {"name": "lines", "kind": "textfile_source",
                 "path": "hdfs://doc/lines.txt"},
                {"name": "words", "kind": "flatmap", "input": "lines",
                 "expr": "x.split()"},
            ],
            "sink": {"name": "words"},
        }
        with JobServer(ctx, workers=1) as server:
            app = make_wsgi_app(server)
            body = json.dumps(document).encode()
            for __ in range(2):
                captured = {}

                def start_response(status, headers):
                    captured["status"] = status

                list(app({"REQUEST_METHOD": "POST", "PATH_INFO": "/jobs",
                          "CONTENT_LENGTH": str(len(body)),
                          "wsgi.input": _Body(body)}, start_response))
                assert captured["status"] == "200 OK"
            chunks = app({"REQUEST_METHOD": "GET", "PATH_INFO": "/metrics",
                          "QUERY_STRING": ""}, lambda *a: None)
            snapshot = json.loads(b"".join(chunks))
        assert snapshot["counters"]["intermediate.hits"] >= 1
        assert snapshot["counters"]["intermediate.admissions"] >= 1
        assert "intermediate.bytes" in snapshot["gauges"]

    def test_unstable_plans_count_and_lint(self, ctx):
        quanta = ctx.load_collection([1, 2]).map(str)
        quanta.op.mystery = object()  # only identified by its address
        quanta.execute()
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["fingerprint.unstable"] >= 1
        # RP014 names the operator and the offending attribute.
        from repro.analysis.engine import PlanAnalyzer

        quanta2 = ctx.load_collection([1, 2]).map(str)
        quanta2.op.mystery = object()
        report = PlanAnalyzer().analyze(quanta2.to_plan())
        found = [d for d in report.diagnostics if d.rule_id == "RP014"]
        assert found and "'mystery'" in found[0].message


class _Body:
    def __init__(self, data: bytes) -> None:
        self._data = data

    def read(self, n: int) -> bytes:
        out, self._data = self._data[:n], b""
        return out
