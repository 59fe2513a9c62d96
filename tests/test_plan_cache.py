"""The execution-plan cache, plan fingerprints, and cache losslessness."""

import pytest
from conftest import wordcount

from repro import RheemContext
from repro.core.cost import OperatorCostParams
from repro.core.fingerprint import plan_fingerprint


def _wordcount_plan(ctx):
    ctx.vfs.write("hdfs://cache/corpus.txt", ["to be or not to be"] * 40,
                  sim_factor=1_000.0)
    return wordcount(ctx, "hdfs://cache/corpus.txt").to_plan()


class TestFingerprint:
    def test_identical_rebuilds_share_a_fingerprint(self, ctx):
        # Freshly constructed lambdas at different addresses must hash by
        # code, not identity — that is the whole point of the fingerprint.
        a = plan_fingerprint(_wordcount_plan(ctx))
        b = plan_fingerprint(_wordcount_plan(ctx))
        assert a is not None and a == b

    def test_udf_code_changes_the_fingerprint(self, ctx):
        base = (ctx.load_collection([1, 2, 3])
                .map(lambda x: x + 1).to_plan())
        other = (ctx.load_collection([1, 2, 3])
                 .map(lambda x: x + 2).to_plan())
        assert plan_fingerprint(base) != plan_fingerprint(other)

    def test_closure_contents_matter(self, ctx):
        def build(k):
            return (ctx.load_collection([1, 2, 3])
                    .map(lambda x: x + k).to_plan())

        assert plan_fingerprint(build(1)) != plan_fingerprint(build(2))
        assert plan_fingerprint(build(5)) == plan_fingerprint(build(5))

    def test_source_data_matters(self, ctx):
        a = ctx.load_collection([1, 2]).map(str).to_plan()
        b = ctx.load_collection([1, 3]).map(str).to_plan()
        assert plan_fingerprint(a) != plan_fingerprint(b)

    def test_target_platform_pin_matters(self, ctx):
        a = ctx.load_collection([1, 2]).map(str).to_plan()
        b = (ctx.load_collection([1, 2])
             .map(str).with_target_platform("sparklite").to_plan())
        assert plan_fingerprint(a) != plan_fingerprint(b)

    def test_unstable_attribute_disables_caching(self, ctx):
        quanta = ctx.load_collection([1, 2]).map(str)
        quanta.op.mystery = object()  # only identified by its address
        assert plan_fingerprint(quanta.to_plan()) is None

    def test_loops_fingerprint_their_bodies(self, ctx):
        def build(increment):
            return (ctx.load_collection([0])
                    .repeat(3, lambda s: s.map(
                        lambda v, __k=increment: v + __k))
                    .to_plan())

        assert plan_fingerprint(build(1)) is not None
        assert plan_fingerprint(build(1)) == plan_fingerprint(build(1))
        assert plan_fingerprint(build(1)) != plan_fingerprint(build(2))


class TestExecutionPlanCache:
    """The plan-cache layer in isolation.

    Result reuse (the intermediate-result store) sits in front of the
    plan cache and would satisfy resubmissions without ever consulting
    it, so the tests that assert plan-cache lookup traffic disable the
    store; the store's own behaviour lives in test_result_reuse.py.
    """

    def test_resubmission_hits_and_agrees(self, ctx):
        ctx.result_store.enabled = False
        first = ctx.execute(_wordcount_plan(ctx))
        assert ctx.plan_cache.stats["hits"] == 0
        assert ctx.plan_cache.stats["misses"] == 1
        second = ctx.execute(_wordcount_plan(ctx))
        assert ctx.plan_cache.stats["hits"] == 1
        assert sorted(first.output) == sorted(second.output)
        assert second.runtime == pytest.approx(first.runtime)

    def test_different_platform_whitelists_do_not_collide(self, ctx):
        ctx.result_store.enabled = False
        plan = _wordcount_plan(ctx)
        ctx.execute(plan, allowed_platforms={"pystreams", "driver"})
        ctx.execute(_wordcount_plan(ctx))
        assert ctx.plan_cache.stats["hits"] == 0
        assert len(ctx.plan_cache) == 2

    def test_lru_eviction(self):
        ctx = RheemContext(config={"plan_cache_size": 1})
        ctx.execute(ctx.load_collection([1, 2]).map(str).to_plan())
        ctx.execute(ctx.load_collection([3, 4]).map(str).to_plan())
        assert ctx.plan_cache.stats["evictions"] == 1
        assert len(ctx.plan_cache) == 1
        # The first plan was evicted: re-running it misses again.
        ctx.execute(ctx.load_collection([1, 2]).map(str).to_plan())
        assert ctx.plan_cache.stats["hits"] == 0

    def test_config_flag_disables_cache(self):
        ctx = RheemContext(config={"plan_cache": False})
        ctx.execute(ctx.load_collection([1, 2]).map(str).to_plan())
        ctx.execute(ctx.load_collection([1, 2]).map(str).to_plan())
        assert len(ctx.plan_cache) == 0
        assert ctx.plan_cache.stats["hits"] == 0

    def test_publishing_cost_params_flushes(self, ctx):
        ctx.execute(_wordcount_plan(ctx))
        assert len(ctx.plan_cache) == 1
        version = ctx.cost_model.version
        ctx.publish_cost_params(
            {"pystreams.map": OperatorCostParams(2.0, 0.0, 0.1)})
        assert len(ctx.plan_cache) == 0
        assert ctx.plan_cache.stats["flushes"] == 1
        assert ctx.cost_model.version == version + 1
        assert ctx.cost_model.params["pystreams.map"].alpha == 2.0
        # The next run re-optimizes under the new parameters and misses.
        ctx.execute(_wordcount_plan(ctx))
        assert ctx.plan_cache.stats["hits"] == 0

    def test_metrics_registry_sees_cache_traffic(self, ctx):
        ctx.result_store.enabled = False
        ctx.execute(_wordcount_plan(ctx))
        ctx.execute(_wordcount_plan(ctx))
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["plan_cache.misses"] == 1
        assert counters["plan_cache.hits"] == 1

    def test_rest_resubmission_reuses_the_plan(self):
        from repro.api import RheemService

        service = RheemService()
        service.ctx.vfs.write("hdfs://doc/lines.txt", ["a b a"] * 10,
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
        first = service.submit(document)
        second = service.submit(document)
        assert first["status"] == second["status"] == "ok"
        assert sorted(first["output"]) == sorted(second["output"])
        # Resubmission reuse now happens one layer earlier: the second
        # submission hits the intermediate-result store (skipping plan
        # enumeration AND execution), so the plan cache is never asked.
        counters = second["trace"]["metrics"]["counters"]
        assert (counters.get("intermediate.hits", 0)
                + counters.get("plan_cache.hits", 0)) >= 1


class TestLosslessness:
    """The plan cache on and off must run cost-identical plans."""

    def test_end_to_end_results_match_with_caches_off(self):
        on = RheemContext()
        off = RheemContext(config={"plan_cache": False})
        out_on = on.execute(_wordcount_plan(on))
        out_off = off.execute(_wordcount_plan(off))
        assert sorted(out_on.output) == sorted(out_off.output)
        assert out_on.runtime == pytest.approx(out_off.runtime)
