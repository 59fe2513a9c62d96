"""Tests for cross-platform fault tolerance (failure injection + retries)."""

import pytest

from repro import RheemContext
from repro.core.faults import FaultInjector, PlatformFailure
from conftest import wordcount


def _task(ctx):
    ctx.vfs.write("hdfs://ft/lines.txt", ["a b", "b"], sim_factor=100.0)
    return wordcount(ctx, "hdfs://ft/lines.txt")


def _first_stage_id(ctx, dq):
    plan = ctx.optimizer().optimize(dq.to_plan())
    return plan.build_stages()[0].id


class TestFaultInjector:
    def test_planned_failures_then_success(self):
        injector = FaultInjector(failures={"s1": 2})
        assert injector.should_fail("s1", 0)
        assert injector.should_fail("s1", 1)
        assert not injector.should_fail("s1", 2)
        assert not injector.should_fail("other", 0)
        assert injector.injected == 2

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(probability=1.5)

    def test_probabilistic_failures_are_seeded(self):
        a = FaultInjector(probability=0.5, seed=3)
        b = FaultInjector(probability=0.5, seed=3)
        draws_a = [a.should_fail("s", 99) for __ in range(20)]
        draws_b = [b.should_fail("s", 99) for __ in range(20)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)


class TestStageRetries:
    def test_job_survives_injected_crashes(self):
        ctx = RheemContext()
        task = _task(ctx)
        # Build once to discover the (deterministic) first stage id.
        probe_ctx = RheemContext()
        stage_id = _first_stage_id(probe_ctx, _task(probe_ctx))
        injector = FaultInjector(failures={stage_id: 2})
        result = task.execute(fault_injector=injector, max_stage_retries=2)
        assert dict(result.output) == {"a": 1, "b": 2}
        assert injector.injected == 2

    def test_wasted_attempts_cost_simulated_time(self):
        clean_ctx = RheemContext()
        clean = _task(clean_ctx).execute()
        stage_id = _first_stage_id(RheemContext(), _task(RheemContext()))
        faulty_ctx = RheemContext()
        injector = FaultInjector(failures={stage_id: 2})
        faulty = _task(faulty_ctx).execute(fault_injector=injector,
                                           max_stage_retries=2)
        assert faulty.runtime > clean.runtime
        attempt_stages = [r for r in faulty.tracker.records
                          if not r.survived]
        assert len(attempt_stages) == 2

    def test_exceeding_retry_bound_raises(self):
        ctx = RheemContext()
        task = _task(ctx)
        stage_id = _first_stage_id(RheemContext(), _task(RheemContext()))
        injector = FaultInjector(failures={stage_id: 5})
        with pytest.raises(PlatformFailure):
            task.execute(fault_injector=injector, max_stage_retries=1)

    def test_chaos_run_still_correct(self):
        # Probabilistic crashes everywhere; generous retry budget.
        ctx = RheemContext()
        injector = FaultInjector(probability=0.6, seed=7)
        result = _task(ctx).execute(fault_injector=injector,
                                    max_stage_retries=25)
        assert dict(result.output) == {"a": 1, "b": 2}
        assert injector.injected > 0

    def test_loop_body_stages_retry_too(self):
        ctx = RheemContext()
        data = ctx.load_collection([1, 2]).cache()
        seed = ctx.load_collection([0])
        out = seed.repeat(3, lambda s, inv: s.map(lambda v: v + 1),
                          invariants=[data])
        injector = FaultInjector(probability=0.3, seed=11)
        result = out.execute(fault_injector=injector, max_stage_retries=10)
        assert result.output == [3]
        assert injector.injected > 0
