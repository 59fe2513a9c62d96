"""Regression tests for crash-retry state leaks in the executor.

Before the buffered-commit fix, a crashed stage attempt had already
written its outputs into the channel environment, populated the shared
conversion cache, appended to ``completed_logical``, delivered sniffer
payloads and charged ``cluster.check_memory`` by the time the fault
injector was consulted.  These tests pin the post-fix semantics: a failed
attempt leaves nothing behind except its critical-path charge.
"""

import pytest

from repro import RheemContext
from repro.core.executor import Executor, Sniffer
from repro.core.faults import FaultInjector, PlatformFailure
from conftest import wordcount


def _corpus(ctx):
    ctx.vfs.write("hdfs://rs/lines.txt", ["a b", "b c", "c"],
                  sim_factor=1000.0)
    return wordcount(ctx, "hdfs://rs/lines.txt")


def _compiled(ctx, dq):
    """(execution plan, estimates) for a fluent pipeline."""
    plan = dq.to_plan()
    optimizer = ctx.optimizer()
    best, cards = optimizer.pick_best(plan)
    return optimizer._build_execution_plan(plan, best), cards


def _first_stage_id(breaks=frozenset()):
    probe = RheemContext()
    exec_plan, __ = _compiled(probe, _corpus(probe))
    return exec_plan.build_stages(break_after=set(breaks))[0].id


class TestBufferedCommit:
    def test_sniffers_stay_silent_on_crashed_attempts(self):
        """A sniffer observes each output exactly once, not once per
        attempt — crashed attempts never produced observable data."""
        stage_id = _first_stage_id()
        ctx = RheemContext()
        dq = _corpus(ctx)
        # reduceby <- map <- flatmap: tap the flatmap output.
        flatmap_op = dq.op.inputs[0].op.inputs[0].op
        tapped = []
        injector = FaultInjector(failures={stage_id: 2})
        result = dq.execute(
            sniffers=[Sniffer(flatmap_op.id, tapped.append)],
            fault_injector=injector, max_stage_retries=2)
        assert injector.injected == 2
        assert dict(result.output) == {"a": 1, "b": 2, "c": 2}
        assert len(tapped) == 1

    def test_memory_is_not_charged_for_crashed_attempts(self):
        """``check_memory`` runs at commit time only: a crashed attempt's
        materialized outputs never count against the platform budget."""

        def run(failures):
            ctx = RheemContext()
            dq = _corpus(ctx)
            flatmap_id = dq.op.inputs[0].op.inputs[0].op.id
            exec_plan, cards = _compiled(ctx, dq)
            stage_id = exec_plan.build_stages(
                break_after={flatmap_id})[0].id
            calls = []
            real = ctx.cluster.check_memory
            ctx.cluster.check_memory = (
                lambda platform, mb: (calls.append(platform),
                                      real(platform, mb))[1])
            injector = FaultInjector(failures={stage_id: failures})
            ctx.executor().execute(
                exec_plan, estimates=cards, fault_injector=injector,
                max_stage_retries=2, stage_breaks={flatmap_id})
            return calls

        assert run(failures=2) == run(failures=0)

    def test_checkpoint_sees_no_duplicate_monitor_state(self):
        """FaultInjector + checkpoint hook: the monitor handed to the
        checkpoint reflects committed attempts only — each stage appears
        once no matter how often it crashed first."""
        ctx = RheemContext()
        dq = _corpus(ctx)
        flatmap_id = dq.op.inputs[0].op.inputs[0].op.id
        exec_plan, cards = _compiled(ctx, dq)
        stage_id = exec_plan.build_stages(break_after={flatmap_id})[0].id
        seen = []

        def checkpoint(monitor, completed):
            seen.append(([t.stage_id for t in monitor.stage_timings],
                         set(completed)))
            return False

        injector = FaultInjector(failures={stage_id: 2})
        result = ctx.executor().execute(
            exec_plan, estimates=cards, checkpoint=checkpoint,
            fault_injector=injector, max_stage_retries=2,
            stage_breaks={flatmap_id})
        assert dict(result.output) == {"a": 1, "b": 2, "c": 2}
        assert injector.injected == 2
        assert seen, "checkpoint hook never consulted"
        timeline, completed = seen[0]
        # The retried stage committed exactly one timing and the crashed
        # attempts contributed no completed-operator ids.
        assert timeline.count(stage_id) == 1
        assert all(tid.count(".attempt") == 0 for tid in timeline)
        assert flatmap_id in completed
        # The monitor's observation log is identical to a fault-free run.
        clean_ctx = RheemContext()
        clean_dq = _corpus(clean_ctx)
        clean_flatmap_id = clean_dq.op.inputs[0].op.inputs[0].op.id
        clean_plan, clean_cards = _compiled(clean_ctx, clean_dq)
        clean = clean_ctx.executor().execute(
            clean_plan, estimates=clean_cards,
            stage_breaks={clean_flatmap_id})
        assert ([o.stage_id for o in result.monitor.stage_observations]
                == [o.stage_id for o in clean.monitor.stage_observations])

    def test_a_crashed_loop_body_attempt_leaves_no_state(self, monkeypatch):
        """A body stage that converts its input crashes past its retries:
        the state it was handed — the iteration's env and conversion
        cache, the driver attempt's completed ids — is as before it ran."""
        ctx = RheemContext()
        looped = ctx.load_collection([0, 1, 2], sim_factor=1000.0).repeat(
            2, lambda s: s.map(lambda v: v + 1)
            .with_target_platform("flinklite").map(lambda v: v * 2)
            .with_target_platform("pystreams"))
        plan, estimates = ctx.optimize(looped.to_plan())
        clean = ctx.executor().execute(plan, estimates)
        (target,) = [r.stage_id for r in clean.tracker.records
                     if ".it0." in r.stage_id and any(
                         e.label.startswith("convert:")
                         for e in r.meter.events)]
        handed = {}
        run_stage = Executor._run_stage

        def spying(executor, job, stage, label, start, env, cache,
                   completed, epoch):
            if label == target:
                handed["state"] = env, cache, completed
                handed["before"] = dict(env), dict(cache), set(completed)
            return run_stage(executor, job, stage, label, start, env, cache,
                             completed, epoch)

        monkeypatch.setattr(Executor, "_run_stage", spying)
        with pytest.raises(PlatformFailure):
            ctx.executor().execute(
                plan, estimates, max_stage_retries=0,
                fault_injector=FaultInjector(failures={target: 1}))
        env, cache, completed = handed["state"]
        assert (dict(env), dict(cache), set(completed)) == handed["before"]

    def test_loop_driver_retry_does_not_duplicate_observations(self):
        """Retrying the driver stage that hosts a loop re-runs the whole
        loop; the monitor must keep one observation per body stage, not
        one per attempt."""

        def run(injector=None, retries=0):
            ctx = RheemContext()
            data = ctx.load_collection([1, 2]).cache()
            seed = ctx.load_collection([0])
            out = seed.repeat(2, lambda s, inv: s.map(lambda v: v + 1),
                              invariants=[data])
            result = out.execute(fault_injector=injector,
                                 max_stage_retries=retries)
            assert result.output == [2]
            return result

        import re

        def normalized(result):
            # Loop implementation ids differ between contexts; the stage
            # structure is what must match.
            return sorted(re.sub(r"\.loop\d+\.", ".loop.", o.stage_id)
                          for o in result.monitor.stage_observations)

        clean = run()
        driver_stages = {r.stage_id for r in clean.tracker.records
                         if ".loop" not in r.stage_id}
        failures = {sid: 1 for sid in driver_stages}
        faulty = run(FaultInjector(failures=failures), retries=2)
        assert normalized(faulty) == normalized(clean)


class TestRetryCostAccounting:
    def test_wasted_attempts_chain_on_the_critical_path(self):
        stage_id = _first_stage_id()
        ctx = RheemContext()
        injector = FaultInjector(failures={stage_id: 2})
        result = _corpus(ctx).execute(fault_injector=injector,
                                      max_stage_retries=2)
        timings = {r.label: r for r in result.tracker.records}
        a0 = timings[f"{stage_id}.attempt0"]
        a1 = timings[f"{stage_id}.attempt1"]
        final = timings[stage_id]
        # The successful attempt chains after the last failure.
        assert a1.start == pytest.approx(a0.end)
        assert final.start == pytest.approx(a1.end)
        assert a0.duration > 0 and a1.duration > 0 and final.duration > 0

    def test_makespan_grows_monotonically_with_failures(self):
        stage_id = _first_stage_id()
        runtimes = []
        for failures in (0, 1, 2):
            ctx = RheemContext()
            injector = FaultInjector(failures={stage_id: failures})
            result = _corpus(ctx).execute(fault_injector=injector,
                                          max_stage_retries=2)
            runtimes.append(result.runtime)
        assert runtimes[0] < runtimes[1] < runtimes[2]

    def test_retry_metrics_count_wasted_attempts(self):
        stage_id = _first_stage_id()
        ctx = RheemContext()
        injector = FaultInjector(failures={stage_id: 2})
        _corpus(ctx).execute(fault_injector=injector, max_stage_retries=2)
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["executor.retries_wasted"] == 2
        assert counters["executor.attempts"] == \
            counters["executor.stages"] + 2
