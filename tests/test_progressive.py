"""Tests for progressive (re-)optimization."""

import dataclasses

import pytest

from repro import RheemContext
from repro.core import operators as ops
from repro.core.channels import ChannelDescriptor
from repro.core.executor import Sniffer
from repro.core.optimizer import OptimizationError
from repro.core.plan import RheemPlan
from repro.core.progressive import PausedJob
from repro.core.udf import Udf
from conftest import wordcount


def _lookup_join_plan(ctx, filter_selectivity_hint):
    """Big filtered input joined with a driver-side lookup collection —
    the Figure 10(b) shape: a wrong filter hint makes the initial plan put
    the join on the wrong platform."""
    if not ctx.vfs.exists("hdfs://data/events.csv"):
        rows = [f"item{i},{i % 1000}" for i in range(4000)]
        ctx.vfs.write("hdfs://data/events.csv", rows, sim_factor=10_000.0,
                      bytes_per_record=100.0)
    lookup = ctx.load_collection([(k, f"cat{k % 7}") for k in range(1000)],
                                 bytes_per_record=20)
    hinted = Udf(lambda t: t[1] >= 1, selectivity=filter_selectivity_hint,
                 name="hinted-filter")
    events = (ctx.read_text_file("hdfs://data/events.csv")
              .map(lambda l: (l.split(",")[0], int(l.split(",")[1])),
                   name="parse")
              .filter(hinted))
    joined = events.join(lookup, lambda e: e[1], lambda kv: kv[0],
                         selectivity=1.0 / 1000)
    return (joined.map(lambda p: (p[1][1], 1), bytes_per_record=12)
            .reduce_by_key(lambda t: t[0], lambda a, b: (a[0], a[1] + b[1]))
            .to_plan())


class TestProgressiveOptimization:
    def test_replans_on_bad_hint_and_speeds_up(self):
        ctx_off = RheemContext()
        off = ctx_off.execute(_lookup_join_plan(ctx_off, 0.0001))
        ctx_on = RheemContext()
        report = ctx_on.execute_progressive(
            _lookup_join_plan(ctx_on, 0.0001), tolerance=2.0)
        assert report.replans >= 1
        assert report.result.runtime < off.runtime / 2
        assert sorted(report.result.output) == sorted(off.output)

    def test_no_replan_when_hint_is_right(self):
        ctx = RheemContext()
        report = ctx.execute_progressive(
            _lookup_join_plan(ctx, 0.999), tolerance=2.0)
        assert report.replans == 0

    def test_replan_count_bounded(self):
        ctx = RheemContext()
        report = ctx.execute_progressive(
            _lookup_join_plan(ctx, 0.0001), max_replans=0)
        assert report.replans == 0  # checkpoints disabled by the bound

    def test_progressive_flag_on_context_execute(self):
        ctx = RheemContext()
        res = ctx.execute(_lookup_join_plan(ctx, 0.0001), progressive=True)
        totals = dict(res.output)
        assert sum(totals.values()) == 3996  # rows with value >= 1

    def test_replan_leaves_the_callers_plan_untouched(self):
        ctx = RheemContext()
        plan = _lookup_join_plan(ctx, 0.0001)
        before = [type(o) for o in RheemPlan(plan.sinks).operators()]
        assert ctx.execute_progressive(plan).replans >= 1
        assert [type(o) for o in RheemPlan(plan.sinks).operators()] == before
        # The plan still reads its source: half the file, half the rows.
        ctx.vfs.write("hdfs://data/events.csv",
                      [f"item{i},{i % 1000}" for i in range(2000)],
                      sim_factor=10_000.0, bytes_per_record=100.0)
        assert sum(dict(ctx.execute(plan).output).values()) == 1998

    def test_runtime_includes_what_ran_before_the_checkpoint(self):
        ctx = RheemContext()
        result = ctx.execute_progressive(
            _lookup_join_plan(ctx, 0.0001)).result
        at_pause = result.tracker.origin
        assert at_pause > 0
        assert all(t.start >= at_pause for t in result.tracker.timings())
        assert result.runtime > at_pause

    def test_sniffer_sees_an_output_once_across_a_replan(self):
        ctx = RheemContext()
        plan = _lookup_join_plan(ctx, 0.0001)
        (hinted,) = [o for o in plan.operators() if isinstance(o, ops.Filter)]
        seen = []
        report = ctx.execute_progressive(
            plan, sniffers=[Sniffer(hinted.id, seen.append)])
        assert report.replans >= 1
        assert len(seen) == 1


class TestPauseResume:
    def _plan(self, ctx):
        ctx.vfs.write("hdfs://pr/x.txt", [f"{i}" for i in range(100)],
                      sim_factor=1000.0)
        parsed = ctx.read_text_file("hdfs://pr/x.txt").map(int, name="parse")
        return parsed, (parsed.filter(lambda v: v % 2 == 0, name="evens")
                        .sort()
                        .to_plan())

    def test_pause_inspect_resume(self):
        from repro import RheemContext
        ctx = RheemContext()
        parsed, plan = self._plan(ctx)
        paused = ctx.execute_paused(plan, break_after={parsed.op.id})
        assert isinstance(paused, PausedJob)
        assert parsed.op.id in paused.completed
        snapshot = paused.inspect(parsed.op.id)
        # The materialized intermediate is observable mid-job.
        values = (snapshot.to_list() if hasattr(snapshot, "to_list")
                  else list(snapshot))
        assert sorted(values) == list(range(100))
        result = ctx.resume(paused)
        assert result.output == sorted(v for v in range(100) if v % 2 == 0)

    def test_breakpoint_on_last_operator_finishes(self):
        from repro import RheemContext
        from repro.core.executor import ExecutionResult
        ctx = RheemContext()
        __, plan = self._plan(ctx)
        sink_id = plan.sinks[0].id
        outcome = ctx.execute_paused(plan, break_after={sink_id})
        assert isinstance(outcome, ExecutionResult)

    def test_resumed_runtime_continues_from_the_paused_makespan(self):
        ctx = RheemContext()
        parsed, plan = self._plan(ctx)
        paused = ctx.execute_paused(plan, break_after={parsed.op.id})
        assert paused.makespan > 0
        result = ctx.resume(paused)
        # What is left is one chain of stages: its own makespan is the
        # sum of their durations.
        assert result.runtime == paused.makespan + result.tracker.busy_time

    def test_completed_sink_is_not_run_again(self):
        ctx = RheemContext()
        ctx.vfs.write("hdfs://pr/two.txt", [f"{i}" for i in range(100)],
                      sim_factor=1000.0)
        calls = []

        def parse(line):
            calls.append(line)
            return int(line)

        parsed = ctx.read_text_file("hdfs://pr/two.txt").map(parse,
                                                             name="parse")
        first, second = ops.CollectionSink("first"), ops.CollectionSink("second")
        first.connect(0, parsed.filter(lambda v: v % 2 == 0, name="evens").op)
        second.connect(0, parsed.map(lambda v: v + 1, name="inc").sort().op)
        plan = RheemPlan([first, second])
        paused = ctx.execute_paused(plan, break_after={first.id})
        assert isinstance(paused, PausedJob)
        assert first.id in paused.completed
        assert second.id not in paused.completed
        result = ctx.resume(paused)
        assert len(calls) == 100
        assert result.outputs == [list(range(0, 100, 2)),
                                  list(range(1, 101))]

    def test_unreachable_root_fails_the_resume_and_runs_nothing(self):
        ctx = RheemContext()
        parsed, plan = self._plan(ctx)
        paused = ctx.execute_paused(plan, break_after={parsed.op.id})
        nowhere = ChannelDescriptor("nowhere.channel", "nowhere", True)
        paused.materialized[parsed.op.id] = dataclasses.replace(
            paused.materialized[parsed.op.id], descriptor=nowhere)
        stages = ctx.metrics.snapshot()["counters"]["executor.stages"]
        with pytest.raises(OptimizationError):
            ctx.resume(paused)
        assert ctx.metrics.snapshot()["counters"]["executor.stages"] == stages

    def test_unreachable_store_hit_plans_the_whole_job_instead(self):
        """The same dead end under a store hit is the store's to absorb."""
        ctx = RheemContext()
        ctx.vfs.write("hdfs://pr/corpus.txt", ["to be or not to be"] * 40,
                      sim_factor=1_000.0)
        first = ctx.execute(wordcount(ctx, "hdfs://pr/corpus.txt").to_plan())
        nowhere = ChannelDescriptor("nowhere.channel", "nowhere", True)
        for entry in ctx.result_store._entries.values():
            entry.channel = dataclasses.replace(entry.channel,
                                                descriptor=nowhere)
        again = ctx.execute(wordcount(ctx, "hdfs://pr/corpus.txt").to_plan())
        assert sorted(again.output) == sorted(first.output)
        assert again.runtime == first.runtime
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["optimizer.reuse_fallbacks"] == 1
