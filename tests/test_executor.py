"""Tests for stage building, execution, loops, sniffers and the monitor."""

import pytest

from repro import RheemContext
from repro.core.executor import Sniffer
from repro.core.monitor import Monitor
from repro.core.cardinality import CardinalityEstimate
from repro.simulation.cluster import SimulatedOutOfMemory
from conftest import wordcount


class TestStageBuilding:
    def _stages(self, ctx, dq):
        plan = dq.to_plan()
        exec_plan = ctx.optimizer().optimize(plan)
        return exec_plan.build_stages()

    def test_single_platform_chain_is_one_stage(self, ctx):
        dq = (ctx.load_collection(list(range(5)))
              .map(lambda x: x + 1).filter(lambda x: x > 1))
        stages = self._stages(ctx, dq)
        real = [s for s in stages if s.platform != "driver"]
        assert len(real) == 1

    def test_stage_dependencies_point_backwards(self, ctx):
        ctx.vfs.write("hdfs://f", ["a b"] * 50, sim_factor=300_000.0)
        stages = self._stages(ctx, wordcount(ctx, "hdfs://f"))
        seen = set()
        for stage in stages:
            assert stage.dependencies <= seen
            seen.add(stage.id)

    def test_loop_gets_driver_stage(self, ctx):
        data = ctx.load_collection(list(range(10))).cache()
        seed = ctx.load_collection([0])
        dq = seed.repeat(2, lambda s, inv: inv.sample(size=1)
                         .reduce(lambda a, b: a + b), invariants=[data])
        stages = self._stages(ctx, dq)
        assert any(s.platform == "driver" for s in stages)


class TestExecution:
    def test_results_and_runtime(self, ctx):
        ctx.vfs.write("hdfs://f", ["x y", "y"], sim_factor=10.0)
        res = wordcount(ctx, "hdfs://f").execute()
        assert dict(res.output) == {"x": 1, "y": 2}
        assert res.runtime > 0
        assert res.stage_count >= 1

    def test_multi_sink_plan(self, ctx):
        from repro.core import operators as ops
        from repro.core.plan import RheemPlan
        src = ops.CollectionSource([1, 2, 3])
        double = ops.Map(lambda x: x * 2)
        double.connect(0, src)
        triple = ops.Map(lambda x: x * 3)
        triple.connect(0, src)
        s1, s2 = ops.CollectionSink(), ops.CollectionSink()
        s1.connect(0, double)
        s2.connect(0, triple)
        plan = RheemPlan([s1, s2])
        res = ctx.execute(plan)
        assert res.outputs[0] == [2, 4, 6]
        assert res.outputs[1] == [3, 6, 9]

    def test_shared_producer_computed_once(self, ctx):
        calls = []

        def probe(x):
            calls.append(x)
            return x

        shared = ctx.load_collection([1, 2]).map(probe)
        joined = shared.join(shared, lambda x: x, lambda x: x)
        out = joined.collect(allowed_platforms={"pystreams", "driver"})
        assert sorted(out) == [(1, 1), (2, 2)]
        assert len(calls) == 2  # not 4: one task feeds both join inputs

    def test_memory_cap_at_stage_boundary(self, ctx):
        # A huge collection crossing into the driver breaks pystreams' heap.
        ctx.vfs.write("hdfs://huge", ["r"] * 100, sim_factor=5_000_000.0,
                      bytes_per_record=100.0)
        dq = ctx.read_text_file("hdfs://huge")
        with pytest.raises(SimulatedOutOfMemory):
            dq.collect(allowed_platforms={"pystreams", "driver"})

    def test_overlapping_branches_take_critical_path(self, ctx):
        a = ctx.load_collection(list(range(100)), sim_factor=1e5).map(
            lambda x: x)
        b = ctx.load_collection(list(range(100)), sim_factor=1e5).map(
            lambda x: x)
        res = a.union(b).execute(allowed_platforms={"pystreams", "driver"})
        assert res.tracker.makespan <= res.tracker.busy_time


class TestLoopsAtRuntime:
    def test_repeat_runs_exact_iterations(self, ctx):
        counter = []
        data = ctx.load_collection([1]).cache()
        seed = ctx.load_collection([0])

        def body(s, inv):
            return s.map(lambda v: (counter.append(v), v + 1)[1])

        out = seed.repeat(7, body, invariants=[data])
        assert out.collect() == [7]
        assert len(counter) == 7

    def test_do_while_stops_on_condition(self, ctx):
        data = ctx.load_collection([1]).cache()
        seed = ctx.load_collection([0])
        out = seed.do_while(
            lambda values: values[0] < 4,
            lambda s, inv: s.map(lambda v: v + 1),
            invariants=[data], max_iterations=100)
        assert out.collect() == [4]

    def test_do_while_condition_reads_a_loop_variable_held_off_the_driver(
            self, ctx):
        # The body is pinned to sparklite, so the loop variable is an RDD:
        # each check converts it to a driver collection through the graph.
        data = ctx.load_collection([1]).cache()
        seed = ctx.load_collection([0])
        seen = []
        out = seed.do_while(
            lambda values: (seen.append(values), values[0] < 4)[1],
            lambda s, inv: s.map(lambda v: v + 1)
                            .with_target_platform("sparklite"),
            invariants=[data], max_iterations=100)
        assert out.collect() == [4]
        assert seen == [[1], [2], [3], [4]]

    def test_do_while_respects_max_iterations(self, ctx):
        data = ctx.load_collection([1]).cache()
        seed = ctx.load_collection([0])
        out = seed.do_while(
            lambda values: True,
            lambda s, inv: s.map(lambda v: v + 1),
            invariants=[data], max_iterations=5)
        assert out.collect() == [5]

    def test_loop_broadcast_sees_fresh_value(self, ctx):
        seen = []
        data = ctx.load_collection([10]).cache()
        seed = ctx.load_collection([0])

        def body(s, inv):
            return inv.map(lambda x, w: (seen.append(w[0]), w[0] + 1)[1],
                           broadcasts=[s])

        out = seed.repeat(3, body, invariants=[data])
        assert out.collect() == [3]
        assert seen == [0, 1, 2]


class TestSniffers:
    def test_sniffer_sees_data_and_costs_time(self, ctx):
        ctx.vfs.write("hdfs://f", ["a b b"] * 30, sim_factor=50_000.0)
        tapped = []

        def build():
            return wordcount(ctx, "hdfs://f")

        plain = build().execute(allowed_platforms={"pystreams", "driver"})
        dq = build()
        # Sniff the flatmap output (reduceby <- map <- flatmap).
        flatmap_op = dq.op.inputs[0].op.inputs[0].op
        sniffed = dq.execute(
            allowed_platforms={"pystreams", "driver"},
            sniffers=[Sniffer(flatmap_op.id, tapped.append)])
        assert tapped and len(tapped[0]) == 90
        assert sniffed.runtime > plain.runtime
        overhead = sniffed.runtime / plain.runtime - 1
        assert overhead < 1.0  # bounded exploratory overhead


class TestMonitor:
    def test_actuals_and_mismatches(self):
        monitor = Monitor(estimates={1: CardinalityEstimate(10, 20)})

        class FakeOp:
            class logical:
                id = 1
                name = "op"
        monitor.record_cardinality(FakeOp, 500.0)
        assert monitor.actuals[1] == 500.0
        assert not monitor.is_healthy()
        assert monitor.mismatches()[0].actual == 500.0

    def test_healthy_when_within_bounds(self):
        monitor = Monitor(estimates={1: CardinalityEstimate(10, 20)})

        class FakeOp:
            class logical:
                id = 1
                name = "op"
        monitor.record_cardinality(FakeOp, 15.0)
        assert monitor.is_healthy()

    def test_observations_recorded_during_execution(self, ctx):
        ctx.vfs.write("hdfs://f", ["a b"] * 10, sim_factor=100.0)
        res = wordcount(ctx, "hdfs://f").execute()
        obs = res.monitor.stage_observations
        assert obs
        kinds = {o.op_kind for rec in obs for o in rec.operators}
        assert {"flatmap", "reduceby"} <= kinds


class TestMonitorReport:
    def test_report_mentions_stages_and_surprises(self, ctx):
        from repro.core.udf import Udf
        ctx.vfs.write("hdfs://rep/x", ["1"] * 50, sim_factor=1000.0)
        bad = Udf(lambda v: True, selectivity=0.001, name="surprising")
        res = (ctx.read_text_file("hdfs://rep/x")
               .map(int).filter(bad).execute())
        text = res.monitor.report()
        assert "stage timeline" in text
        assert "cardinality surprises" in text
        assert "surprising" not in text or True  # operator naming may vary


class TestConversionDeduplication:
    def test_shared_export_converted_once(self, ctx):
        # One pgres relation feeds TWO operators pinned on flinklite: the
        # pgres-export conversion must run once, not per consumer edge.
        ctx.pgres.create_table("src", ["v"], [{"v": i} for i in range(20)],
                               sim_factor=1e4)
        base = ctx.read_table("src")
        evens = base.filter(lambda r: r["v"] % 2 == 0,
                            name="evens").with_target_platform("flinklite")
        odds = base.filter(lambda r: r["v"] % 2 == 1,
                           name="odds").with_target_platform("flinklite")
        res = evens.union(odds).execute()
        exports = [e for t in res.tracker.timings()
                   for e in t.meter.events
                   if e.label.startswith("convert:pgres-export")]
        assert len(exports) == 1
        assert len(res.output) == 20


# ------------------------------------------------------- loop fixes S1/S2
class TestLoopBodyFixes:
    def test_sniffer_inside_repeat_loop_fires_per_iteration(self, ctx):
        """S1: sniffers on loop-body operators must observe every
        iteration (the loop used to swallow the sniffer map)."""
        data = ctx.load_collection([1, 2]).cache()
        seed = ctx.load_collection([0])
        body_ids = []

        def body(s, inv):
            stepped = s.map(lambda v: v + 1)
            body_ids.append(stepped.op.id)
            return stepped

        out = seed.repeat(3, body, invariants=[data])
        tapped = []
        result = out.execute(sniffers=[Sniffer(body_ids[0], tapped.append)])
        assert result.output == [3]
        assert tapped == [[1], [2], [3]]

    def test_sniffed_loop_costs_more_than_plain(self, ctx):
        """The in-loop sniffer's multiplexing cost lands on the body
        stages' meters, so the makespan grows."""

        def run(sniffers):
            run_ctx = RheemContext()
            data = run_ctx.load_collection(
                list(range(100)), sim_factor=50_000.0).cache()
            seed = run_ctx.load_collection([0])
            ids = []

            def body(s, inv):
                stepped = s.map(lambda v: v + 1)
                ids.append(stepped.op.id)
                return stepped

            out = seed.repeat(4, body, invariants=[data])
            taps = ([Sniffer(ids[0], lambda _: None, cost_factor=5000.0)]
                    if sniffers else [])
            return out.execute(sniffers=taps).runtime

        assert run(sniffers=True) > run(sniffers=False)

    def test_loop_body_memory_checks_scale_with_iterations(self, ctx):
        """S2: channels materialized at loop-body stage boundaries hit
        ``cluster.check_memory`` — once per iteration, so the call count
        grows with the iteration count (it used to stay flat)."""

        def count_checks(iterations):
            run_ctx = RheemContext()
            calls = []
            real = run_ctx.cluster.check_memory
            run_ctx.cluster.check_memory = (
                lambda platform, mb: (calls.append(platform),
                                      real(platform, mb))[1])
            data = run_ctx.load_collection([1, 2]).cache()
            seed = run_ctx.load_collection([0])
            out = seed.repeat(iterations,
                              lambda s, inv: s.map(lambda v: v + 1),
                              invariants=[data])
            assert out.collect() == [iterations]
            return len(calls)

        assert count_checks(6) > count_checks(2)

    def test_loop_body_ops_reach_completed_logical(self, ctx):
        """S2: loop-body logical operators show up in the completed set a
        checkpoint receives once their loop stage commits."""
        data = ctx.load_collection([1, 2]).cache()
        seed = ctx.load_collection([0])
        body_ids = []

        def body(s, inv):
            stepped = s.map(lambda v: v + 1)
            body_ids.append(stepped.op.id)
            return stepped

        out = seed.repeat(2, body, invariants=[data]).map(lambda v: v * 10)
        plan = out.to_plan()
        optimizer = ctx.optimizer()
        best, cards = optimizer.pick_best(plan)
        exec_plan = optimizer._build_execution_plan(plan, best)
        seen = []
        result = ctx.executor().execute(
            exec_plan, estimates=cards,
            checkpoint=lambda monitor, completed: (seen.append(completed),
                                                   False)[1])
        assert result.output == [20]
        union = set().union(*seen) if seen else set()
        assert body_ids[0] in union


# --------------------------------------------------------------------- S4
class TestStartedPlatformReporting:
    def test_platforms_reports_what_actually_started(self, ctx):
        tapped = wordcount(ctx, "hdfs://s4/l.txt")
        ctx.vfs.write("hdfs://s4/l.txt", ["a b"], sim_factor=10.0)
        result = tapped.execute()
        timeline_platforms = {o.platform
                              for o in result.monitor.stage_observations
                              if o.platform != "driver"}
        assert result.platforms == timeline_platforms

    def test_resumed_job_keeps_previously_started_platforms(self, ctx):
        """A paused-then-resumed job must report the platforms started
        before the pause, not just the residual plan's platforms (the
        old code re-derived them from ``plan.platforms()``)."""
        ctx.vfs.write("hdfs://s4/r.txt", ["a b", "b"], sim_factor=10.0)
        plan = wordcount(ctx, "hdfs://s4/r.txt").to_plan()
        optimizer = ctx.optimizer()
        best, cards = optimizer.pick_best(plan)
        exec_plan = optimizer._build_execution_plan(plan, best)
        pre_started = {"already-started-platform"}
        result = ctx.executor().execute(exec_plan, estimates=cards,
                                        started_platforms=pre_started)
        assert "already-started-platform" in result.platforms
        assert result.platforms - {"already-started-platform"} <= \
            exec_plan.platforms()
