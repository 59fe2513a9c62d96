"""Tests for the tracing/metrics subsystem and its exporters."""

import json

from repro import RheemContext
from repro.core.faults import FaultInjector
from repro.simulation.clock import CostMeter, StageLedger
from repro.trace import (
    NO_TRACER,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    profile_summary,
    span_records,
    trace_block,
    write_chrome_trace,
    write_jsonl,
)
from conftest import wordcount


class FakeClock:
    """A deterministic clock: every read advances by one second."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestTracer:
    def test_spans_nest_and_time(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", job="wc") as outer:
            with tracer.span("inner"):
                pass
            outer.set("late", 1)
        (root,) = tracer.roots
        assert root.name == "outer"
        assert root.attributes == {"job": "wc", "late": 1}
        (child,) = root.children
        assert child.name == "inner"
        assert child.parent_id == root.span_id
        assert root.duration >= child.duration > 0
        assert root.start <= child.start

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=FakeClock())
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        (root,) = tracer.roots
        assert root.end is not None
        assert tracer.current() is None

    def test_walk_and_find(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.walk()] == ["a", "b", "c"]
        assert [s.name for s in tracer.find("b")] == ["b"]
        assert tracer.find("nope") == []

    def test_null_tracer_records_nothing(self):
        with NO_TRACER.span("x", a=1) as span:
            span.set("b", 2)
        assert not NO_TRACER.enabled
        assert list(NO_TRACER.walk()) == []

    def test_real_tracer_is_enabled(self):
        assert Tracer().enabled


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.counter("jobs").inc(2)
        registry.gauge("loss").set(0.25)
        snap = registry.snapshot()
        assert snap["counters"] == {"jobs": 3}
        assert snap["gauges"] == {"loss": 0.25}

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        try:
            registry.counter("c").inc(-1)
        except ValueError:
            return
        raise AssertionError("negative increment accepted")

    def test_histogram_stats_and_reservoir_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for i in range(1000):
            hist.observe(float(i))
        assert hist.count == 1000
        assert hist.min == 0.0 and hist.max == 999.0
        assert len(hist.samples) <= 256
        stats = registry.snapshot()["histograms"]["h"]
        assert stats["count"] == 1000
        assert stats["mean"] > 0
        assert 0.0 <= hist.percentile(0.5) <= 999.0

    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")


class TestExporters:
    def _traced(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("run", stages=1):
            with tracer.span("stage:s1"):
                pass
        return tracer

    def test_jsonl_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc(5)
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            lines = write_jsonl(handle, self._traced(), registry)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == lines == 3
        assert records[0]["name"] == "run"
        assert records[1]["parent"] == records[0]["id"]
        assert records[-1] == {"type": "metrics", "counters": {"n": 5},
                               "gauges": {}, "histograms": {}}

    def test_span_records_carry_attributes(self):
        records = span_records(self._traced())
        assert records[0]["attributes"] == {"stages": 1}

    def test_chrome_trace_two_timelines_and_lanes(self):
        tracker = StageLedger()
        fast, slow = CostMeter(), CostMeter()
        fast.charge(1.0, "a")
        slow.charge(5.0, "b")
        s1 = tracker.record("s1", 0, "p", 0.0, fast)
        tracker.record("s2", 0, "p", 0.0, slow)   # overlaps s1 -> lane 2
        tracker.record("s3", 0, "p", s1.end, fast)  # chains -> lane 1
        doc = chrome_trace(self._traced(), [tracker])
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"run", "stage:s1", "s1", "s2", "s3"} <= names
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2}
        by_name = {e["name"]: e for e in doc["traceEvents"]
                   if e.get("ph") == "X" and e["pid"] == 2}
        assert by_name["s1"]["tid"] != by_name["s2"]["tid"]
        assert by_name["s3"]["tid"] == by_name["s1"]["tid"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == \
            {"driver (wall-clock)", "job 0 (simulated)"}

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "t.json"
        with open(path, "w") as handle:
            write_chrome_trace(handle, self._traced(), [])
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"

    def test_trace_block_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        block = trace_block(self._traced(), registry)
        assert block["spans"][0]["name"] == "run"
        assert block["spans"][0]["children"][0]["name"] == "stage:s1"
        assert block["metrics"]["counters"] == {"c": 1}

    def test_profile_summary_renders_tree_and_metrics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        text = profile_summary(self._traced(), registry)
        assert "stage:s1" in text and "c" in text and "n=1" in text


class TestTracedExecution:
    """Acceptance: a traced optimize+execute run exports a well-formed
    Chrome trace covering all optimizer phases and every stage attempt."""

    def test_full_job_trace_with_retries(self, tmp_path):
        probe = RheemContext()
        probe.vfs.write("hdfs://t/l.txt", ["a b", "b"], sim_factor=100.0)
        stage_id = (probe.optimizer()
                    .optimize(wordcount(probe, "hdfs://t/l.txt").to_plan())
                    .build_stages()[0].id)

        ctx = RheemContext()
        tracer = ctx.enable_tracing()
        ctx.vfs.write("hdfs://t/l.txt", ["a b", "b"], sim_factor=100.0)
        injector = FaultInjector(failures={stage_id: 2})
        result = wordcount(ctx, "hdfs://t/l.txt").execute(
            fault_injector=injector, max_stage_retries=2)
        assert dict(result.output) == {"a": 1, "b": 2}

        doc = chrome_trace(tracer, [result.tracker], ctx.metrics)
        path = tmp_path / "job.trace.json"
        path.write_text(json.dumps(doc))
        doc = json.loads(path.read_text())

        names = {e["name"] for e in doc["traceEvents"]}
        for phase in ("optimizer.inflate", "optimizer.estimate",
                      "optimizer.movement", "optimizer.enumerate"):
            assert phase in names
        # Wall-clock side: one attempt span per try (2 failures + success).
        for attempt in ("attempt0", "attempt1", "attempt2"):
            assert attempt in names
        # Simulated side: the wasted attempts occupy the critical path.
        assert f"{stage_id}.attempt0" in names
        assert f"{stage_id}.attempt1" in names
        assert stage_id in names
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
                assert {"name", "pid", "tid", "args"} <= set(event)
        counters = doc["otherData"]["counters"]
        assert counters["executor.retries_wasted"] == 2
        assert counters["optimizer.plans_enumerated"] > 0
        assert counters["optimizer.plans_pruned"] > 0
        assert counters["optimizer.conversion_paths_solved"] > 0

    def test_crashed_loop_driver_shows_both_loop_runs(self):
        """The driver stage hosting a loop crashes once, so the whole loop
        runs twice: both runs are on the simulated timeline, the first
        one's records wasted and tagged with their attempt, and the
        second starts where the crashed driver attempt ended."""
        from test_execution_golden import _do_while

        ctx = RheemContext()
        result = _do_while(ctx).map(lambda v: v * 2).execute(
            max_stage_retries=1,
            fault_injector=FaultInjector(failures={"stage3": 1}))
        assert result.output == [12]
        doc = chrome_trace(None, [result.tracker])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        body = [e for e in events if ".loop" in e["name"]]
        wasted = [e for e in body if not e["args"]["survived"]]
        kept = [e for e in body if e["args"]["survived"]]
        assert wasted and len(wasted) == len(kept)
        assert all(e["name"].endswith(".attempt0") for e in wasted)
        (crashed,) = [e for e in events if e["name"] == "stage3.attempt0"]
        (driver,) = [e for e in events if e["name"] == "stage3"]
        assert (crashed["args"]["attempt"], driver["args"]["attempt"]) \
            == (0, 1)
        # Each loop run ends before its driver attempt closes; the rerun
        # starts after the crashed attempt.
        assert max(e["ts"] + e["dur"] for e in wasted) <= crashed["ts"]
        assert min(e["ts"] for e in kept) >= crashed["ts"] + crashed["dur"]
        assert max(e["ts"] + e["dur"] for e in kept) <= driver["ts"]
        assert result.runtime == result.tracker.makespan

    def test_enumerate_span_counts_wirings_beside_distinct_paths(self):
        from repro.apps.dataciv import q5_quanta
        from repro.workloads import TpchLite

        ctx = RheemContext()
        tracer = ctx.enable_tracing()
        TpchLite(0.05).place_for_q5(ctx)
        ctx.optimize(q5_quanta(ctx, 0.05, "polystore").to_plan())
        (span,) = [s for root in tracer.roots
                   for s in root.find("optimizer.enumerate")]
        distinct = span.attributes["conversion_paths_distinct"]
        assert 0 < distinct <= span.attributes["conversion_paths_solved"]
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["optimizer.conversion_paths_distinct"] == distinct

    def test_rest_response_carries_trace_block(self):
        from repro.api import RheemService

        service = RheemService()
        document = {
            "operators": [
                {"name": "src", "kind": "collection_source",
                 "data": [1, 2, 3]},
                {"name": "sq", "kind": "map", "input": "src",
                 "expr": "x * x"},
            ],
            "sink": {"name": "sq"},
        }
        response = service.submit(document)
        assert response["status"] == "ok"
        trace = response["trace"]
        span_names = {s["name"] for s in _walk_json_spans(trace["spans"])}
        assert "optimizer.enumerate" in span_names
        assert "executor.run" in span_names
        assert trace["metrics"]["counters"]["executor.stages"] >= 1
        json.dumps(response)  # JSON-serializable end to end

    def test_disabled_tracing_leaves_no_spans(self):
        ctx = RheemContext()
        ctx.load_collection([1, 2]).map(lambda x: x + 1).collect()
        assert not ctx.tracer.enabled


def _walk_json_spans(spans):
    for span in spans:
        yield span
        yield from _walk_json_spans(span.get("children", []))


class TestCliTrace:
    SCRIPT = """
        lines = load 'hdfs://data/abstracts.txt';
        words = flatmap lines -> { x.split() };
        n = count words;
        dump n;
    """

    def test_trace_subcommand_writes_chrome_file(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "wc.latin"
        script.write_text(self.SCRIPT)
        out = tmp_path / "job.trace.json"
        code = main(["trace", str(script), "--abstracts", "1",
                     "--out", str(out)])
        assert code == 0
        assert "trace events" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "optimizer.enumerate" in names and "executor.run" in names

    def test_trace_default_output_path(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "wc.latin"
        script.write_text(self.SCRIPT)
        assert main(["trace", str(script), "--abstracts", "1"]) == 0
        assert (tmp_path / "wc.latin.trace.json").exists()

    def test_run_profile_prints_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "wc.latin"
        script.write_text(self.SCRIPT)
        code = main(["run", str(script), "--abstracts", "1", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wall-clock spans:" in out
        assert "optimizer.enumerate" in out
        assert "job 0 (simulated" in out
