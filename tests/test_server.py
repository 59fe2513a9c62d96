"""Tests for the concurrent job server: admission control, job lifecycle,
deadlines/cancellation, drain, the WSGI front end — and the regression
test that a failed job never leaks its tracer onto the shared context.

The serving core is tested in isolation too: the one job-run function
with a fake service (no server), and ``JobServer`` over a fake shard (no
context, no process).  The classes that never hold a worker on a
``threading.Event`` — an event does not cross a process boundary — take
the ``backend`` fixture: ``REPRO_STRESS_BACKEND`` (``thread`` by default;
the CI ``stress`` job's process leg sets ``process``) picks the backend,
as it does for ``test_server_stress.py``."""

import io
import json
import os
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro import RheemContext
from repro.api import PlanDocumentError, RheemService
from repro.core.executor import JobCancelled
from repro.server import AdmissionError, JobServer, JobState, make_wsgi_app
from repro.server import http as http_module
from repro.server.shards import ShardPool, run_document
from repro.trace import NO_TRACER, MetricsRegistry

WORDCOUNT_DOC = {
    "operators": [
        {"name": "lines", "kind": "textfile_source",
         "path": "hdfs://srv/x.txt"},
        {"name": "words", "kind": "flatmap", "input": "lines",
         "expr": "x.split()"},
        {"name": "pairs", "kind": "map", "input": "words",
         "expr": "(x, 1)"},
        {"name": "counts", "kind": "reduceby", "input": "pairs",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"},
    ],
    "sink": {"name": "counts"},
}

BAD_DOC = {"operators": [], "sink": {"name": "ghost"}}

#: WORDCOUNT_DOC with a first stage 50 ms of wall time per line long (and a
#: stage boundary after it): still running when a short deadline passes.
SLOW_DOC = {**WORDCOUNT_DOC, "operators": [
    WORDCOUNT_DOC["operators"][0],
    {**WORDCOUNT_DOC["operators"][1], "expr": "nap(x).split()"},
    *WORDCOUNT_DOC["operators"][2:]]}
SLOW_ENV = {"nap": lambda x: (time.sleep(0.05), x)[1]}


def _edges_doc(kind, **params):
    """A document with one ``kind`` entry of ``params`` over three edges."""
    return {"operators": [
        {"name": "edges", "kind": "collection_source",
         "data": [[0, 1], [1, 2], [2, 0]]},
        {"name": "out", "kind": kind, "input": "edges", **params}],
        "sink": {"name": "out"}}


NUMS = {"name": "nums", "kind": "collection_source", "data": [[1, 2], [3, 4]]}
#: Right values for the fields an entry of each kind needs.
ENTRY = {"collection_source": {"data": [1]},
         "textfile_source": {"path": "hdfs://srv/x.txt"},
         "table_source": {"table": "region"},
         "map": {"input": "nums", "expr": "x"},
         "sample": {"input": "nums", "size": 1},
         "sort": {"input": "nums"},
         "groupby": {"input": "nums", "key": "x[0]"},
         "join": {"left": "nums", "right": "nums", "left_key": "x[0]",
                  "right_key": "x[0]"},
         "pagerank": {"input": "nums"}}
_COUNT = lambda v: type(v) in (int, float) and v >= 0
#: Each optional field: the entry kind carrying it, its type or right values.
FIELDS = {
    "data": ("collection_source", list), "env": ("collection_source", str),
    "sim_factor": ("collection_source", _COUNT), "platform": ("map", str),
    "path": ("textfile_source", str), "table": ("table_source", str),
    "projection": ("table_source", list), "broadcasts": ("map", list),
    "bytes_per_record": ("map", _COUNT), "fraction": ("sample", _COUNT),
    "size": ("sample", lambda v: type(v) is int and v >= 0),
    "method": ("sample", lambda v: v in (
        "random", "random_jump", "shuffled_partition", "first")),
    "descending": ("sort", bool), "sim_groups": ("groupby", _COUNT),
    "selectivity": ("join", _COUNT),
    "sim_mode": ("join", lambda v: v in ("linear", "product")),
    "iterations": ("pagerank", lambda v: type(v) is int and v >= 1),
    "damping": ("pagerank", lambda v: type(v) in (int, float) and 0 <= v <= 1),
    # Not an entry's: the document's "execution" carries it.
    "platforms": (None, lambda v: not v or type(v) is list and all(
        type(p) is str for p in v)),
    "objective": (None, lambda v: v in ("runtime", "monetary")),
    "progressive": (None, bool),
}
_JSON = st.one_of(st.booleans(), st.integers(-9, 9), st.floats(-9, 9),
                  st.text(max_size=5), st.lists(st.integers(), max_size=2))


def _ctx():
    ctx = RheemContext()
    ctx.vfs.write("hdfs://srv/x.txt", ["a b", "b"], sim_factor=10.0)
    return ctx


@pytest.fixture
def backend():
    return os.environ.get("REPRO_STRESS_BACKEND", "thread")


def _server(backend, **kwargs):
    """A job server over the wordcount corpus on either backend."""
    return JobServer(backend=backend, context_factory=_ctx, **kwargs)


def _wait_until_running(job, timeout=10.0):
    """Spin until the server's worker has actually picked the job up.

    Dispatch commits at pick time (a worker taking the job off the
    pending queue), so "the running job" in a test must be observed in
    the RUNNING state before shutdown semantics around it are asserted.
    """
    deadline = time.monotonic() + timeout
    while job.state is JobState.QUEUED:
        if time.monotonic() > deadline:
            raise AssertionError(f"{job.job_id} never started running")
        time.sleep(0.001)


def _gated_doc():
    """A document whose map UDF blocks until ``gate`` is set (via env)."""
    gate = threading.Event()
    doc = {
        "operators": [
            {"name": "src", "kind": "collection_source", "data": [1, 2, 3]},
            {"name": "hold", "kind": "map", "input": "src",
             "expr": "(gate.wait(10), x)[1]"},
        ],
        "sink": {"name": "hold"},
    }
    return doc, gate


class TestAdmissionControl:
    def test_queue_full_rejection_is_structured(self):
        doc, gate = _gated_doc()
        server = JobServer(RheemContext(), env={"gate": gate},
                          workers=1, queue_size=1)
        try:
            running = server.submit(doc)      # occupies the worker
            queued = server.submit(doc)       # occupies the queue slot
            rejected = server.submit(doc)     # over capacity
            assert rejected.state is JobState.REJECTED
            assert rejected.response["status"] == "rejected"
            assert rejected.response["code"] == 429
            assert rejected.response["kind"] == "QueueFull"
            assert "queue full" in rejected.response["error"]
            # A rejected job never occupies a slot: it is not in the table.
            assert server.status(rejected.job_id) is None
        finally:
            gate.set()
            server.shutdown(drain=True)
        assert running.state is JobState.DONE
        assert queued.state is JobState.DONE
        counters = server.metrics.snapshot()["counters"]
        assert counters["server.jobs.rejected"] == 1
        assert counters["server.jobs.done"] == 2

    def test_submit_sync_raises_admission_error(self):
        doc, gate = _gated_doc()
        server = JobServer(RheemContext(), env={"gate": gate},
                          workers=1, queue_size=0)
        try:
            server.submit(doc)
            with pytest.raises(AdmissionError) as err:
                server.submit_sync(doc)
            assert err.value.response["code"] == 429
        finally:
            gate.set()
            server.shutdown(drain=True)

    def test_rejected_after_shutdown(self):
        server = JobServer(_ctx(), workers=1)
        server.shutdown(drain=True)
        job = server.submit(WORDCOUNT_DOC)
        assert job.state is JobState.REJECTED
        assert job.response["code"] == 503
        assert job.response["kind"] == "ServerStopping"


class TestJobLifecycle:
    def test_done_job_status_and_result(self, backend):
        with _server(backend, workers=2) as server:
            job = server.submit(WORDCOUNT_DOC)
            response = server.result(job.job_id, timeout=30)
        assert response["status"] == "ok"
        assert sorted(map(tuple, response["output"])) == [("a", 1), ("b", 2)]
        status = server.status(job.job_id)
        assert status["state"] == "done"
        assert status["wait_s"] >= 0 and status["run_s"] > 0
        assert status["response"]["status"] == "ok"
        hist = server.metrics.snapshot()["histograms"]
        assert hist["server.wait_s"]["count"] == 1
        assert hist["server.run_s"]["count"] == 1

    def test_failed_job_state(self, backend):
        with _server(backend, workers=1) as server:
            response = server.submit_sync(BAD_DOC)
        assert response["status"] == "error"
        assert server.metrics.snapshot()["counters"]["server.jobs.failed"] == 1

    def test_unknown_job_id(self, backend):
        server = _server(backend, workers=1)
        assert server.status("job-999") is None
        with pytest.raises(KeyError):
            server.result("job-999")
        server.shutdown()

    def test_drain_runs_queued_jobs(self, backend):
        server = _server(backend, workers=1, queue_size=8)
        jobs = [server.submit(WORDCOUNT_DOC) for __ in range(5)]
        server.shutdown(drain=True)
        assert all(j.state is JobState.DONE for j in jobs)

    def test_non_drain_shutdown_fails_queued_jobs(self):
        doc, gate = _gated_doc()
        server = JobServer(RheemContext(), env={"gate": gate},
                          workers=1, queue_size=4)
        running = server.submit(doc)
        queued = [server.submit(doc) for __ in range(3)]
        _wait_until_running(running)
        server.shutdown(drain=False)
        gate.set()
        responses = [server.result(j.job_id, timeout=30) for j in queued]
        assert all(r["kind"] == "ServerShutdown" for r in responses)
        assert all(j.state is JobState.FAILED for j in queued)
        # The running job was never interrupted mid-stage.
        assert server.result(running.job_id, timeout=30)["status"] == "ok"


def _recording_gated_doc(value):
    """A gated document whose UDF first notes that its job started (a
    distinct ``value`` per job: no job reuses another's result)."""
    return {
        "operators": [
            {"name": "src", "kind": "collection_source", "data": [value]},
            {"name": "hold", "kind": "map", "input": "src",
             "expr": "(started.append(x), gate.wait(10), x)[2]"},
        ],
        "sink": {"name": "hold"},
    }


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestOneJobPerContext:
    """A context runs one job at a time; contexts run side by side."""

    def test_a_given_context_runs_its_jobs_one_at_a_time(self):
        gate, started = threading.Event(), []
        server = JobServer(RheemContext(),
                           env={"gate": gate, "started": started},
                           workers=2, queue_size=4)
        try:
            first, second = (server.submit(_recording_gated_doc(value))
                             for value in (1, 2))
            # Both workers picked a job, but the second waits for the
            # context the first one holds.
            _wait_for(lambda: started and second.state is JobState.RUNNING)
            time.sleep(0.2)
            assert len(started) == 1
            gate.set()
            assert [server.result(job.job_id, 30)["status"]
                    for job in (first, second)] == ["ok", "ok"]
            assert len(started) == 2
        finally:
            gate.set()
            server.shutdown()

    def test_factory_contexts_run_jobs_side_by_side(self):
        gate, started, built = threading.Event(), [], []

        def factory():
            built.append(RheemContext())
            return built[-1]

        server = JobServer(env={"gate": gate, "started": started},
                           workers=2, context_factory=factory)
        try:
            jobs = [server.submit(_recording_gated_doc(value))
                    for value in (1, 2)]
            # Both hold their gate at once: two contexts, one job each.
            _wait_for(lambda: len(started) == 2)
            assert len(built) == 2
            gate.set()
            for job in jobs:
                assert server.result(job.job_id, 30)["status"] == "ok"
            assert sorted(job.shard_slot for job in jobs) == [0, 1]
            shards = server.snapshot()["shards"]
            assert [(s["slot"], s["jobs_run"], s["inflight"])
                    for s in shards] == [(0, 1, 0), (1, 1, 0)]
            merged = server.metrics_snapshot()["counters"]
            per_context = [ctx.metrics.snapshot()["counters"]
                           for ctx in built]
            # The UDF reads a threading.Event, which no plan digest can
            # be made of: each context counts one uncacheable plan.
            assert merged["fingerprint.unstable"] == 2 == sum(
                c["fingerprint.unstable"] for c in per_context)
            assert merged["server.jobs.done"] == 2
        finally:
            gate.set()
            server.shutdown()


class TestBoundedJobTable:
    """A long-lived server keeps a bounded number of terminal jobs."""

    TRIVIAL_DOC = {
        "operators": [
            {"name": "src", "kind": "collection_source", "data": [1, 2]}],
        "sink": {"name": "src"},
    }

    def test_oldest_finished_jobs_are_evicted(self, monkeypatch):
        from repro.server import server as server_module
        monkeypatch.setattr(server_module, "MAX_TERMINAL_JOBS", 8)
        held_doc, gate = _gated_doc()
        total = 30
        # Two contexts: the held job keeps one, the rest run on the other.
        with JobServer(env={"gate": gate}, workers=2,
                       queue_size=4) as server:
            app = make_wsgi_app(server)
            # A job that stays running while the table turns over.
            held = server.submit(held_doc)
            _wait_until_running(held)
            ids = []
            for __ in range(total):
                job = server.submit(self.TRIVIAL_DOC)
                assert server.result(job.job_id, timeout=30)["status"] == "ok"
                ids.append(job.job_id)
            states = server.snapshot()["states"]
            assert states == {"running": 1, "done": 8}
            # Newest finished jobs resolve; evicted ones are unknown ids.
            for job_id in ids[-8:]:
                assert server.status(job_id)["state"] == "done"
                assert server.result(job_id, timeout=1)["status"] == "ok"
            for job_id in ids[:-8]:
                assert server.status(job_id) is None
                with pytest.raises(KeyError):
                    server.result(job_id)
            status, __ = TestWsgiFrontend()._call(
                app, method="GET", path=f"/jobs/{ids[0]}")
            assert status.startswith("404")
            # The running job outlived every one of them.
            assert server.status(held.job_id)["state"] == "running"
            gate.set()
            assert server.result(held.job_id, timeout=30)["status"] == "ok"
        snap = server.metrics.snapshot()
        assert snap["counters"]["server.jobs.submitted"] == total + 1
        assert snap["counters"]["server.jobs.done"] == total + 1
        assert snap["histograms"]["server.run_s"]["count"] == total + 1
        assert sum(server.snapshot()["states"].values()) == 8


class TestTracerIsolation:
    """Regression: a job must never leak its tracer onto the shared
    context — not even when the document fails to parse (the old
    implementation swapped ``ctx.tracer`` and restored it in a
    ``finally``; the refactor passes the tracer through execution and
    never mutates the context at all)."""

    def test_failed_parse_leaves_context_tracer(self):
        ctx = RheemContext()
        service = RheemService(ctx)
        assert ctx.tracer is NO_TRACER
        response = service.submit(BAD_DOC)
        assert response["status"] == "error"
        assert ctx.tracer is NO_TRACER

    def test_failed_execution_leaves_recording_tracer(self):
        ctx = _ctx()
        installed = ctx.enable_tracing()
        service = RheemService(ctx)
        doc = json.loads(json.dumps(WORDCOUNT_DOC))
        doc["operators"][1]["expr"] = "x.no_such_method()"
        with pytest.raises(AttributeError):
            service.submit(doc)
        assert ctx.tracer is installed
        # ... and the failed job's spans did not land on the shared tracer.
        assert installed.roots == []

    def test_ok_submission_never_touches_context_tracer(self):
        ctx = _ctx()
        service = RheemService(ctx)
        response = service.submit(WORDCOUNT_DOC)
        assert response["status"] == "ok"
        assert ctx.tracer is NO_TRACER
        assert response["trace"]["spans"]  # the per-job tracer recorded


class TestDeadlinesAndCancellation:
    def test_cancel_check_raises_at_stage_boundary(self):
        ctx = _ctx()
        calls = []

        def cancel():
            calls.append(1)
            raise JobCancelled("now")

        plan = (ctx.read_text_file("hdfs://srv/x.txt")
                .flat_map(str.split).to_plan())
        with pytest.raises(JobCancelled):
            ctx.execute(plan, cancel_check=cancel)
        assert calls  # the hook actually ran

    def test_timeout_releases_slot_and_keeps_state_consistent(self):
        # Pinned across two platforms, so a stage boundary follows the
        # first stage.  That stage waits on a gate that opens only after
        # the job's deadline has passed: the timeout fires at the boundary,
        # never before the job has looked up its plan.  Result reuse is
        # off: the gated stage commits, and a resubmission reusing its
        # output would bypass the plan cache this test counts.
        ops = SLOW_DOC["operators"]
        doc = {**SLOW_DOC, "operators": [
            ops[0], {**ops[1], "platform": "JavaStreams"}, ops[2],
            {**ops[3], "platform": "Spark"}]}
        ctx = RheemContext(config={"result_reuse": False})
        ctx.vfs.write("hdfs://srv/x.txt", ["a b", "b"], sim_factor=10.0)
        class Gate:  # a class is digested by name: the plan stays cacheable
            event = threading.Event()

        gate = Gate.event
        env = {"nap": lambda x: (Gate.event.wait(10), x)[1]}
        deadline_s = 0.5
        with JobServer(ctx, env=env, workers=1, queue_size=4) as server:
            before = dict(ctx.plan_cache.stats)
            job = server.submit(doc, deadline_s=deadline_s)
            expired = time.monotonic() + deadline_s + 0.1
            _wait_until_running(job)
            time.sleep(max(0.0, expired - time.monotonic()))
            gate.set()
            response = server.result(job.job_id, timeout=30)
            assert job.state is JobState.TIMEOUT
            assert response["status"] == "error"
            assert response["kind"] == "Timeout"
            assert server.status(job.job_id)["state"] == "timeout"
            # The cancelled attempt charged exactly one plan-cache lookup
            # (its own miss) — no phantom increments from the abandoned
            # execution.
            after = dict(ctx.plan_cache.stats)
            assert after["misses"] == before["misses"] + 1
            assert after["hits"] == before["hits"]
            # The queue slot is free: the same document runs to completion
            # and replays the cached plan.
            ok = server.submit_sync(doc, deadline_s=60)
            assert ok["status"] == "ok"
            assert ctx.plan_cache.stats["hits"] == before["hits"] + 1
            assert ctx.plan_cache.stats["misses"] == before["misses"] + 1
        counters = server.metrics.snapshot()["counters"]
        assert counters["server.jobs.timeout"] == 1
        assert counters["server.jobs.done"] == 1
        assert server.snapshot()["in_flight"] == 0

    def test_deadline_already_past_when_dequeued(self):
        doc, gate = _gated_doc()
        server = JobServer(RheemContext(), env={"gate": gate},
                          workers=1, queue_size=2)
        try:
            server.submit(doc)  # hold the only worker
            late = server.submit(doc, deadline_s=0.0)
        finally:
            gate.set()
        response = server.result(late.job_id, timeout=30)
        server.shutdown(drain=True)
        assert late.state is JobState.TIMEOUT
        assert response["kind"] == "Timeout"


class TestWsgiFrontend:
    def _call(self, app, method="POST", path="/jobs", body=b"", qs=""):
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        environ = {"REQUEST_METHOD": method, "PATH_INFO": path,
                   "QUERY_STRING": qs, "CONTENT_LENGTH": str(len(body)),
                   "wsgi.input": io.BytesIO(body)}
        chunks = app(environ, start_response)
        return captured["status"], json.loads(b"".join(chunks))

    def test_sync_roundtrip_and_status_codes(self, backend):
        with _server(backend, workers=2) as server:
            app = make_wsgi_app(server)
            body = json.dumps(WORDCOUNT_DOC).encode()
            status, payload = self._call(app, body=body)
            assert status == "200 OK" and payload["status"] == "ok"
            status, payload = self._call(app, body=b"{broken")
            assert status.startswith("400")
            status, __ = self._call(app, method="GET", path="/jobs/nope")
            assert status.startswith("404")
            status, payload = self._call(app, method="GET", path="/metrics")
            assert status == "200 OK" and "counters" in payload

    def test_non_finite_output_floats_keep_the_reply_valid_json(self,
                                                                  backend):
        # RFC 8259 has no Infinity/NaN: a strict parser must read the body.
        def strict(constant):
            raise ValueError(f"non-JSON constant {constant}")

        document = {"operators": [
            {"name": "src", "kind": "collection_source", "data": [1, 2]},
            {"name": "m", "kind": "map", "input": "src",
             "expr": "x * 1e308 * 10"}], "sink": {"name": "m"}}
        request = json.dumps(document).encode()
        captured = {}
        with _server(backend, workers=1) as server:
            chunks = make_wsgi_app(server)(
                {"REQUEST_METHOD": "POST", "PATH_INFO": "/jobs",
                 "QUERY_STRING": "", "CONTENT_LENGTH": str(len(request)),
                 "wsgi.input": io.BytesIO(request)},
                lambda status, headers: captured.update(status=status))
            body = b"".join(chunks)
        assert captured["status"] == "200 OK"
        payload = json.loads(body, parse_constant=strict)
        assert payload["output"] == ["inf", "inf"]

    def test_async_submit_then_poll(self, backend):
        with _server(backend, workers=2) as server:
            app = make_wsgi_app(server)
            body = json.dumps(WORDCOUNT_DOC).encode()
            status, payload = self._call(app, body=body, qs="mode=async")
            assert status == "202 Accepted"
            job_id = payload["job_id"]
            server.result(job_id, timeout=30)
            status, payload = self._call(app, method="GET",
                                         path=f"/jobs/{job_id}")
            assert status == "200 OK"
            assert payload["state"] == "done"
            assert payload["response"]["status"] == "ok"

    def test_queue_full_maps_to_429(self):
        doc, gate = _gated_doc()
        server = JobServer(RheemContext(), env={"gate": gate},
                          workers=1, queue_size=0)
        app = make_wsgi_app(server)
        try:
            server.submit(doc)
            status, payload = self._call(
                app, body=json.dumps(doc).encode())
            assert status.startswith("429")
            assert payload["kind"] == "QueueFull"
        finally:
            gate.set()
            server.shutdown(drain=True)

    def test_shutdown_maps_to_503_and_timeout_to_408(self, backend):
        server = _server(backend, env=SLOW_ENV, workers=1)
        app = make_wsgi_app(server)
        body = json.dumps(SLOW_DOC).encode()
        status, payload = self._call(app, body=body, qs="deadline_s=0.001")
        assert status.startswith("408")
        assert payload["kind"] == "Timeout"
        server.shutdown(drain=True)
        status, payload = self._call(app, body=body)
        assert status.startswith("503")

    # ---- request parsing never leaks a traceback (each failed on the
    # parent: AttributeError / ValueError / RecursionError out of the app,
    # an unbounded read, replies without a ``kind``)
    def _refused(self, app, code, **call):
        status, payload = self._call(app, **call)
        assert status.startswith(str(code)), (status, payload)
        assert payload["status"] == "error"
        assert isinstance(payload["kind"], str) and payload["error"]
        return payload

    @pytest.fixture
    def app(self):
        with JobServer(_ctx(), workers=1) as server:
            yield make_wsgi_app(server)

    @pytest.mark.parametrize("body", [
        b"[1, 2, 3]", b'"text"', b"null", b"7",
        b"[" * 100_000,                                   # RecursionError
        b"{broken", b""])
    def test_body_that_is_not_a_json_object_is_a_400(self, app, body):
        assert "bad JSON" in self._refused(app, 400, body=body)["error"]

    def test_nesting_the_parser_survives_but_admission_does_not(self):
        # A few levels short of the parser's limit the body parses, and
        # the process backend's routing fingerprint (json.dumps, two
        # frames further down) is what runs out of stack.
        def too_deep(document):
            raise RecursionError("maximum recursion depth exceeded")

        with JobServer(_ctx(), workers=1) as server:
            server._shards.fingerprint = too_deep
            payload = self._refused(make_wsgi_app(server), 400,
                                    body=json.dumps(WORDCOUNT_DOC).encode())
        assert "bad JSON" in payload["error"]

    @pytest.mark.parametrize("envelope", [
        {"priority": "high"}, {"priority": [1]}, {"priority": None},
        {"priority": 1.5}, {"tenant": 7}, {"tenant": ["a"]},
        {"priority": True}])
    def test_envelope_field_of_the_wrong_type_is_a_400(self, app, envelope):
        body = json.dumps({**WORDCOUNT_DOC, **envelope}).encode()
        error = self._refused(app, 400, body=body)["error"]
        assert error == f"bad {next(iter(envelope))}"
        # The query string wins over the document, so it can repair it.
        status, __ = self._call(app, body=body, qs="tenant=t&priority=2")
        assert status == "200 OK"
        # JobServer.submit refuses the document's field as the app does,
        # rather than coerce it (1.5 or True to 1, ["a"] to "['a']").
        with JobServer(_ctx(), workers=1) as server:
            with pytest.raises(PlanDocumentError, match=error):
                server.submit({**WORDCOUNT_DOC, **envelope})

    @pytest.mark.parametrize("field, override", [
        ("'operators'", {"operators": {"a": 1}}),
        ("'operators'", {"operators": "abc"}),
        ("'operators'", {"operators": [5]}),
        ("'sink'", {"sink": "counts"}),
        ("'sink'", {"sink": ["counts"]}),
        ("'execution'", {"execution": "fast"}),
        ("'name'", {"operators": [
            {**WORDCOUNT_DOC["operators"][0], "name": ["lines"]}]}),
        *[(f"'{key}'", _edges_doc("pagerank", **{key: value}))
          for key, value in [
              ("iterations", "10"), ("iterations", 2.5), ("iterations", True),
              ("damping", "x"), ("damping", 7), ("damping", -1)]],
        ("'size'", _edges_doc("sample")),
        ("'fraction'", _edges_doc("sample", size=1, fraction=0.5)),
        ("named 'a'", {"operators": [
            {"name": "a", "kind": "collection_source", "data": [1]},
            {"name": "a", "kind": "collection_source", "data": [2]}],
            "sink": {"name": "a"}}),
        ("'env'", {"operators": [
            {"name": "a", "kind": "collection_source", "env": "nope"}],
            "sink": {"name": "a"}}),
        ("'operatorz'", {"operatorz": []}),
        ("'objectiv'", {"execution": {"objectiv": "monetary"}}),
        ("'exprr'", {"operators": [
            WORDCOUNT_DOC["operators"][0],
            {**WORDCOUNT_DOC["operators"][1], "exprr": "x"},
            *WORDCOUNT_DOC["operators"][2:]]}),
        ("'bytes_per_record'", _edges_doc("filter", expr="x",
                                          bytes_per_record=8)),
        ("'broadcasts'", _edges_doc("distinct", broadcasts=["edges"])),
        ("'Nope'", {"execution": {"platforms": ["Nope"]}}),
        ("'format'", {"sink": {"name": "counts", "format": "csv"}})])
    def test_a_misshaped_document_is_a_plan_document_error(
            self, app, field, override):
        # Each answered a Python exception name (TypeError, AttributeError,
        # a sample's ValueError, a missing env entry's KeyError), an
        # unknown platform's OptimizationError, or — a bool iteration
        # count, a damping outside [0, 1], a second entry shadowing the
        # first, a key no level of the document declares — ran.
        body = json.dumps({**WORDCOUNT_DOC, **override}).encode()
        payload = self._refused(app, 400, body=body)
        assert payload["kind"] == "PlanDocumentError"
        assert field in payload["error"]

    def test_a_mistyped_field_is_a_plan_document_error(self):
        # Each failed where it was used, as a TypeError or the like, or ran.
        cases = st.sampled_from(sorted(FIELDS)).flatmap(
            lambda field: st.tuples(st.just(field), _JSON.filter(
                lambda v, right=FIELDS[field][1]: not (
                    type(v) is right if isinstance(right, type)
                    else right(v)))))
        with JobServer(_ctx(), workers=1) as server:
            app = make_wsgi_app(server)

            @given(cases)
            def check(case):
                field, value = case
                kind = FIELDS[field][0]
                doc = ({"operators": [NUMS, {"name": "op", **ENTRY[kind],
                                             "kind": kind, field: value}],
                        "sink": {"name": "op"}} if kind else
                       {"operators": [NUMS], "sink": {"name": "nums"},
                        "execution": {field: value}})
                error = self._refused(app, 400, body=json.dumps(doc).encode())
                assert error["kind"] == "PlanDocumentError"
                assert repr(field) in error["error"]
                assert kind is None or "operator 'op'" in error["error"]

            check()

    def test_bad_query_values_carry_a_kind(self, app):
        body = json.dumps(WORDCOUNT_DOC).encode()
        for qs in ("deadline_s=soon", "priority=high"):
            error = self._refused(app, 400, body=body, qs=qs)["error"]
            assert error == "bad " + qs.split("=")[0]

    def test_oversized_body_is_a_413_and_is_never_read(self, app):
        class Unreadable:
            def read(self, size=-1):
                raise AssertionError("the body must not be read")

        captured = {}
        environ = {"REQUEST_METHOD": "POST", "PATH_INFO": "/jobs",
                   "CONTENT_LENGTH": str(http_module.MAX_BODY_BYTES + 1),
                   "wsgi.input": Unreadable()}
        chunks = app(environ, lambda status, headers: captured.update(
            status=status))
        payload = json.loads(b"".join(chunks))
        assert captured["status"].startswith("413")
        assert payload["status"] == "error"
        assert payload["kind"] == "PayloadTooLarge"

    def test_content_length_bounds_the_read(self, app):
        body = json.dumps(WORDCOUNT_DOC).encode()
        seen = []

        class Counting(io.BytesIO):
            def read(self, size=-1):
                seen.append(size)
                return super().read(size)

        for length, code in ((str(len(body)), "200"), ("-1", "400")):
            captured = {}
            environ = {"REQUEST_METHOD": "POST", "PATH_INFO": "/jobs",
                       "CONTENT_LENGTH": length,
                       "wsgi.input": Counting(body)}
            app(environ, lambda status, headers: captured.update(
                status=status))
            assert captured["status"].startswith(code)
        assert seen == [len(body), 0]   # never read(-1): that is unbounded


class _FakeService:
    """Stands in for ``RheemService``: ``submit`` is the given callable."""

    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.calls = []

    def submit(self, document, tracer=None, cancel_check=None,
               observations=False):
        self.calls.append((document, tracer, observations))
        return self.behaviour(cancel_check)


class TestRunDocument:
    """The one job path, alone: no server, no context."""

    def test_deadline_already_past_never_reaches_the_service(self):
        service = _FakeService(lambda check: {"status": "ok"})
        response = run_document(service, "job-7", {}, -0.5, NO_TRACER)
        assert response == {"status": "error", "kind": "Timeout",
                            "error": "job-7 exceeded its deadline",
                            "job_id": "job-7"}
        assert service.calls == []

    def test_cancellation_mid_run_is_a_timeout(self):
        def behaviour(cancel_check):
            cancel_check()              # still inside the budget
            time.sleep(0.03)
            cancel_check()              # the next stage boundary: too late
            raise AssertionError("the job ran past its deadline")

        response = run_document(_FakeService(behaviour), "job-1", {}, 0.02,
                                NO_TRACER)
        assert response["kind"] == "Timeout"
        assert response["job_id"] == "job-1"

        def cancelled(cancel_check):
            raise JobCancelled("by someone else's clock")

        response = run_document(_FakeService(cancelled), "job-2", {}, None,
                                NO_TRACER)
        assert (response["kind"], response["error"]) == (
            "Timeout", "by someone else's clock")

    def test_unexpected_exception_is_a_structured_error(self):
        response = run_document(_FakeService(lambda check: 1 // 0), "job-3",
                                {}, 60.0, NO_TRACER)
        assert response == {"status": "error", "kind": "ZeroDivisionError",
                            "error": "integer division or modulo by zero",
                            "job_id": "job-3"}

    @pytest.mark.parametrize("observe", [False, True])
    def test_ok_passes_through(self, observe):
        reply = {"status": "ok", "output": [1]}
        if observe:
            reply["calibration_observations"] = [{"stage": 0}]

        def behaviour(cancel_check):
            cancel_check()              # no deadline: never raises
            return reply

        service = _FakeService(behaviour)
        document, tracer = {"operators": []}, object()
        assert run_document(service, "job-4", document, None, tracer,
                            observe) is reply
        assert service.calls == [(document, tracer, observe)]


class _FakeShard:
    """Records calls; answers each document with its ``reply`` entry.

    A document with ``"hold": True`` blocks in ``run_job`` until
    ``gate`` is set — the fake's way of keeping a worker busy.  Unlike a
    real shard it takes no lock, so every worker can be inside it."""

    slot = 0
    pid = None

    def __init__(self):
        self.alive = True
        self.inflight = 0
        self.jobs_run = 0
        self.calls = []
        self.published = []
        self.stopped = False
        self.gate = threading.Event()

    def run_job(self, job_id, document, remaining_s, tracer, observe=False):
        self.calls.append(SimpleNamespace(
            job_id=job_id, document=document, remaining_s=remaining_s,
            tracer=tracer, observe=observe))
        self.jobs_run += 1
        if document.get("hold"):
            assert self.gate.wait(10)
        if document.get("raise"):
            raise RuntimeError(document["raise"])
        return dict(document.get("reply", {"status": "ok"}))

    def publish(self, params):
        self.published.append(params)

    def metrics(self):
        return {"counters": {"fake": 1}, "gauges": {}, "histograms": {}}

    def stop(self):
        self.stopped = True

    def job_ids(self):
        return [call.job_id for call in self.calls]


class TestServerOverFakeShard:
    """Admission, dispatch and accounting need no context and no process:
    the server only ever sees the shard surface."""

    @pytest.fixture
    def shard(self):
        return _FakeShard()

    @pytest.fixture
    def make_server(self, shard):
        servers = []

        def make(**kwargs):
            stub = SimpleNamespace(config={}, metrics=MetricsRegistry())
            server = JobServer(stub, **kwargs)
            server._shards = ShardPool(lambda slot: shard, 1,
                                       metrics=server.metrics)
            servers.append(server)
            return server

        yield make
        shard.gate.set()
        for server in servers:
            server.shutdown()

    def _wait_for_calls(self, shard, count):
        deadline = time.monotonic() + 10
        while len(shard.calls) < count:
            assert time.monotonic() < deadline, shard.job_ids()
            time.sleep(0.001)

    def test_admission_bound_and_rejection(self, shard, make_server):
        server = make_server(workers=1, queue_size=1)
        held = [server.submit({"hold": True}) for __ in range(2)]
        rejected = server.submit({})
        assert rejected.state is JobState.REJECTED
        assert rejected.response["code"] == 429
        assert rejected.response["queue_depth"] + \
            rejected.response["in_flight"] == 2
        assert server.status(rejected.job_id) is None
        shard.gate.set()
        assert [server.result(j.job_id, 10)["status"] for j in held] == \
            ["ok", "ok"]
        assert shard.job_ids() == [j.job_id for j in held]

    def test_pick_order_is_priority_then_fifo(self, shard, make_server):
        server = make_server(workers=1, queue_size=8)
        blocker = server.submit({"hold": True})
        self._wait_for_calls(shard, 1)
        low = [server.submit({}, priority=0) for __ in range(3)]
        high = server.submit({"priority": 5})      # the document's own
        shard.gate.set()
        for job in (blocker, high, *low):
            server.result(job.job_id, 10)
        assert shard.job_ids() == [
            j.job_id for j in (blocker, high, *low)]

    def test_tenant_quota_skips_but_never_rejects(self, shard, make_server):
        server = make_server(workers=2, queue_size=8, tenant_quota=1)
        a_jobs = [server.submit({"hold": True}, tenant="a")
                  for __ in range(3)]
        b_job = server.submit({"hold": True, "tenant": "b"})
        self._wait_for_calls(shard, 2)
        # One of a's at a time, although a worker was idle; b overtook.
        assert sorted(shard.job_ids()) == sorted(
            [a_jobs[0].job_id, b_job.job_id])
        assert server.snapshot()["tenants_running"] == {"a": 1, "b": 1}
        assert a_jobs[1].state is JobState.QUEUED
        shard.gate.set()
        for job in (*a_jobs, b_job):
            assert server.result(job.job_id, 10)["status"] == "ok"
        assert server.snapshot()["tenants_running"] == {}

    def test_outcomes_map_to_states_and_counters(self, shard, make_server):
        server = make_server(workers=1)
        replies = {
            "done": {"status": "ok", "output": [],
                     "calibration_observations": [{"stage": 0}]},
            "failed": {"status": "error", "kind": "PlanDocumentError"},
            "timeout": {"status": "error", "kind": "Timeout"},
        }
        for state, reply in replies.items():
            job = server.submit({"reply": reply})
            response = server.result(job.job_id, 10)
            assert job.state.value == state
            # Observations are the calibrator's, never the client's.
            reply.pop("calibration_observations", None)
            assert response == reply
        crashed = server.submit({"raise": "the pool itself failed"})
        assert server.result(crashed.job_id, 10) == {
            "status": "error", "kind": "RuntimeError",
            "error": "the pool itself failed", "job_id": crashed.job_id}
        counters = server.metrics.snapshot()["counters"]
        assert (counters["server.jobs.done"], counters["server.jobs.failed"],
                counters["server.jobs.timeout"]) == (1, 2, 1)
        assert server.snapshot()["in_flight"] == 0   # the worker survived

    def test_what_a_shard_is_told(self, shard, make_server):
        server = make_server(workers=1, default_deadline_s=30.0,
                             tracing=False)
        job = server.submit({"n": 1})
        server.result(job.job_id, 10)
        call = shard.calls[0]
        assert call.job_id == job.job_id and call.document == {"n": 1}
        assert 29.0 < call.remaining_s <= 30.0
        assert call.tracer is NO_TRACER and call.observe is False
        # One slot: nothing to route, so no fingerprint is computed.
        assert (job.fingerprint, job.shard_slot) == (None, 0)
        # The out-of-band calls delegate to the same surface.
        assert server.warm({"n": 2}) == [{"status": "ok"}]
        warm = shard.calls[1]
        assert (warm.job_id, warm.remaining_s, warm.tracer) == (
            "warmup", None, NO_TRACER)
        assert server.publish_cost_params({"p": 1}) == 1
        assert shard.published == [{"p": 1}]
        # The shard's registry merges into the server's own.
        counters = server.metrics_snapshot()["counters"]
        assert (counters["fake"], counters["server.jobs.done"]) == (1, 1)
        assert server.snapshot()["shards"] == [
            {"slot": 0, "alive": True, "inflight": 0, "jobs_run": 2,
             "pid": None}]
        server.shutdown()
        assert shard.stopped

    def test_service_time_ewma_feeds_retry_after(self, shard, make_server):
        server = make_server(workers=1, queue_size=0)
        first = server.submit({})
        server.result(first.job_id, 10)
        second = server.submit({})
        server.result(second.job_id, 10)
        assert server._run_ewma == pytest.approx(
            0.8 * first.run_s + 0.2 * second.run_s)
        server.submit({"hold": True})
        self._wait_for_calls(shard, 3)
        rejected = server.submit({})
        assert rejected.response["retry_after_s"] == round(
            max(0.1, server._run_ewma * 2 / 1), 3)

    def test_terminal_jobs_are_evicted_oldest_first(self, shard, make_server,
                                                    monkeypatch):
        from repro.server import server as server_module
        monkeypatch.setattr(server_module, "MAX_TERMINAL_JOBS", 4)
        server = make_server(workers=1)
        ids = []
        for __ in range(10):
            job = server.submit({})
            server.result(job.job_id, 10)
            ids.append(job.job_id)
        assert server.snapshot()["states"] == {"done": 4}
        assert [server.status(i) is None for i in ids] == \
            [True] * 6 + [False] * 4
