"""Tests for the concurrent job server: admission control, job lifecycle,
deadlines/cancellation, drain, the WSGI front end — and the regression
test that a failed job never leaks its tracer onto the shared context."""

import io
import json
import threading
import time

import pytest

from repro import RheemContext
from repro.api import RheemService
from repro.core.executor import JobCancelled
from repro.server import AdmissionError, JobServer, JobState, make_wsgi_app
from repro.trace import NO_TRACER

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


def _ctx(**config):
    ctx = RheemContext(config=config or None)
    ctx.vfs.write("hdfs://srv/x.txt", ["a b", "b"], sim_factor=10.0)
    return ctx


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
    def test_done_job_status_and_result(self):
        with JobServer(_ctx(), workers=2) as server:
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

    def test_failed_job_state(self):
        with JobServer(_ctx(), workers=1) as server:
            response = server.submit_sync(BAD_DOC)
        assert response["status"] == "error"
        assert server.metrics.snapshot()["counters"]["server.jobs.failed"] == 1

    def test_unknown_job_id(self):
        server = JobServer(_ctx(), workers=1)
        assert server.status("job-999") is None
        with pytest.raises(KeyError):
            server.result("job-999")
        server.shutdown()

    def test_drain_runs_queued_jobs(self):
        server = JobServer(_ctx(), workers=1, queue_size=8)
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
        with JobServer(RheemContext(), env={"gate": gate}, workers=2,
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
        # Every stage dwells 50 ms of wall time; a 1 ms deadline must fire
        # at the next stage boundary.
        ctx = _ctx(stage_wall_s=0.05)
        with JobServer(ctx, workers=1, queue_size=4) as server:
            before = dict(ctx.plan_cache.stats)
            job = server.submit(WORDCOUNT_DOC, deadline_s=0.001)
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
            ok = server.submit_sync(WORDCOUNT_DOC, deadline_s=60)
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

    def test_sync_roundtrip_and_status_codes(self):
        with JobServer(_ctx(), workers=2) as server:
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

    def test_async_submit_then_poll(self):
        with JobServer(_ctx(), workers=2) as server:
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

    def test_shutdown_maps_to_503_and_timeout_to_408(self):
        ctx = _ctx(stage_wall_s=0.05)
        server = JobServer(ctx, workers=1)
        app = make_wsgi_app(server)
        body = json.dumps(WORDCOUNT_DOC).encode()
        status, payload = self._call(app, body=body, qs="deadline_s=0.001")
        assert status.startswith("408")
        assert payload["kind"] == "Timeout"
        server.shutdown(drain=True)
        status, payload = self._call(app, body=body)
        assert status.startswith("503")
