"""Tests for the process-pool job-server backend: sticky routing,
cost-parameter broadcast, cross-process metrics aggregation, priority /
fair-share dispatch, backpressure hints — and the worker-kill scenario
(a shard killed mid-job must land the job in a terminal failed state,
release its slot, re-map its fingerprint and never double-publish
counters)."""

import functools
import json
import os
import signal
import threading
import time

import pytest

from repro import RheemContext
from repro.core.cost import OperatorCostParams
from repro.server import (
    AdmissionError,
    JobServer,
    JobState,
    ProcessShard,
    ShardDied,
    ShardPool,
    document_fingerprint,
)


def _doc(payload=0, marker="m"):
    """A small unique-payload document (distinct plans per payload)."""
    return {
        "operators": [
            {"name": "src", "kind": "collection_source",
             "data": [payload + k for k in range(6)]},
            {"name": marker, "kind": "map", "input": "src",
             "expr": "x * 2"},
        ],
        "sink": {"name": marker},
    }


SLEEP_DOC = {
    "operators": [
        {"name": "src", "kind": "collection_source", "data": [1, 2]},
        {"name": "slow", "kind": "map", "input": "src",
         "expr": "(__import__('time').sleep(0.2), x)[1]"},
    ],
    "sink": {"name": "slow"},
}

HANG_DOC = {
    "operators": [
        {"name": "src", "kind": "collection_source", "data": [1]},
        {"name": "hang", "kind": "map", "input": "src",
         "expr": "(__import__('time').sleep(60), x)[1]"},
    ],
    "sink": {"name": "hang"},
}


@pytest.fixture(scope="module")
def server():
    """One 3-shard process server shared by the read-only tests."""
    srv = JobServer(workers=3, backend="process", queue_size=16,
                    tracing=False)
    yield srv
    srv.shutdown()


class TestFingerprint:
    def test_stable_and_envelope_blind(self):
        doc = _doc(7)
        assert document_fingerprint(doc) == document_fingerprint(_doc(7))
        tagged = dict(doc, tenant="acme", priority=5)
        assert document_fingerprint(tagged) == document_fingerprint(doc)

    def test_distinct_plans_distinct_fingerprints(self):
        assert document_fingerprint(_doc(1)) != document_fingerprint(_doc(2))


class TestProcessBackend:
    def test_results_match_thread_backend_bit_for_bit(self, server):
        docs = [_doc(i * 100) for i in range(6)]
        with JobServer(RheemContext(), workers=2) as thread_server:
            expected = [thread_server.submit_sync(d, timeout=60)
                        for d in docs]
        actual = [server.submit_sync(d, timeout=60) for d in docs]
        for ref, got in zip(expected, actual):
            assert got["status"] == "ok"
            assert got["output"] == ref["output"]
            assert got["runtime"] == ref["runtime"]
            assert got["platforms"] == ref["platforms"]

    def test_sticky_routing_same_plan_same_shard(self, server):
        doc = _doc(4200)
        jobs = []
        for __ in range(4):  # sequential: the home shard is always idle
            job = server.submit(doc)
            server.result(job.job_id, timeout=60)
            jobs.append(job)
        slots = {job.shard_slot for job in jobs}
        assert len(slots) == 1, f"sticky plan bounced across {slots}"

    def test_publish_broadcast_reaches_every_shard(self, server):
        # Publish a genuinely new parameter: republishing the params a
        # shard already holds is a version-stable no-op.
        params = RheemContext().cost_params_snapshot()
        params["pystreams.map"] = OperatorCostParams(alpha=1.5)
        assert server.publish_cost_params(params) == 3
        # The broadcast must not disturb serving.
        assert server.submit_sync(_doc(7), timeout=60)["status"] == "ok"

    def test_metrics_aggregate_across_processes(self, server):
        before = server.metrics_snapshot()
        docs = [_doc(i * 1000, marker="agg") for i in range(4)]
        for doc in docs:
            assert server.submit_sync(doc, timeout=60)["status"] == "ok"
        after = server.metrics_snapshot()
        assert set(after) == {"counters", "gauges", "histograms"}
        # Parent-side admission counters and shard-side optimizer
        # counters land in ONE merged view, in the single-registry shape.
        done = after["counters"]["server.jobs.done"] - \
            before["counters"].get("server.jobs.done", 0)
        assert done == len(docs)
        misses = after["counters"].get("plan_cache.misses", 0) - \
            before["counters"].get("plan_cache.misses", 0)
        assert misses >= len(docs)  # unique plans: one cold miss each
        run_hist = after["histograms"]["server.run_s"]
        assert run_hist["count"] >= len(docs)
        assert run_hist["min"] <= run_hist["mean"] <= run_hist["max"]

    def test_status_reports_shard_slot(self, server):
        job = server.submit(_doc(31))
        server.result(job.job_id, timeout=60)
        status = server.status(job.job_id)
        assert status["state"] == "done"
        assert status["shard"] in (0, 1, 2)


class TestShardFailure:
    def test_killed_worker_mid_job_fails_terminally_and_remaps(self):
        server = JobServer(workers=2, backend="process", queue_size=8,
                           respawn_shards=False, tracing=False)
        try:
            victim_doc = HANG_DOC
            fingerprint = document_fingerprint(victim_doc)
            hanging = server.submit(victim_doc)
            deadline = time.monotonic() + 10
            while hanging.state is not JobState.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            time.sleep(0.2)  # let the dispatch reach the shard pipe
            counters_before = server.metrics.snapshot()["counters"]

            # Find the shard actually executing the hung job and kill it.
            victim_slot = hanging.shard_slot
            assert victim_slot is not None
            victim = [s for s in server._shards.live_shards()
                      if s.slot == victim_slot][0]
            os.kill(victim.process.pid, signal.SIGKILL)

            # The job lands terminal failed with a structured response.
            response = server.result(hanging.job_id, timeout=30)
            assert hanging.state is JobState.FAILED
            assert response["status"] == "error"
            assert response["kind"] == "ShardFailure"
            assert response["shard"] == victim_slot

            # The slot is released and retired (no respawn here).
            occupancy = server.snapshot()
            assert occupancy["in_flight"] == 0
            slots = {s["slot"]: s for s in occupancy["shards"]}
            assert slots[victim_slot]["alive"] is False
            assert slots[victim_slot]["inflight"] == 0

            # Failure counters were published exactly once.
            counters = server.metrics.snapshot()["counters"]
            assert counters["server.jobs.failed"] == \
                counters_before.get("server.jobs.failed", 0) + 1
            assert counters["server.shards.died"] == 1

            # Sticky routing re-maps the dead shard's fingerprint onto a
            # survivor and the same plan now executes fine.
            job = server.submit(_doc(1))  # any doc keeps serving
            assert server.result(job.job_id, timeout=60)["status"] == "ok"
            remapped = server.submit({**victim_doc, "operators": [
                dict(op, expr="x") if op.get("kind") == "map" else op
                for op in victim_doc["operators"]]})
            # Same operator/sink shape minus the hang: new fingerprint,
            # but the *original* fingerprint's home must also resolve to
            # the surviving shard now.
            survivor = server._shards.pick(fingerprint)
            server._shards.release(survivor)
            assert survivor.slot != victim_slot
            assert server.result(remapped.job_id, timeout=60)[
                "status"] == "ok"
        finally:
            server.shutdown()

    def test_respawn_replaces_dead_shard(self):
        server = JobServer(workers=2, backend="process", queue_size=8,
                           tracing=False)  # respawn on (default)
        try:
            hanging = server.submit(HANG_DOC)
            deadline = time.monotonic() + 10
            while hanging.state is not JobState.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.2)
            victim_slot = hanging.shard_slot
            victim = [s for s in server._shards.live_shards()
                      if s.slot == victim_slot][0]
            os.kill(victim.process.pid, signal.SIGKILL)
            assert server.result(hanging.job_id, timeout=30)[
                "kind"] == "ShardFailure"
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                slots = {s["slot"]: s for s in server.snapshot()["shards"]}
                if slots[victim_slot]["alive"]:
                    break
                time.sleep(0.05)
            assert slots[victim_slot]["alive"] is True, \
                "dead shard was never respawned"
            # The replacement serves jobs (its caches warm on demand).
            assert server.submit_sync(_doc(5), timeout=60)["status"] == "ok"
            counters = server.metrics.snapshot()["counters"]
            assert counters["server.shards.died"] == 1
        finally:
            server.shutdown()

    def test_hard_deadline_kills_a_stage_that_never_ends(self):
        # One stage, 60 s long: no stage boundary for the cooperative
        # check to fire at, so only the parent process can end it (with
        # cooperative deadlines alone the job answered ``done`` after
        # the full sleep and held its shard throughout).
        server = JobServer(workers=1, backend="process", queue_size=4,
                           tracing=False)
        try:
            assert server.submit_sync(_doc(1), timeout=60)["status"] == "ok"
            started = time.monotonic()
            hanging = server.submit(HANG_DOC, deadline_s=0.3)
            response = server.result(hanging.job_id, timeout=30)
            assert time.monotonic() - started < 10
            assert hanging.state is JobState.TIMEOUT
            assert response["status"] == "error"
            assert response["kind"] == "Timeout"      # HTTP 408
            assert response["job_id"] == hanging.job_id
            occupancy = server.snapshot()
            assert occupancy["in_flight"] == 0
            assert occupancy["shards"][0]["inflight"] == 0
            counters = server.metrics.snapshot()["counters"]
            assert counters["server.shards.died"] == 1
            assert counters["server.jobs.timeout"] == 1
            # The slot was respawned: the next job lands on it and runs.
            job = server.submit(_doc(2))
            assert server.result(job.job_id, timeout=60)["status"] == "ok"
            assert job.shard_slot == hanging.shard_slot == 0
        finally:
            server.shutdown()

    def test_cooperative_cancellation_goes_first(self):
        # A stage 0.3 s long with another one after it: the worker notices
        # the deadline itself at that boundary, well inside the grace
        # period, and keeps its process.
        server = JobServer(workers=1, backend="process", tracing=False,
                           env={"nap": lambda x: (time.sleep(0.05), x)[1]})
        slow = _doc(3)
        slow["operators"][1].update(expr="nap(x) * 2", platform="Spark")
        try:
            job = server.submit(slow, deadline_s=0.001)
            assert server.result(job.job_id, timeout=30)["kind"] == "Timeout"
            assert job.state is JobState.TIMEOUT
            pid = server.snapshot()["shards"][0]["pid"]
            assert server.submit_sync(_doc(4), timeout=60)["status"] == "ok"
            assert server.snapshot()["shards"][0]["pid"] == pid
            assert "server.shards.died" not in \
                server.metrics.snapshot()["counters"]
        finally:
            server.shutdown()

    def test_pool_raises_when_no_shards_left(self):
        pool = ShardPool(functools.partial(ProcessShard.spawn,
                                           context_factory=RheemContext),
                         shards=1, respawn=False)
        try:
            shard = pool.live_shards()[0]
            os.kill(shard.process.pid, signal.SIGKILL)
            shard.process.join(timeout=10)
            with pytest.raises(ShardDied):
                shard.call("ping")
            pool.handle_failure(shard)
            with pytest.raises(ShardDied):
                pool.pick(document_fingerprint(_doc(0)))
        finally:
            pool.shutdown()


class TestFairShareDispatch:
    def test_priority_jobs_overtake_fifo(self):
        gate = threading.Event()
        gated = {
            "operators": [
                {"name": "src", "kind": "collection_source", "data": [1]},
                {"name": "hold", "kind": "map", "input": "src",
                 "expr": "(gate.wait(30), x)[1]"},
            ],
            "sink": {"name": "hold"},
        }
        server = JobServer(RheemContext(), env={"gate": gate}, workers=1,
                           queue_size=8)
        try:
            blocker = server.submit(gated)
            low = [server.submit(_doc(i), priority=0) for i in range(3)]
            high = server.submit(_doc(99), priority=5)
            gate.set()
            for job in [blocker, high, *low]:
                server.result(job.job_id, timeout=60)
            order = sorted(
                [high, *low], key=lambda j: j.started_at)
            assert order[0] is high, \
                "priority-5 job did not overtake the FIFO backlog"
        finally:
            server.shutdown()

    def test_tenant_quota_is_fair_share_not_rejection(self):
        gate = threading.Event()
        gated = {
            "operators": [
                {"name": "src", "kind": "collection_source", "data": [1]},
                {"name": "hold", "kind": "map", "input": "src",
                 "expr": "(gate.wait(30), x)[1]"},
            ],
            "sink": {"name": "hold"},
        }
        # Two contexts, so a second tenant's job can run beside A's.
        server = JobServer(env={"gate": gate}, workers=2,
                           queue_size=16, tenant_quota=1)
        try:
            # Tenant A fills its quota and queues two more; tenant B
            # arrives later but must not starve behind A's backlog.
            a_jobs = [server.submit(gated, tenant="a") for __ in range(3)]
            deadline = time.monotonic() + 10
            while a_jobs[0].state is not JobState.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # Quota 1: only ONE of tenant A's jobs may run at once even
            # with a second worker idle.
            time.sleep(0.2)
            assert sum(j.state is JobState.RUNNING for j in a_jobs) == 1
            b_job = server.submit(gated, tenant="b")
            deadline = time.monotonic() + 10
            while b_job.state is not JobState.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # B overtook A's queued backlog; nothing was rejected.
            assert a_jobs[1].state is JobState.QUEUED
            gate.set()
            for job in [*a_jobs, b_job]:
                assert server.result(job.job_id, timeout=60)[
                    "status"] == "ok"
            assert server.snapshot()["tenants_running"] == {}
        finally:
            server.shutdown()


class TestBackpressure:
    def test_queue_full_carries_depth_and_retry_after(self):
        gate = threading.Event()
        gated = {
            "operators": [
                {"name": "src", "kind": "collection_source", "data": [1]},
                {"name": "hold", "kind": "map", "input": "src",
                 "expr": "(gate.wait(30), x)[1]"},
            ],
            "sink": {"name": "hold"},
        }
        server = JobServer(RheemContext(), env={"gate": gate}, workers=1,
                           queue_size=1)
        try:
            # Seed the service-time EWMA with one finished job.
            assert server.submit_sync(SLEEP_DOC, timeout=60)[
                "status"] == "ok"
            server.submit(gated)
            server.submit(gated)
            with pytest.raises(AdmissionError) as err:
                server.submit_sync(gated)
            response = err.value.response
            assert response["code"] == 429
            assert response["kind"] == "QueueFull"
            assert response["queue_depth"] + response["in_flight"] == 2
            # The hint derives from the measured EWMA: at least the
            # ~0.2 s the seeded job took, scaled by the backlog, and
            # never the un-seeded 1 s fallback exactly.
            assert response["retry_after_s"] >= 0.2 * 3 / 1 * 0.5
            # The body carries the estimate rounded to milliseconds.
            assert response["retry_after_s"] == pytest.approx(
                server._run_ewma * 3, abs=1e-3)
        finally:
            gate.set()
            server.shutdown()

    def test_retry_after_falls_back_before_first_completion(self):
        gate = threading.Event()
        gated = {
            "operators": [
                {"name": "src", "kind": "collection_source", "data": [1]},
                {"name": "hold", "kind": "map", "input": "src",
                 "expr": "(gate.wait(30), x)[1]"},
            ],
            "sink": {"name": "hold"},
        }
        server = JobServer(RheemContext(), env={"gate": gate}, workers=1,
                           queue_size=0)
        try:
            server.submit(gated)
            with pytest.raises(AdmissionError) as err:
                server.submit_sync(gated)
            assert err.value.response["retry_after_s"] == 1.0
        finally:
            gate.set()
            server.shutdown()

    def test_wsgi_429_sets_retry_after_header(self):
        import io

        from repro.server import make_wsgi_app

        gate = threading.Event()
        gated = {
            "operators": [
                {"name": "src", "kind": "collection_source", "data": [1]},
                {"name": "hold", "kind": "map", "input": "src",
                 "expr": "(gate.wait(30), x)[1]"},
            ],
            "sink": {"name": "hold"},
        }
        server = JobServer(RheemContext(), env={"gate": gate}, workers=1,
                           queue_size=0)
        app = make_wsgi_app(server)
        captured = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = dict(headers)

        try:
            server.submit(gated)
            body = json.dumps(gated).encode()
            environ = {
                "REQUEST_METHOD": "POST", "PATH_INFO": "/jobs",
                "CONTENT_LENGTH": str(len(body)),
                "wsgi.input": io.BytesIO(body),
            }
            payload = json.loads(b"".join(app(environ, start_response)))
            assert captured["status"].startswith("429")
            assert payload["kind"] == "QueueFull"
            assert "queue_depth" in payload and "retry_after_s" in payload
            header = int(captured["headers"]["Retry-After"])
            assert header >= 1
            assert header == max(1, round(payload["retry_after_s"]))
        finally:
            gate.set()
            server.shutdown()
