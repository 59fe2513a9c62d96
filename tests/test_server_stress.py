"""Stress tests for the concurrent job server: N workers x M jobs
hammering one serving layer.

Three properties are asserted over an 8-worker x 40-job mixed run:

* **span isolation** — every job's REST response carries exactly its own
  trace (one ``executor.run`` root; span counts matching a sequential
  run of the same document);
* **determinism** — each job's output is bit-for-bit identical to the
  same document executed sequentially on a fresh context, and a second
  concurrent run reproduces the first (unique per-job payloads make any
  cross-job contamination show up in the outputs);
* **shared-state consistency** — the caches each shard's jobs share
  serve every job (hits + misses add up, sticky routing bounds cold
  misses) and the per-state counters account for every submission.

``REPRO_STRESS_BACKEND`` selects the server backend (``thread``, the
default — in-process shards — or ``process``); either way every worker
shard owns a context built by the same factory, and state is asserted
through the merged ``/metrics`` snapshot.  The CI ``stress`` job runs
this file once per backend with ``PYTHONHASHSEED`` pinned.
"""

import faulthandler
import json
import os
import sys

import pytest

from repro import RheemContext
from repro.api import RheemService
from repro.server import JobServer, JobState

WORKERS = 8
JOBS = 40

#: Which JobServer backend this run stresses (CI matrixes over both).
BACKEND = os.environ.get("REPRO_STRESS_BACKEND", "thread")

#: Per-test deadlock watchdog budget (seconds).  Generous — the whole
#: module runs in well under a minute — so it only ever fires on a hang.
WATCHDOG_S = float(os.environ.get("REPRO_STRESS_WATCHDOG_S", "120"))


@pytest.fixture(autouse=True)
def _deadlock_watchdog():
    """Dump every thread's stack if a test wedges, instead of letting CI
    time the whole job out silently.

    ``faulthandler.dump_traceback_later`` fires from a watchdog thread
    after ``WATCHDOG_S`` seconds with ``exit=True``: the process dies
    with all stacks on stderr, which is exactly the evidence a deadlock
    post-mortem needs.  Each test re-arms the timer; finishing cancels
    it.
    """
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _aggressive_thread_switching():
    """Force frequent GIL handoffs so interleavings actually happen."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    yield
    sys.setswitchinterval(previous)


def _make_context() -> RheemContext:
    ctx = RheemContext()
    ctx.vfs.write("hdfs://stress/corpus.txt",
                  ["to be or not to be", "that is the question"] * 10,
                  sim_factor=50.0)
    return ctx


def _wordcount_doc(i: int) -> dict:
    # Shared shape: repeated submissions hit their home shard's caches.
    return {
        "operators": [
            {"name": "lines", "kind": "textfile_source",
             "path": "hdfs://stress/corpus.txt"},
            {"name": "words", "kind": "flatmap", "input": "lines",
             "expr": "x.split()"},
            {"name": "pairs", "kind": "map", "input": "words",
             "expr": "(x, 1)"},
            {"name": "counts", "kind": "reduceby", "input": "pairs",
             "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"},
        ],
        "sink": {"name": "counts"},
    }


def _grouping_doc(i: int) -> dict:
    # Unique payload per job: a swapped or mixed-up channel would surface
    # as another job's numbers in this job's output.
    return {
        "operators": [
            {"name": "src", "kind": "collection_source",
             "data": list(range(i * 100, i * 100 + 24))},
            {"name": "keyed", "kind": "map", "input": "src",
             "expr": "(x % 5, x)"},
            {"name": "grouped", "kind": "reduceby", "input": "keyed",
             "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"},
        ],
        "sink": {"name": "grouped"},
    }


def _join_doc(i: int) -> dict:
    # Unique two-source join per job: exercises channel conversions and
    # the Steiner memo tables concurrently.
    left = [[k, k + i] for k in range(8)]
    right = [[k, k * i] for k in range(0, 8, 2)]
    return {
        "operators": [
            {"name": "left", "kind": "collection_source", "data": left},
            {"name": "right", "kind": "collection_source", "data": right},
            {"name": "joined", "kind": "join", "left": "left",
             "right": "right", "left_key": "x[0]", "right_key": "x[0]"},
            {"name": "flat", "kind": "map", "input": "joined",
             "expr": "(x[0][0], x[0][1] + x[1][1])"},
        ],
        "sink": {"name": "flat"},
    }


_SHAPES = (_wordcount_doc, _grouping_doc, _join_doc)


def _mixed_documents(count: int) -> list[dict]:
    return [_SHAPES[i % len(_SHAPES)](i) for i in range(count)]


def _canonical(output) -> str:
    return json.dumps(output, sort_keys=True)


def _count_spans(spans: list[dict], name: str) -> int:
    return sum((span["name"] == name)
               + _count_spans(span["children"], name) for span in spans)


def _run_sequential(documents: list[dict]) -> list[dict]:
    service = RheemService(_make_context())
    return [service.submit(doc) for doc in documents]


def _run_concurrent(documents: list[dict]) -> tuple[JobServer, list[dict]]:
    server = JobServer(workers=WORKERS, queue_size=len(documents),
                       backend=BACKEND, context_factory=_make_context)
    with server:
        handles = [server.submit(doc) for doc in documents]
        responses = [server.result(h.job_id, timeout=120) for h in handles]
    assert all(h.state is JobState.DONE for h in handles), \
        [(h.job_id, h.state) for h in handles]
    return server, responses


def test_stress_outputs_match_sequential_bit_for_bit():
    documents = _mixed_documents(JOBS)
    expected = _run_sequential(documents)
    assert all(r["status"] == "ok" for r in expected)
    server, responses = _run_concurrent(documents)
    for i, (response, reference) in enumerate(zip(responses, expected)):
        assert response["status"] == "ok", (i, response)
        assert _canonical(response["output"]) == \
            _canonical(reference["output"]), \
            f"job {i} output diverged from its sequential run"
        # Same platforms chosen under concurrency as sequentially — the
        # plan caches replayed, they did not cross wires.
        assert response["platforms"] == reference["platforms"], i


def test_stress_span_isolation():
    documents = _mixed_documents(JOBS)
    expected = _run_sequential(documents)
    __, responses = _run_concurrent(documents)
    for i, (response, reference) in enumerate(zip(responses, expected)):
        spans = response["trace"]["spans"]
        assert spans, f"job {i} returned no spans"
        # Exactly this job's execution — never zero (lost trace) and
        # never more than one (another job's spans bled in).
        assert _count_spans(spans, "executor.run") == 1, i
        # ... and exactly as many committed stages as the sequential run
        # of the same document produced.
        assert _count_spans(spans, "executor.run") == _count_spans(
            reference["trace"]["spans"], "executor.run")
        seq_stages = sum(
            s["name"].startswith("stage:")
            for root in reference["trace"]["spans"]
            for s in _walk(root))
        conc_stages = sum(
            s["name"].startswith("stage:")
            for root in spans for s in _walk(root))
        assert conc_stages == seq_stages, \
            f"job {i}: {conc_stages} stage spans vs {seq_stages} sequential"


def _walk(span: dict):
    yield span
    for child in span["children"]:
        yield from _walk(child)


def test_stress_shared_state_stays_consistent():
    documents = _mixed_documents(JOBS)
    server, responses = _run_concurrent(documents)

    # The caching state lives inside the worker shards; assert it
    # through the merged metrics.  Every job either hit some shard's
    # intermediate-result store or performed exactly one plan-cache
    # lookup on the shard it ran on.
    merged = server.metrics_snapshot()["counters"]
    lookups = merged.get("plan_cache.hits", 0) + \
        merged.get("plan_cache.misses", 0)
    assert lookups <= JOBS
    assert merged.get("intermediate.hits", 0) >= JOBS - lookups
    # Sticky routing bounds cold misses: every unique document costs
    # one miss on its home shard, and the one repeated shape
    # (wordcount) can at worst spill cold onto each further shard
    # once.  Without stickiness, repeats would miss on every
    # resubmission and blow through this bound.
    unique = len({json.dumps(d, sort_keys=True) for d in documents})
    assert merged.get("plan_cache.misses", 0) <= unique + WORKERS - 1

    # Server accounting: every admitted job is done, nothing lingers.
    counters = server.metrics.snapshot()["counters"]
    assert counters["server.jobs.submitted"] == JOBS
    assert counters["server.jobs.done"] == JOBS
    assert counters.get("server.jobs.failed", 0) == 0
    assert counters.get("server.jobs.rejected", 0) == 0
    occupancy = server.snapshot()
    assert occupancy["queue_depth"] == 0
    assert occupancy["in_flight"] == 0
    assert occupancy["states"] == {"done": JOBS}
    histograms = server.metrics.snapshot()["histograms"]
    assert histograms["server.wait_s"]["count"] == JOBS
    assert histograms["server.run_s"]["count"] == JOBS


def test_stress_is_reproducible_across_runs():
    documents = _mixed_documents(JOBS)
    __, first = _run_concurrent(documents)
    __, second = _run_concurrent(documents)
    assert [_canonical(r["output"]) for r in first] == \
        [_canonical(r["output"]) for r in second]
