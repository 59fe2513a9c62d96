"""The concurrency correctness pass: registry, ordered locks, checker.

Covers the three legs of the lock-order tooling:

* the registry itself (`repro.concurrency.order`) validates and resolves;
* `OrderedLock`/`OrderedRLock` assert rank order per thread under the
  debug flag and feed wait/hold histograms into a metrics registry;
* the static checker (`repro.analysis.locks`) flags the seeded fixture
  (`tests/fixtures/lock_inversion.py`) on every rule and passes the real
  tree clean — the same guarantee `python -m repro lint --concurrency`
  enforces in CI.
"""

import json
import threading
from pathlib import Path

import pytest

from repro import RheemContext
from repro.analysis.locks import check_package, check_source
from repro.concurrency import (
    LOCK_ORDER,
    LockOrderViolation,
    OrderedLock,
    OrderedRLock,
    UnknownLockError,
    debug_enabled,
    held_locks,
    lock_rank,
    lock_spec,
    render_order,
    validate_order,
)
from repro.concurrency.order import LockSpec
from repro.server import JobServer, make_wsgi_app
from repro.trace import MetricsRegistry

FIXTURE = Path(__file__).parent / "fixtures" / "lock_inversion.py"


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_declared_order_is_valid(self):
        validate_order()  # raises on any inconsistency

    def test_ranks_strictly_increase(self):
        ranks = [spec.rank for spec in LOCK_ORDER]
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)

    def test_lookup_and_unknown(self):
        assert lock_spec("metrics").rank == lock_rank("metrics")
        with pytest.raises(UnknownLockError):
            lock_spec("no-such-lock")

    def test_render_mentions_every_lock(self):
        table = render_order()
        for spec in LOCK_ORDER:
            assert spec.name in table

    def test_validate_rejects_bad_registries(self):
        dup = (LockSpec("a", 1, "lock", ()), LockSpec("a", 2, "lock", ()))
        with pytest.raises(ValueError):
            validate_order(dup)
        unsorted_ = (LockSpec("a", 2, "lock", ()),
                     LockSpec("b", 1, "lock", ()))
        with pytest.raises(ValueError):
            validate_order(unsorted_)


# ------------------------------------------------------------ ordered locks
class TestOrderedLockRuntime:
    def test_debug_flag_is_on_in_tests(self):
        assert debug_enabled()

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            OrderedLock("plan_cache")  # declared rlock
        with pytest.raises(TypeError):
            OrderedRLock("metrics")  # declared lock
        with pytest.raises(UnknownLockError):
            OrderedLock("not-in-registry")

    def test_correct_order_passes_and_tracks(self):
        outer = OrderedLock("server.jobs")
        inner = OrderedLock("metrics")
        with outer:
            assert held_locks() == ["server.jobs"]
            with inner:
                assert held_locks() == ["server.jobs", "metrics"]
        assert held_locks() == []

    def test_inversion_raises_and_leaves_lock_free(self):
        outer = OrderedLock("server.jobs")
        inner = OrderedLock("metrics")
        with inner:
            with pytest.raises(LockOrderViolation):
                outer.acquire()
        # The failed acquire never touched the underlying lock.
        assert not outer.locked()
        with outer:
            pass  # still usable

    def test_equal_rank_raises_for_plain_lock(self):
        a = OrderedLock("context.publish")
        b = OrderedLock("context.publish")
        with a:
            with pytest.raises(LockOrderViolation):
                b.acquire()

    def test_rlock_reentry_is_exempt(self):
        lock = OrderedRLock("plan_cache")
        with lock:
            with lock:  # same object: legal, like threading.RLock
                assert held_locks().count("plan_cache") == 2

    def test_histograms_record_wait_and_hold(self):
        metrics = MetricsRegistry()
        lock = OrderedLock("tracer.spans", metrics)
        with lock:
            pass
        snap = metrics.snapshot()["histograms"]
        assert snap["lock.wait_s.tracer.spans"]["count"] == 1
        assert snap["lock.hold_s.tracer.spans"]["count"] == 1

    def test_violation_escapes_lane_threads(self):
        # A rank inversion on a worker thread must surface, not deadlock.
        inner = OrderedLock("metrics")
        outer = OrderedLock("server.jobs")
        caught = []

        def lane():
            with inner:
                try:
                    outer.acquire()
                except LockOrderViolation as exc:
                    caught.append(exc)

        thread = threading.Thread(target=lane)
        thread.start()
        thread.join(5)
        assert caught


# ----------------------------------------------------------- static checker
class TestStaticChecker:
    def test_tree_passes_clean(self):
        assert check_package() == []

    def test_fixture_is_fully_flagged(self):
        # Checked under the server module name so the registry's owner
        # and guard declarations apply to the shadowed JobServer class.
        findings = check_source(FIXTURE.read_text(),
                                module="repro.server.server",
                                path=str(FIXTURE))
        rules = {f.rule_id for f in findings}
        assert rules == {"RC001", "RC002", "RC003", "RC004"}

    def test_call_edge_inversion_is_found(self):
        src = (
            "from repro.concurrency import OrderedLock\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self.low = OrderedLock('server.jobs')\n"
            "        self.high = OrderedLock('metrics')\n"
            "    def helper(self):\n"
            "        with self.low:\n"
            "            pass\n"
            "    def entry(self):\n"
            "        with self.high:\n"
            "            self.helper()\n")
        findings = check_source(src)
        assert any(f.rule_id == "RC002" for f in findings)

    def test_waiver_comment_suppresses(self):
        src = (
            "from repro.concurrency import OrderedLock\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self.lock = OrderedLock('server.jobs')\n"
            "    def run(self, fut):\n"
            "        with self.lock:\n"
            "            # lock-ok: test waiver\n"
            "            fut.result()\n")
        assert check_source(src) == []

    def test_exec_hot_path_state_write_is_flagged(self):
        # RC005: cached plans share operator instances across loop
        # iterations and concurrent jobs; per-run values must be threaded
        # through the call, never stored on self.
        src = (
            "class MyOp(ExecutionOperator):\n"
            "    def _run(self, inputs, bvals, ctx):\n"
            "        self.invocations = self.invocations + 1\n"
            "        return inputs[0]\n")
        findings = check_source(src)
        assert any(f.rule_id == "RC005" for f in findings)

    def test_exec_hot_path_mutator_call_is_flagged(self):
        src = (
            "class Base(ExecutionOperator):\n"
            "    pass\n"
            "class Leaf(Base):\n"
            "    def execute(self, inputs, broadcasts, ctx):\n"
            "        self.seen.append(inputs)\n"
            "        return inputs[0]\n")
        findings = check_source(src)
        assert any(f.rule_id == "RC005" and "Leaf" in f.message
                   for f in findings)

    def test_non_operator_hot_path_writes_pass(self):
        src = (
            "class Visitor:\n"
            "    def _run(self, inputs, bvals, ctx):\n"
            "        self.count = 1\n"
            "        return inputs[0]\n")
        assert not any(f.rule_id == "RC005" for f in check_source(src))

    def test_operator_writes_outside_hot_paths_pass(self):
        src = (
            "class MyOp(ExecutionOperator):\n"
            "    def __init__(self, logical):\n"
            "        self.logical = logical\n"
            "    def helper(self):\n"
            "        self.cache = {}\n")
        assert not any(f.rule_id == "RC005" for f in check_source(src))

    def test_rc005_waiver_comment_suppresses(self):
        src = (
            "class MyOp(ExecutionOperator):\n"
            "    def _run(self, inputs, bvals, ctx):\n"
            "        # lock-ok: test waiver\n"
            "        self.invocations = 1\n"
            "        return inputs[0]\n")
        assert not any(f.rule_id == "RC005" for f in check_source(src))

    def test_runtime_catches_the_same_fixture(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "lock_inversion_fixture", FIXTURE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with pytest.raises(LockOrderViolation):
            module.Inverted().inverted_acquire()


# -------------------------------------------------- instrumented job server
class TestServerContention:
    def test_lock_histograms_reach_metrics_endpoint(self):
        ctx = RheemContext()
        ctx.vfs.write("hdfs://srv/c.txt", ["a b", "b"], sim_factor=10.0)
        doc = {
            "operators": [
                {"name": "lines", "kind": "textfile_source",
                 "path": "hdfs://srv/c.txt"},
                {"name": "words", "kind": "flatmap", "input": "lines",
                 "expr": "x.split()"},
            ],
            "sink": {"name": "words"},
        }
        with JobServer(ctx, workers=2) as server:
            response = server.submit_sync(doc)
            assert response["status"] == "ok"
            app = make_wsgi_app(server)
            captured = {}

            def start_response(status, headers):
                captured["status"] = status

            chunks = app({"REQUEST_METHOD": "GET", "PATH_INFO": "/metrics",
                          "QUERY_STRING": ""}, start_response)
            payload = json.loads(b"".join(chunks))
        assert captured["status"] == "200 OK"
        hists = payload["histograms"]
        assert hists["lock.wait_s.server.jobs"]["count"] > 0
        assert hists["lock.hold_s.server.jobs"]["count"] > 0
        assert hists["lock.hold_s.server.jobs"]["max"] >= 0.0
