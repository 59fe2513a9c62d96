"""The concurrency correctness pass: registry, ordered locks, checker.

Covers the three legs of the lock-order tooling:

* the registry itself (`repro.concurrency.order`) validates and resolves;
* `OrderedLock` asserts rank order per thread under the debug flag and
  feeds wait/hold histograms into a metrics registry — the seeded
  inversion in `tests/fixtures/lock_inversion.py` raises here;
* the static checker (`repro.analysis.locks`) flags the fixture's raw
  lock (RC001) and per-run state written on re-executed execution
  operators (RC005), and passes the real tree clean — the same guarantee
  `python -m repro lint --concurrency` enforces in CI.
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
    UnknownLockError,
    debug_enabled,
    held_locks,
    lock_spec,
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
        assert lock_spec("metrics") == LOCK_ORDER[-1]
        with pytest.raises(UnknownLockError):
            lock_spec("no-such-lock")
        with pytest.raises(UnknownLockError):
            OrderedLock("not-in-registry")

    def test_validate_rejects_bad_registries(self):
        dup = (LockSpec("a", 1), LockSpec("a", 2))
        with pytest.raises(ValueError):
            validate_order(dup)
        unsorted_ = (LockSpec("a", 2), LockSpec("b", 1))
        with pytest.raises(ValueError):
            validate_order(unsorted_)

    def test_no_lock_guards_a_context(self):
        # A context runs one job at a time (its shard's lock is the
        # critical section), so nothing inside it is registered.
        assert [spec.name for spec in LOCK_ORDER] == [
            "server.jobs", "server.pool", "server.shard",
            "calibration.corpus", "metrics"]


# ------------------------------------------------------------ ordered locks
class TestOrderedLockRuntime:
    def test_debug_flag_is_on_in_tests(self):
        assert debug_enabled()

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
        # Two shards' locks share a rank: no thread may hold both.
        a = OrderedLock("server.shard")
        b = OrderedLock("server.shard")
        with a:
            with pytest.raises(LockOrderViolation):
                b.acquire()

    def test_histograms_record_wait_and_hold(self):
        metrics = MetricsRegistry()
        lock = OrderedLock("calibration.corpus", metrics)
        with lock:
            pass
        snap = metrics.snapshot()["histograms"]
        assert snap["lock.wait_s.calibration.corpus"]["count"] == 1
        assert snap["lock.hold_s.calibration.corpus"]["count"] == 1

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
        findings = check_source(FIXTURE.read_text(), path=str(FIXTURE))
        assert {f.rule_id for f in findings} == {"RC001"}

    def test_undeclared_locks_are_flagged(self):
        src = (
            "from repro.concurrency import OrderedLock\n"
            "A = OrderedLock('no-such-lock')\n"
            "B = OrderedLock(NAME)\n"
            "C = OrderedLock('plan_cache')\n"
            "D = OrderedLock('metrics')\n"
            "E = OrderedLock('server.jobs')\n")
        lines = [f.line for f in check_source(src) if f.rule_id == "RC001"]
        assert lines == [2, 3, 4]

    def test_exec_hot_path_state_write_is_flagged(self):
        # RC005: an operator instance re-executes across loop iterations,
        # retries and cached-plan replays; per-run values must be threaded
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
