"""Concurrent stage scheduler: ready-set dispatch with ordered commits.

The executor cuts a plan into stages whose *list order is a valid
topological order* (``ExecutionPlan.build_stages``).  This module
overlaps the wall-clock cost of independent stages — each stage's
compute phase (operator execution against buffered scratch state, plus
the ``stage_wall_s`` driver-to-platform dwell) runs on a bounded pool of
worker lanes — while keeping every *observable effect* of the job
bit-for-bit identical to a serial run.  The trick is splitting each
stage into two phases:

* **compute** runs on a lane and touches only scratch state; it receives
  its producers' buffered outcomes, so a stage becomes *ready* the
  moment every producer has **computed** — it does not wait for the
  commit cursor to catch up (a slow unrelated stage earlier in the list
  must not serialize an independent chain);
* **commit** applies the buffered outcome to the shared job state.

Commits are applied by the driver thread strictly in stage-list order
(a commit *cursor*).  Because the commit order is the serial execution
order, monitor observation order, sniffer delivery order,
conversion-cache contents, checkpoint barriers and the simulated
critical path are all deterministic regardless of how computes
interleave.

Failure semantics: an exception raised by a stage's compute (for
example :class:`~repro.core.faults.PlatformFailure` after the retry
bound) is re-raised at that stage's cursor position — after every
earlier stage has committed and none later has.  Its dependents never
become ready (a failed compute releases nothing), so they are never
dispatched; already-running lanes are drained before the exception
propagates, and their buffered outcomes are discarded.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..concurrency import OrderedLock
from ..trace import MetricsRegistry


class StageScheduler:
    """Dispatches ready stages onto lanes; commits in stage-list order.

    Args:
        stages: Stages in a valid topological (list) order; each needs an
            ``id`` attribute.
        dependencies: Map of stage id -> ids of the stages it depends on.
            Ids not present in ``stages`` are ignored.
        parallelism: Number of concurrent compute lanes (>= 1).  With one
            lane the scheduler runs everything inline on the calling
            thread — byte-identical to the historical serial loop.
        compute: ``(index, stage, lane, producers) -> outcome``; runs on
            a lane and must only touch scratch state.  ``producers`` is
            the list of the stage's producers' outcomes in stage-list
            order (committed or not).  May raise.
        commit: ``(index, stage, outcome) -> None``; runs on the calling
            (driver) thread, in stage-list order.  May raise (checkpoint
            pauses, cancellation) — no later stage will commit.
        metrics: Registry for the ``executor.ready_stages`` /
            ``executor.inflight_stages`` gauges (optional).
    """

    def __init__(
        self,
        stages: Sequence[Any],
        dependencies: Mapping[str, Iterable[str]],
        parallelism: int,
        compute: Callable[[int, Any, int, Sequence[Any]], Any],
        commit: Callable[[int, Any, Any], None],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.stages = list(stages)
        self.parallelism = max(1, int(parallelism))
        self.compute = compute
        self.commit = commit
        self.metrics = metrics
        index_of = {stage.id: i for i, stage in enumerate(self.stages)}
        self._pending: list[int] = []
        self._deps: list[list[int]] = []
        self._dependents: list[list[int]] = [[] for _ in self.stages]
        for i, stage in enumerate(self.stages):
            deps = sorted({index_of[d] for d in dependencies.get(stage.id, ())
                           if d in index_of})
            self._pending.append(len(deps))
            self._deps.append(deps)
            for dep in deps:
                self._dependents[dep].append(i)

    # ------------------------------------------------------------- helpers
    def _set_gauges(self, ready: int, inflight: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge("executor.ready_stages").set(ready)
            self.metrics.gauge("executor.inflight_stages").set(inflight)

    def _release(self, ready: list[int], index: int) -> None:
        """Push dependents of a computed stage that became ready."""
        for dep in self._dependents[index]:
            self._pending[dep] -= 1
            if not self._pending[dep]:
                heapq.heappush(ready, dep)

    # ----------------------------------------------------------------- run
    def run(self) -> None:
        if not self.stages:
            return
        if self.parallelism == 1:
            self._run_serial()
        else:
            self._run_parallel()
        self._set_gauges(0, 0)

    def _run_serial(self) -> None:
        # Min-index ready-set dispatch degenerates to exact list order:
        # when the cursor reaches stage k, stages 0..k-1 have committed,
        # so k is the lowest ready index.
        ready = [i for i, pending in enumerate(self._pending) if not pending]
        heapq.heapify(ready)
        outcomes: dict[int, Any] = {}
        for _ in range(len(self.stages)):
            index = heapq.heappop(ready)
            self._set_gauges(len(ready), 1)
            outcomes[index] = self.compute(
                index, self.stages[index], 0,
                [outcomes[d] for d in self._deps[index]])
            self.commit(index, self.stages[index], outcomes[index])
            self._release(ready, index)

    def _run_parallel(self) -> None:
        lock = OrderedLock("scheduler.dispatch", self.metrics)
        ready = [i for i, pending in enumerate(self._pending) if not pending]
        heapq.heapify(ready)
        lanes = list(range(self.parallelism))
        heapq.heapify(lanes)
        inflight = 0
        stop = False
        outcomes: dict[int, Any] = {}
        errors: dict[int, BaseException] = {}
        done = [threading.Event() for _ in self.stages]

        def dispatch_locked() -> list[tuple[int, int, list[Any]]]:
            # Caller holds ``lock``.  Lowest ready index first, lowest
            # free lane first — deterministic lane assignment for traces.
            # A stage only becomes ready once every producer computed, so
            # their outcomes are present here.  Only the *decisions* are
            # made under the lock; the caller submits the returned batch
            # to the pool after releasing it, so the dispatch lock is
            # never held across an executor call.
            nonlocal inflight
            batch: list[tuple[int, int, list[Any]]] = []
            while not stop and ready and inflight < self.parallelism:
                index = heapq.heappop(ready)
                lane = heapq.heappop(lanes)
                inflight += 1
                batch.append((index, lane,
                              [outcomes[d] for d in self._deps[index]]))
            self._set_gauges(len(ready), inflight)
            return batch

        def submit_batch(batch: list[tuple[int, int, list[Any]]]) -> None:
            for index, lane, producers in batch:
                pool.submit(worker, index, lane, producers)

        def worker(index: int, lane: int, producers: list[Any]) -> None:
            nonlocal inflight
            try:
                outcome = self.compute(index, self.stages[index], lane,
                                       producers)
                error: BaseException | None = None
            except BaseException as exc:  # re-raised at the commit cursor
                outcome, error = None, exc
            with lock:
                inflight -= 1
                heapq.heappush(lanes, lane)
                if error is not None:
                    errors[index] = error
                else:
                    outcomes[index] = outcome
                    # Computing (not committing) is what makes dependents
                    # runnable: their computes overlay this outcome.
                    self._release(ready, index)
                batch = dispatch_locked()
            submit_batch(batch)
            done[index].set()

        with ThreadPoolExecutor(max_workers=self.parallelism,
                                thread_name_prefix="stage-lane") as pool:
            try:
                with lock:
                    batch = dispatch_locked()
                submit_batch(batch)
                for index in range(len(self.stages)):
                    done[index].wait()
                    if index in errors:
                        raise errors[index]
                    self.commit(index, self.stages[index], outcomes[index])
            except BaseException:
                with lock:
                    # Cancel everything not yet dispatched; the pool's
                    # __exit__ drains lanes already running, and their
                    # buffered outcomes are discarded unread.
                    stop = True
                raise
        # ``worker`` and ``submit_batch`` name each other through this
        # frame's cells; left bound, the pair — and through ``self`` the
        # job's every output channel — would outlive the call until the
        # cycle collector runs, and a columnar payload is few objects and
        # many bytes: it never trips the collector's count.
        del worker, submit_batch
