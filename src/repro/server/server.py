"""The concurrent job server: admission, dispatch and accounting.

A :class:`JobServer` never runs a job itself.  It holds a pool of shards
(:mod:`repro.server.shards`) and every job takes the same path —
``pick`` a shard, ``run_job``, ``release`` — whichever ``backend`` built
the pool:

* ``"thread"`` (the default): one in-process shard over a shared
  :class:`~repro.core.context.RheemContext`; the worker threads all call
  it at once and share its caches, metrics and learned cost parameters.
* ``"process"``: one worker *process* per worker, each holding a private
  context replica — past the GIL, with sticky routing by plan
  fingerprint, respawn of dead workers and a hard deadline.

What this module owns: a bounded queue (capacity = ``workers +
queue_size``) whose structured 429-style rejection carries the queue
depth and a ``Retry-After`` estimate derived from an EWMA of recent
service times; priority scheduling (higher ``priority`` first); and
per-tenant fair-share dispatch — an optional hard cap on concurrently
*running* jobs per tenant plus a fewest-running-first tie-break, so one
chatty tenant cannot starve the rest of the pool.

Dispatch is token-based: every admission enqueues one drain token into
the worker pool, and each token loops *pick → run → account → re-pick*
until no eligible job remains (:meth:`JobServer._drain`).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from ..concurrency import OrderedLock
from ..core.context import RheemContext
from ..learn.calibration import CostCalibrator, observation_from_json
from ..trace import NO_TRACER, MetricsRegistry, Tracer
from .jobs import Job, JobState
from .shards import InProcessShard, ShardPool, SoloPool, error_response

#: Weight of the newest sample in the service-time EWMA feeding the
#: ``Retry-After`` estimate on queue-full rejections.
_EWMA_ALPHA = 0.2

#: Terminal jobs kept resolvable through ``status`` / ``result`` /
#: ``GET /jobs/<id>``.  Beyond it the oldest-finished are forgotten (their
#: ids then answer like unknown ones), so the job table of a long-lived
#: server is bounded; queued and running jobs are never evicted.
MAX_TERMINAL_JOBS = 4096


class AdmissionError(RuntimeError):
    """Raised by :meth:`JobServer.submit_sync` on rejection.

    Carries the structured rejection ``response`` (the same dict an async
    :meth:`JobServer.submit` returns on the rejected job).
    """

    def __init__(self, response: dict[str, Any]) -> None:
        super().__init__(response.get("error", "job rejected"))
        self.response = response


class JobServer:
    """Accepts, schedules and isolates concurrent job-document executions.

    Args:
        ctx: The shared context for the thread backend (a fresh one by
            default).  Unused — and never built — under the process
            backend, where every shard owns a private replica.
        env: Extra names exposed to document UDF expressions.
        workers: Worker count (``>= 1``): dispatch threads, and on the
            process backend as many shard *processes*.
        queue_size: Jobs allowed to *wait* beyond the running ones; the
            admission bound is ``workers + queue_size`` jobs in the system.
        default_deadline_s: Deadline applied to jobs that do not carry one
            (``None``: no deadline).  Deadlines are measured from
            *admission*, so time spent queued counts against them, and
            are enforced between executor stages; only the process
            backend can also stop a stage that never ends.
        backend: ``"thread"`` (default) or ``"process"``.
        context_factory: Process backend: builds one context replica
            inside each shard process (default: a plain
            :class:`RheemContext`).  Must be picklable under the
            ``spawn`` start method; any callable works under ``fork``.
        tenant_quota: Maximum concurrently *running* jobs per tenant
            (``None``: no cap).  Jobs over quota stay queued — they are
            never rejected for quota, only for capacity — while other
            tenants' jobs overtake them.
        tracing: Attach a recording per-job tracer (default).  Off, jobs
            run against the no-op tracer and responses omit the
            ``trace`` block — the serving hot path for benchmarks.
        respawn_shards: Process backend: replace dead shards with fresh
            replicas (default).  Off, a dead slot stays retired.
        calibrate: Close the trace → cost-model loop: committed jobs'
            stage observations feed a :class:`CostCalibrator`, whose
            refits publish through :meth:`publish_cost_params`.  Refits
            run on the worker thread *after* the job's response is
            published, so response latency never pays for the fit.
        calibration: Extra keyword arguments for the
            :class:`CostCalibrator` (``min_samples``,
            ``drift_threshold``, ``initial_params``, ``cluster``, GA
            budget...).  ``initial_params`` defaults to
            the shared context's published snapshot on the thread
            backend; on the process backend pass the factory's params
            explicitly if drift should be measured against them.
    """

    def __init__(
        self,
        ctx: RheemContext | None = None,
        env: dict[str, Any] | None = None,
        workers: int = 4,
        queue_size: int = 16,
        default_deadline_s: float | None = None,
        *,
        backend: str = "thread",
        context_factory: Callable[[], Any] | None = None,
        tenant_quota: int | None = None,
        tracing: bool = True,
        respawn_shards: bool = True,
        calibrate: bool = False,
        calibration: dict[str, Any] | None = None,
    ) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', "
                             f"got {backend!r}")
        self.backend = backend
        self.workers = max(1, int(workers))
        self.queue_size = max(0, int(queue_size))
        self.default_deadline_s = default_deadline_s
        self.tenant_quota = (None if tenant_quota is None
                             else max(1, int(tenant_quota)))
        self._tracing = bool(tracing)
        self.ctx: RheemContext | None = None
        self._shards: ShardPool | SoloPool
        if backend == "process":
            # The parent never executes plans: no context here, just its
            # own registry for server/lock instruments.  Shard replicas
            # are built by the factory inside each worker process.
            self.metrics = MetricsRegistry()
            self._shards = ShardPool(
                context_factory or RheemContext, shards=self.workers,
                env=env, metrics=self.metrics, respawn=respawn_shards)
        else:
            self.ctx = ctx if ctx is not None else RheemContext()
            self.metrics = self.ctx.metrics
            self._shards = SoloPool(InProcessShard(self.ctx, env))
        # Outermost lock of the runtime (what it guards is declared in
        # repro.concurrency.order).  Never held while a job executes.
        self._lock = OrderedLock("server.jobs", self.metrics)
        self._jobs: dict[str, Job] = {}
        self._terminal: deque[str] = deque()  # job ids, oldest-finished first
        self._pending: list[Job] = []
        self._tenant_running: dict[str, int] = {}
        self._run_ewma: float | None = None
        self._queued = 0
        self._running = 0
        self._accepting = True
        self._cancelled = False
        self._ids = itertools.count(1)
        self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                        thread_name_prefix="rheem-job")
        self.calibrator: CostCalibrator | None = None
        if calibrate:
            self.calibrator = self._build_calibrator(dict(calibration or {}))

    def _build_calibrator(self, knobs: dict[str, Any]) -> CostCalibrator:
        """Wire a :class:`CostCalibrator` to this server's publish path.

        Cluster and published parameters default to the shared
        context's; a parent that holds none (shard replicas come
        from a factory it cannot introspect) falls back to a default
        :class:`~repro.simulation.cluster.VirtualCluster`.
        """
        from ..simulation.cluster import VirtualCluster

        cluster = knobs.pop("cluster", None)
        initial = knobs.pop("initial_params", None)
        if self.ctx is not None:
            cluster = cluster if cluster is not None else self.ctx.cluster
            if initial is None:
                initial = self.ctx.cost_params_snapshot()
        return CostCalibrator(
            cluster if cluster is not None else VirtualCluster(),
            self.publish_cost_params,
            initial_params=initial,
            metrics=self.metrics, tracer=Tracer(), **knobs)

    # ------------------------------------------------------------ admission
    @property
    def capacity(self) -> int:
        """Maximum jobs in the system (queued + running) at once."""
        return self.workers + self.queue_size

    def submit(self, document: dict[str, Any],
               deadline_s: float | None = None,
               tenant: str | None = None,
               priority: int | None = None) -> Job:
        """Admit one job document; returns its :class:`Job` handle.

        The returned job is either ``queued`` (admitted — await
        :meth:`result`) or ``rejected`` with a structured 429/503-style
        ``response`` already attached; a rejected job never occupies a
        queue slot and is not retained in the job table.

        ``tenant`` and ``priority`` default to the document's own
        ``tenant``/``priority`` envelope fields (themselves defaulting to
        ``"default"``/``0``); neither participates in the routing
        fingerprint, so tenants submitting the same plan share its home
        shard's warm caches.
        """
        now = time.monotonic()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if tenant is None:
            tenant = str(document.get("tenant", "default"))
        if priority is None:
            priority = int(document.get("priority", 0))
        fingerprint = self._shards.fingerprint(document)
        with self._lock:
            job_id = f"job-{next(self._ids)}"
            job = Job(job_id=job_id, document=document, submitted_at=now,
                      deadline_s=deadline_s, tenant=tenant,
                      priority=priority, fingerprint=fingerprint,
                      tracer=Tracer() if self._tracing else NO_TRACER)
            if not self._accepting:
                return self._reject_locked(job, code=503,
                                           kind="ServerStopping",
                                           error="server is shutting down")
            if self._queued + self._running >= self.capacity:
                return self._reject_locked(
                    job, code=429, kind="QueueFull",
                    error=(f"job queue full: {self._queued} queued + "
                           f"{self._running} running "
                           f"(capacity {self.capacity})"))
            self._jobs[job_id] = job
            self._pending.append(job)
            self._queued += 1
            self._update_gauges_locked()
            # Pool.submit is a non-blocking enqueue; keeping it atomic
            # with admission guarantees a drain token exists for every
            # pending job even as shutdown races the admission path.
            # lock-ok: non-blocking enqueue, must stay atomic w/ admission
            self._pool.submit(self._drain)
        self.metrics.counter("server.jobs.submitted").inc()
        return job

    def submit_sync(self, document: dict[str, Any],
                    deadline_s: float | None = None,
                    timeout: float | None = None,
                    tenant: str | None = None,
                    priority: int | None = None) -> dict[str, Any]:
        """Admit and wait; returns the job's response document.

        Raises:
            AdmissionError: If the job was rejected at admission.
        """
        job = self.submit(document, deadline_s=deadline_s, tenant=tenant,
                          priority=priority)
        if job.state is JobState.REJECTED:
            assert job.response is not None
            raise AdmissionError(job.response)
        return self.result(job.job_id, timeout=timeout)

    def _retry_after_locked(self) -> float:
        """Estimated seconds until a queue slot frees (backpressure hint).

        With ``W`` workers draining jobs that each take about the EWMA of
        recent service times, a client retrying after roughly
        ``ewma * (in_system + 1) / W`` seconds finds the backlog it saw
        fully drained.  Before any job has finished, fall back to one
        second — better an arbitrary-but-bounded hint than none.
        """
        if self._run_ewma is None:
            return 1.0
        in_system = self._queued + self._running
        return round(
            max(0.1, self._run_ewma * (in_system + 1) / self.workers), 3)

    def _reject_locked(self, job: Job, code: int, kind: str,
                       error: str) -> Job:
        job.state = JobState.REJECTED
        job.finished_at = time.monotonic()
        job.response = {"status": "rejected", "code": code, "kind": kind,
                        "error": error, "job_id": job.job_id,
                        "queue_depth": self._queued,
                        "in_flight": self._running}
        if code == 429:
            job.response["retry_after_s"] = self._retry_after_locked()
        job.finished.set()
        self.metrics.counter("server.jobs.rejected").inc()
        return job

    # -------------------------------------------------------------- queries
    def get(self, job_id: str) -> Job | None:
        """The job handle for ``job_id`` (``None`` if unknown, or finished
        so long ago that it was evicted — see :data:`MAX_TERMINAL_JOBS`)."""
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> dict[str, Any] | None:
        """JSON-ready status for ``job_id`` (``None`` if unknown)."""
        job = self.get(job_id)
        return None if job is None else job.status()

    def result(self, job_id: str, timeout: float | None = None
               ) -> dict[str, Any]:
        """Block until ``job_id`` finishes; returns its response document.

        Raises:
            KeyError: If the job id is unknown (or was evicted).
            TimeoutError: If ``timeout`` elapses first.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if not job.finished.wait(timeout):
            raise TimeoutError(f"{job_id} still {job.state.value} "
                               f"after {timeout}s")
        assert job.response is not None
        return job.response

    def snapshot(self) -> dict[str, Any]:
        """Queue/worker occupancy and per-state job counts."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            snap: dict[str, Any] = {
                "backend": self.backend,
                "workers": self.workers,
                "queue_size": self.queue_size,
                "capacity": self.capacity,
                "accepting": self._accepting,
                "queue_depth": self._queued,
                "in_flight": self._running,
                "tenant_quota": self.tenant_quota,
                "tenants_running": dict(self._tenant_running),
                "states": states,
            }
        shards = self._shards.snapshot()
        if shards:
            snap["shards"] = shards
        if self.calibrator is not None:
            snap["calibration"] = self.calibrator.stats()
        return snap

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` document: every registry behind this server
        (its own and, where shards keep theirs, each shard's) in the
        single-registry shape."""
        return self._shards.metrics_snapshot()

    # --------------------------------------------------------- coordination
    def publish_cost_params(self, params: dict[str, Any]) -> int:
        """Install learned cost parameters on every shard's context (each
        bumps its cost-model version and flushes its caches; a respawned
        shard gets the publication replayed).  Returns how many
        acknowledged."""
        return self._shards.publish(params)

    def warm(self, document: dict[str, Any]) -> list[dict[str, Any]]:
        """Pre-warm plan caches by running ``document`` out-of-band on
        *every* shard, so later spills off a plan's home shard still hit
        warm caches.  Warm-up runs bypass admission control and publish
        no job counters."""
        return self._shards.broadcast_job(document)

    # ------------------------------------------------------------ lifecycle
    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting jobs; by default drain the queue gracefully.

        With ``drain=True`` every already-admitted job runs to completion
        before the pool stops.  With ``drain=False`` still-queued jobs are
        cancelled and finish ``failed`` (kind ``ServerShutdown``); running
        jobs are never interrupted mid-stage.  Shards are stopped after
        the dispatch layer: a busy one finishes its in-flight job before
        it sees the stop request.
        """
        cancelled: list[Job] = []
        with self._lock:
            self._accepting = False
            if not drain:
                self._cancelled = True
                cancelled = list(self._pending)
                self._pending.clear()
                self._queued -= len(cancelled)
                now = time.monotonic()
                for job in cancelled:
                    job.state = JobState.FAILED
                    job.finished_at = now
                    job.response = error_response(
                        job.job_id, "ServerShutdown",
                        "server shut down before the job ran")
                    self._retire_locked(job)
                self._update_gauges_locked()
        if drain:
            self._pool.shutdown(wait=True)
        else:
            self._pool.shutdown(wait=False, cancel_futures=True)
            for job in cancelled:
                self.metrics.counter("server.jobs.failed").inc()
                job.finished.set()
        self._shards.shutdown()

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=True)

    # -------------------------------------------------------------- workers
    def _pick_locked(self) -> Job | None:
        """The next pending job this worker should run (``None``: none).

        Eligibility: the job's tenant is under its running-jobs quota.
        Among eligible jobs the pick order is priority (higher first),
        then fewest currently-running jobs for the tenant (fair share),
        then FIFO — so with no priorities and no quotas the queue is
        exactly the baseline FIFO.
        """
        if self._cancelled:
            return None
        best: Job | None = None
        best_key: tuple[int, int] | None = None
        for job in self._pending:  # FIFO order; strict < keeps the oldest
            running = self._tenant_running.get(job.tenant, 0)
            if self.tenant_quota is not None and running >= self.tenant_quota:
                continue
            key = (-job.priority, running)
            if best_key is None or key < best_key:
                best, best_key = job, key
        return best

    def _drain(self) -> None:
        """Worker body: keep picking and running eligible pending jobs.

        One token is enqueued per admission, so there are always at least
        as many tokens as pending jobs; the re-pick after each completion
        covers jobs that were quota-blocked when their own token ran.
        """
        while True:
            with self._lock:
                job = self._pick_locked()
                if job is None:
                    return
                self._pending.remove(job)
                self._queued -= 1
                self._running += 1
                self._tenant_running[job.tenant] = \
                    self._tenant_running.get(job.tenant, 0) + 1
                job.state = JobState.RUNNING
                job.started_at = time.monotonic()
                self._update_gauges_locked()
            assert job.wait_s is not None
            self.metrics.histogram("server.wait_s").observe(job.wait_s)
            state, response = self._execute(job)
            # Observations are server-internal: stripped before the
            # response is published to the client, ingested after
            # finished.set() so a triggered refit (the genetic fit) never
            # adds to the job's observable latency.
            observations = response.pop("calibration_observations", None)
            with self._lock:
                job.state = state
                job.finished_at = time.monotonic()
                job.response = response
                self._running -= 1
                left = self._tenant_running.get(job.tenant, 1) - 1
                if left > 0:
                    self._tenant_running[job.tenant] = left
                else:
                    self._tenant_running.pop(job.tenant, None)
                assert job.run_s is not None
                self._run_ewma = job.run_s if self._run_ewma is None else \
                    ((1 - _EWMA_ALPHA) * self._run_ewma
                     + _EWMA_ALPHA * job.run_s)
                self._retire_locked(job)
                self._update_gauges_locked()
            self.metrics.histogram("server.run_s").observe(job.run_s)
            self.metrics.counter(f"server.jobs.{state.value}").inc()
            job.finished.set()
            if observations and self.calibrator is not None:
                self._ingest_observations(observations)
            # Loop: this completion may have freed a tenant-quota slot,
            # and this worker is the one that must recheck the queue.

    def _retire_locked(self, job: Job) -> None:
        """Note a job that just turned terminal; forget the oldest-finished
        ones beyond :data:`MAX_TERMINAL_JOBS`."""
        self._terminal.append(job.job_id)
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            del self._jobs[self._terminal.popleft()]

    def _ingest_observations(self, docs: list[dict[str, Any]]) -> None:
        """Feed one committed job's stage observations to the calibrator.

        Runs on the worker thread after the job's response was already
        published — a refit trigger grinds the genetic fit here, off the
        response path.  Calibration is advisory: it must never kill a
        worker, so every failure lands in a counter instead.
        """
        assert self.calibrator is not None
        try:
            self.calibrator.observe(
                [observation_from_json(doc) for doc in docs])
        except Exception:  # noqa: BLE001 — advisory path, workers survive
            self.metrics.counter("calibration.errors").inc()

    def _execute(self, job: Job) -> tuple[JobState, dict[str, Any]]:
        """Run one picked job on a shard and map the outcome to a state."""
        remaining: float | None = None
        if job.deadline_s is not None:
            remaining = job.deadline_s - (time.monotonic() - job.submitted_at)
        try:
            shard = self._shards.pick(job.fingerprint)
            job.shard_slot = shard.slot
            try:
                response = shard.run_job(
                    job.job_id, job.document, remaining, job.tracer,
                    observe=self.calibrator is not None)
            finally:
                self._shards.release(shard)
        except Exception as exc:  # noqa: BLE001 — a worker must never die
            # run_job answers for the job; what lands here is the pool
            # itself failing (no live shard left, an unpicklable document).
            return JobState.FAILED, error_response(
                job.job_id, type(exc).__name__, exc)
        if response.get("kind") == "Timeout":
            return JobState.TIMEOUT, response
        state = (JobState.DONE if response.get("status") == "ok"
                 else JobState.FAILED)
        return state, response

    def _update_gauges_locked(self) -> None:
        self.metrics.gauge("server.queue_depth").set(self._queued)
        self.metrics.gauge("server.in_flight").set(self._running)
