"""Shards: where a job document runs, and the pools that route to them.

A *shard* owns one :class:`~repro.core.context.RheemContext` (plan cache,
conversion graph, result store, metrics registry) and offers the
four calls of the :class:`Shard` surface — ``run_job``, ``publish``,
``metrics``, ``stop``.  The job server knows nothing else about where a
job runs; what the surface hides is the transport:

* :class:`InProcessShard` (the ``thread`` backend) calls
  :func:`run_document` on a context shared by every worker thread.  One
  such shard serves all callers at once, so its pool (:class:`SoloPool`)
  routes nothing, counts nothing and takes no lock.
* :class:`ProcessShard` (the ``process`` backend, past the GIL) sends the
  call down a pipe to a worker process (:func:`_shard_main`) that calls
  the same :func:`run_document` on a private replica built by a
  caller-supplied ``context_factory``.  A :class:`ShardPool` keeps ``N``
  of them and adds what only a process can do: **sticky routing** by
  plan fingerprint (:meth:`ShardPool.pick`), **respawn** of a worker
  that exited (:meth:`ShardPool.handle_failure`) and a **hard deadline**
  (:meth:`ProcessShard.run_job` kills a worker that overruns one).

The IPC protocol is deliberately tiny: one duplex pipe per shard carrying
``(request_id, kind, payload)`` tuples.  The worker executes one request
at a time, which makes the child itself the critical section — the
parent-side :class:`ProcessShard` lock only serializes the pipe.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import signal
import time
from multiprocessing.connection import Connection
from typing import Any, Callable, Protocol

from ..api.service import RheemService
from ..concurrency import OrderedLock
from ..core.context import RheemContext
from ..core.executor import JobCancelled
from ..trace import (
    NO_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    merge_snapshots,
)

#: Seconds between liveness checks while waiting on a shard response.
_POLL_S = 0.05

#: Seconds a process shard may overrun a job's deadline before its worker
#: is killed.  Cancellation at the next stage boundary goes first; this
#: bounds a stage that never reaches one.
HARD_DEADLINE_GRACE_S = 1.0


class ShardDied(RuntimeError):
    """The worker process behind a shard exited (crash, kill, OOM)."""


class ShardCallTimeout(RuntimeError):
    """A shard is alive but did not answer within the call's timeout."""


def document_fingerprint(document: dict[str, Any]) -> str:
    """A stable routing fingerprint over the document's *plan shape*.

    Only the fields that determine the execution plan participate
    (``operators``, ``sink``, ``execution``): two tenants submitting the
    same plan share a home shard — and that shard's plan cache — while
    tenant/priority envelope fields never split the routing key.
    """
    shape = {key: document.get(key)
             for key in ("operators", "sink", "execution")
             if key in document}
    canonical = json.dumps(shape, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def error_response(job_id: str, kind: str, error: object) -> dict[str, Any]:
    """The structured response of a job that did not succeed."""
    return {"status": "error", "kind": kind, "error": str(error),
            "job_id": job_id}


def run_document(service: RheemService, job_id: str,
                 document: dict[str, Any], remaining_s: float | None,
                 tracer: Tracer | NullTracer,
                 observe: bool = False) -> dict[str, Any]:
    """THE job path: run one document under its deadline; never raises.

    ``remaining_s`` is what is left of the deadline (``None``: none),
    re-anchored here to this process's clock.  It is checked before the
    job starts — it may have been spent queueing — and at every executor
    stage boundary, so a late job is abandoned *between* stages with
    nothing half-committed and answers kind ``Timeout``.  Any other
    failure is a structured error carrying ``job_id``.  ``observe`` asks
    for calibration observations (see :meth:`RheemService.submit`).
    """
    deadline = (None if remaining_s is None
                else time.monotonic() + remaining_s)

    def cancel_check() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise JobCancelled(f"{job_id} exceeded its deadline")

    try:
        cancel_check()
        return service.submit(document, tracer=tracer,
                              cancel_check=cancel_check,
                              observations=observe)
    except JobCancelled as exc:
        return error_response(job_id, "Timeout", exc)
    except Exception as exc:  # noqa: BLE001 — a job failure is a response
        return error_response(job_id, type(exc).__name__, exc)


class Shard(Protocol):
    """What the serving layer needs from the place a job runs.

    ``run_job`` answers like :func:`run_document`: always a response
    document, whatever happened to the job or to the transport.
    """

    @property
    def slot(self) -> int | None:
        """The routing slot (``None`` where nothing routes)."""

    def run_job(self, job_id: str, document: dict[str, Any],
                remaining_s: float | None, tracer: Tracer | NullTracer,
                observe: bool = False) -> dict[str, Any]:
        """Run one job document; only ``tracer.enabled`` need travel."""

    def publish(self, params: dict[str, Any]) -> None:
        """Install learned cost parameters on the shard's context."""

    def metrics(self) -> dict[str, Any]:
        """The shard's metrics-registry snapshot."""

    def stop(self) -> None:
        """Let go of whatever the shard holds (best effort)."""


class InProcessShard:
    """The shard surface as plain calls on a context in this process.

    Safe for every worker thread at once: jobs share the context's
    read-mostly state under the documented lock order and isolate the
    rest per job.  Deadlines are cooperative only — a thread cannot be
    killed, so a UDF that never reaches a stage boundary keeps its worker.
    """

    slot = None

    def __init__(self, ctx: RheemContext,
                 env: dict[str, Any] | None = None) -> None:
        self.ctx = ctx
        self.service = RheemService(ctx, env)

    def run_job(self, job_id: str, document: dict[str, Any],
                remaining_s: float | None, tracer: Tracer | NullTracer,
                observe: bool = False) -> dict[str, Any]:
        return run_document(self.service, job_id, document, remaining_s,
                            tracer, observe)

    def publish(self, params: dict[str, Any]) -> None:
        self.ctx.publish_cost_params(params)

    def metrics(self) -> dict[str, Any]:
        return self.ctx.metrics.snapshot()

    def stop(self) -> None:
        """Nothing to stop: the context belongs to whoever built it."""


class SoloPool:
    """The pool surface over ONE shard that serves every worker at once:
    nothing to route (jobs carry no fingerprint), no slots to report,
    nothing that can die — and so no lock on the job path."""

    def __init__(self, shard: Shard) -> None:
        self.shard = shard

    def fingerprint(self, document: dict[str, Any]) -> str | None:
        return None

    def pick(self, fingerprint: str | None) -> Shard:
        return self.shard

    def release(self, shard: Shard) -> None:
        pass

    def publish(self, params: dict[str, Any]) -> int:
        self.shard.publish(params)
        return 1

    def broadcast_job(self, document: dict[str, Any]) -> list[dict[str, Any]]:
        return [self.shard.run_job("warmup", document, None, NO_TRACER)]

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.shard.metrics()

    def snapshot(self) -> list[dict[str, Any]]:
        return []

    def shutdown(self) -> None:
        self.shard.stop()


def _shard_main(conn: Connection, shard_id: int,
                context_factory: Callable[[], Any],
                env: dict[str, Any] | None) -> None:
    """Worker-process entry point: build this shard's context replica,
    then answer ``(request_id, kind, payload)`` requests one at a time
    until ``stop``, a closed pipe or a signal.  A job failure is a
    *response*, never a process exit."""
    # The parent handles Ctrl-C (drain-then-exit); an interrupted child
    # would look like a crash and trigger a pointless respawn.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — non-main thread
        pass
    ctx = context_factory()
    service = RheemService(ctx, env)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        request_id, kind, payload = request
        status = "ok"
        value: Any = None
        try:
            if kind == "job":
                job_id, document, remaining_s, trace, observe = payload
                value = run_document(
                    service, job_id, document, remaining_s,
                    Tracer() if trace else NO_TRACER, observe)
            elif kind == "publish":
                ctx.publish_cost_params(payload)
            elif kind == "metrics":
                value = ctx.metrics.snapshot()
            elif kind == "ping":
                value = shard_id
            elif kind == "stop":
                break
            else:
                status = "error"
                value = f"unknown shard command {kind!r}"
        except Exception as exc:  # noqa: BLE001 — a shard must answer
            status = "error"
            value = f"{type(exc).__name__}: {exc}"
        try:
            conn.send((request_id, status, value))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class ProcessShard:
    """Parent-side handle on one worker process and its pipe.

    ``inflight`` (how many jobs the router has assigned and not yet
    released) is owned by the pool and guarded by the pool lock; the
    shard's own lock only serializes pipe traffic.
    """

    def __init__(self, slot: int, process: Any, conn: Connection,
                 metrics: MetricsRegistry) -> None:
        self.slot = slot
        self.process = process
        self.alive = True
        self.inflight = 0
        self.jobs_run = 0
        self._conn = conn
        self._lock = OrderedLock("server.shard", metrics)
        self._requests = itertools.count(1)

    def call(self, kind: str, payload: Any = None,
             timeout: float | None = None) -> Any:
        """One request/response round trip; raises on death or timeout.

        Raises:
            ShardDied: The worker process is gone (its pipe reported
                EOF, or liveness polling saw it exit); the shard is
                marked dead for the pool to retire.
            ShardCallTimeout: The worker is alive but still busy after
                ``timeout`` seconds.  Its late response is drained by the
                next call (every response carries its request id).
        """
        with self._lock:
            if not self.alive:
                raise ShardDied(f"shard {self.slot} is not alive")
            request_id = next(self._requests)
            give_up = None if timeout is None else \
                time.monotonic() + timeout
            try:
                self._conn.send((request_id, kind, payload))
                while True:
                    while not self._conn.poll(_POLL_S):
                        if not self.process.is_alive():
                            raise ShardDied(
                                f"shard {self.slot} died (exit code "
                                f"{self.process.exitcode}) during "
                                f"{kind!r}")
                        if give_up is not None and \
                                time.monotonic() > give_up:
                            raise ShardCallTimeout(
                                f"shard {self.slot} still busy after "
                                f"{timeout}s ({kind!r})")
                    response_id, status, value = self._conn.recv()
                    if response_id == request_id:
                        break
                    # A stale answer to a call that timed out earlier.
            except (EOFError, BrokenPipeError, OSError) as exc:
                self.alive = False
                raise ShardDied(
                    f"shard {self.slot} died during {kind!r}: {exc}"
                ) from exc
            except ShardDied:
                self.alive = False
                raise
        if status != "ok":
            raise RuntimeError(f"shard {self.slot} {kind!r} failed: "
                               f"{value}")
        return value

    def run_job(self, job_id: str, document: dict[str, Any],
                remaining_s: float | None, tracer: Tracer | NullTracer,
                observe: bool = False) -> dict[str, Any]:
        """:func:`run_document` in the worker process, across the pipe.

        The transport's failures are responses too: a worker that died
        fails the job with kind ``ShardFailure`` (its context replica is
        gone; no silent retry — the caller decides); one still busy
        :data:`HARD_DEADLINE_GRACE_S` past the deadline is killed and the
        job answers ``Timeout``.  Both leave the shard not ``alive`` for
        :meth:`ShardPool.release` to retire.
        """
        timeout = (None if remaining_s is None
                   else max(remaining_s, 0.0) + HARD_DEADLINE_GRACE_S)
        try:
            response: dict[str, Any] = self.call(
                "job", (job_id, document, remaining_s,
                        bool(tracer.enabled), observe), timeout=timeout)
        except ShardCallTimeout:
            self.alive = False
            self.process.kill()
            self.process.join(timeout=2)
            return error_response(
                job_id, "Timeout", f"{job_id} overran its deadline mid-stage"
                f"; the worker of shard {self.slot} was killed")
        except ShardDied as exc:
            return {**error_response(job_id, "ShardFailure", exc),
                    "shard": self.slot}
        self.jobs_run += 1
        return response

    def publish(self, params: dict[str, Any],
                timeout: float | None = 60.0) -> None:
        self.call("publish", params, timeout=timeout)

    def metrics(self, timeout: float | None = 120.0) -> dict[str, Any]:
        snapshot: dict[str, Any] = self.call("metrics", timeout=timeout)
        return snapshot

    def stop(self) -> None:
        """Ask the worker to exit its loop (best effort)."""
        try:
            with self._lock:
                if self.alive:
                    self._conn.send((0, "stop", None))
        except (BrokenPipeError, OSError):
            pass


class ShardPool:
    """``N`` process shards with sticky routing and broadcast plumbing.

    Args:
        context_factory: Zero-argument callable building one context
            replica *inside the worker process*.  Shards ``fork`` where
            the host can, and then any callable works (closures
            included); elsewhere they ``spawn`` and it must be picklable.
        shards: Worker-process count (``>= 1``).
        env: Extra names exposed to document UDF expressions.
        metrics: Parent-side registry: the pool's own instruments, and
            the base :meth:`metrics_snapshot` merges the shards' into.
        respawn: Replace a dead shard with a fresh replica (the last
            cost-parameter publication is replayed into it).  With
            ``False`` a dead slot stays retired and its fingerprints
            re-map permanently.
    """

    def __init__(self, context_factory: Callable[[], Any],
                 shards: int = 4,
                 env: dict[str, Any] | None = None,
                 metrics: MetricsRegistry | None = None,
                 respawn: bool = True) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.size = max(1, int(shards))
        self.respawn = respawn
        self._factory = context_factory
        self._env = dict(env or {})
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._lock = OrderedLock("server.pool", self.metrics)
        self._published: dict[str, Any] | None = None
        # Last-known registry snapshot per shard incarnation, so a
        # respawned shard never overwrites — or double-counts with — its
        # predecessor's committed counters.
        self._last_metrics: dict[str, dict[str, Any]] = {}
        self._slots: list[ProcessShard | None] = [
            self._spawn(slot) for slot in range(self.size)]

    # ------------------------------------------------------------- spawning
    def _spawn(self, slot: int) -> ProcessShard:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_shard_main,
            args=(child_conn, slot, self._factory, self._env),
            name=f"rheem-shard-{slot}", daemon=True)
        process.start()
        # The parent's copy of the child end must close so a dead child
        # reliably surfaces as EOF on the parent connection.
        child_conn.close()
        return ProcessShard(slot, process, parent_conn, self.metrics)

    def handle_failure(self, shard: ProcessShard) -> None:
        """Retire a dead shard's slot; respawn a replacement if enabled.

        A no-op on a live shard, and only the first caller retires a dead
        one — concurrent jobs failing on the same shard can all report it
        (counters stay single-published, one replacement is forked).
        """
        with self._lock:
            if shard.alive or self._slots[shard.slot] is not shard:
                return
            self._slots[shard.slot] = None
            self.metrics.counter("server.shards.died").inc()
        if not self.respawn:
            return
        # Fork OUTSIDE the pool lock: at-fork handlers reset the global
        # metrics lock in the child, but holding our own lock across the
        # fork would still copy it locked into the child.
        replacement = self._spawn(shard.slot)
        with self._lock:
            self._slots[shard.slot] = replacement
            published = self._published
        if published is not None:
            try:
                replacement.publish(published)
                self.metrics.counter("server.shards.respawned").inc()
            except (ShardDied, ShardCallTimeout):
                pass

    # -------------------------------------------------------------- routing
    def _live_locked(self) -> list[ProcessShard]:
        return [s for s in self._slots if s is not None and s.alive]

    def live_shards(self) -> list[ProcessShard]:
        """The currently live shards (routing targets)."""
        with self._lock:
            return self._live_locked()

    fingerprint = staticmethod(document_fingerprint)

    def pick(self, fingerprint: str | None) -> ProcessShard:
        """Route one job: sticky by fingerprint, spilling when busy.

        The home slot is ``digest mod size``.  Scanning the slot ring
        from home, the first *live* shard with the minimum in-flight
        count wins — so an idle home shard always takes its own
        fingerprints (cache locality), a busy home spills to the
        least-loaded survivor (utilization), and a dead home re-maps
        deterministically to the next live slot.

        Raises:
            ShardDied: When no live shard remains.
        """
        assert fingerprint is not None
        home = int(fingerprint[:16], 16) % self.size
        with self._lock:
            best: ProcessShard | None = None
            for offset in range(self.size):
                shard = self._slots[(home + offset) % self.size]
                if shard is None or not shard.alive:
                    continue
                if best is None or shard.inflight < best.inflight:
                    best = shard
                    if best.inflight == 0:
                        break
            if best is None:
                raise ShardDied("no live shards left in the pool")
            best.inflight += 1
            return best

    def release(self, shard: Shard) -> None:
        """Return a routed job's slot reservation; a shard that died (or
        was killed at its hard deadline) under the job is retired."""
        assert isinstance(shard, ProcessShard)
        with self._lock:
            shard.inflight -= 1
        if not shard.alive:  # keeps the job path at one pool-lock round
            self.handle_failure(shard)

    # ------------------------------------------------------------ broadcast
    def publish(self, params: dict[str, Any]) -> int:
        """Broadcast cost parameters to every live shard; returns how
        many acknowledged.  The publication is remembered and replayed
        into respawned shards, so a replacement never serves plans
        priced under stale parameters."""
        with self._lock:
            self._published = dict(params)
            shards = self._live_locked()
        acknowledged = 0
        for shard in shards:
            try:
                shard.publish(params)
                acknowledged += 1
            except (ShardDied, ShardCallTimeout):
                continue
        return acknowledged

    def broadcast_job(self, document: dict[str, Any]) -> list[dict[str, Any]]:
        """Run one document, untraced, on EVERY live shard (pre-warming).

        Bypasses sticky routing on purpose: after a warm-up broadcast,
        any spill target already holds the plan hot in its caches.
        """
        responses = []
        for shard in self.live_shards():
            responses.append(shard.run_job("warmup", document, None,
                                           NO_TRACER))
            self.handle_failure(shard)
        return responses

    def _refresh_metrics(self, shard: ProcessShard,
                         timeout: float) -> None:
        """Fetch one shard's registry snapshot into the last-known table,
        keyed by shard *incarnation* (slot and pid)."""
        try:
            snapshot = shard.metrics(timeout)
        except (ShardDied, ShardCallTimeout, RuntimeError):
            return
        with self._lock:
            self._last_metrics[f"{shard.slot}:{shard.process.pid}"] = \
                snapshot

    def metrics_snapshot(self) -> dict[str, Any]:
        """The parent registry (admission counters, queue gauges, lock
        histograms) merged with every shard's, single-registry shape.

        A busy shard answers after its current job; a dead shard
        contributes its last-known snapshot exactly once, so committed
        counters survive the shard without double-publishing.
        """
        for shard in self.live_shards():
            self._refresh_metrics(shard, 120.0)
            self.handle_failure(shard)
        with self._lock:
            last_known = list(self._last_metrics.values())
        return merge_snapshots(self.metrics.snapshot(), *last_known)

    # ------------------------------------------------------------ lifecycle
    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready per-slot occupancy (for ``JobServer.snapshot``)."""
        with self._lock:
            slots = list(self._slots)
        return [
            {"slot": i,
             "alive": bool(s is not None and s.alive),
             "inflight": 0 if s is None else s.inflight,
             "jobs_run": 0 if s is None else s.jobs_run,
             "pid": None if s is None else s.process.pid}
            for i, s in enumerate(slots)
        ]

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every shard process (ask nicely, then terminate).

        Each live shard's registry is snapshotted first, so
        :meth:`metrics_snapshot` keeps reporting the full aggregate
        after the processes are gone (``/metrics`` outlives a drain).
        """
        with self._lock:
            shards = [s for s in self._slots if s is not None]
        for shard in shards:
            if shard.alive:
                self._refresh_metrics(shard, timeout)
        for shard in shards:
            shard.stop()
        deadline = time.monotonic() + timeout
        for shard in shards:
            shard.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=2)
            shard.alive = False

