"""Shards: where a job document runs, and the pool that routes to them.

A *shard* owns one :class:`~repro.core.context.RheemContext` (plan cache,
conversion graph, result store, metrics registry) and runs one job at a
time on it: no context is ever shared between threads, so none of them
takes a lock inside.  It offers the four calls of the :class:`Shard`
surface — ``run_job``, ``publish``, ``metrics``, ``stop`` — and the job
server knows nothing else about where a job runs; what the surface hides
is the transport:

* :class:`InProcessShard` (the ``thread`` backend) calls
  :func:`run_document` on its context under its own lock, so a job and a
  cost-parameter publication never overlap.  It is the pipe-free path,
  used by tests (a ``threading.Event`` in the UDF env can hold a job)
  and for low-latency serving.
* :class:`ProcessShard` (the ``process`` backend, past the GIL) sends the
  call down a pipe to a worker process (:func:`_shard_main`) that calls
  the same :func:`run_document` on a private replica built by a
  caller-supplied ``context_factory``.  The worker executes one request
  at a time, which makes the child itself the critical section — the
  parent-side lock only serializes the pipe.  Only a process can die or
  be killed, so only this backend has **respawn**
  (:meth:`ShardPool.handle_failure`) and a **hard deadline**
  (:meth:`ProcessShard.run_job` kills a worker that overruns one).

One :class:`ShardPool` serves both: ``N`` shards built by a per-slot
constructor, **sticky routing** by plan fingerprint
(:meth:`ShardPool.pick`), in-flight counts, broadcast publication and
one merged metrics snapshot.  A one-shard pool routes nothing and
computes no fingerprint.

What in-process shards still share is module-level state, each item
safe for concurrent callers without a lock of ours:

* the ``_lambda_code`` ``functools.lru_cache`` (:mod:`repro.api.serde`):
  the C implementation is thread-safe, and it caches immutable code
  objects — every request binds its own ``env``;
* the ``itertools.count`` id counters (operator, execution-operator and
  task ids, dataflow temp-file serials): one ``next()`` is a single C
  call under the GIL, so ids stay unique across shards;
* ``_METRICS_LOCK`` (:mod:`repro.trace.metrics`): the innermost lock
  of the order in :mod:`repro.server.server`'s docstring.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import signal
import threading
import time
from multiprocessing.connection import Connection
from typing import Any, Callable, Protocol

from ..api.service import RheemService
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

#: How worker processes start: ``fork`` where the host has it.
_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods()
    else "spawn")

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
    document, whatever happened to the job or to the transport.  The
    attributes are the pool's bookkeeping: ``inflight`` (jobs routed and
    not yet released) is owned by the pool and guarded by its lock.
    """

    slot: int
    alive: bool
    inflight: int
    jobs_run: int

    @property
    def pid(self) -> int | None:
        """The worker process id (``None`` in this process)."""

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
    """The shard surface as plain calls on a context this shard owns.

    ``run_job`` and ``publish`` hold the shard's ``server.shard`` lock, so
    the context runs one job at a time and a publication lands between
    jobs — the rule a worker process keeps by answering one request at a
    time.  Deadlines are cooperative only: a thread cannot be killed, so
    a UDF that never reaches a stage boundary keeps the shard (and its
    worker thread); nothing here can die, so nothing is respawned.
    """

    pid = None

    def __init__(self, slot: int, ctx: RheemContext,
                 env: dict[str, Any] | None = None) -> None:
        self.slot = slot
        self.ctx = ctx
        self.service = RheemService(ctx, env)
        self.alive = True
        self.inflight = 0
        self.jobs_run = 0
        self._lock = threading.Lock()  # server.shard

    def run_job(self, job_id: str, document: dict[str, Any],
                remaining_s: float | None, tracer: Tracer | NullTracer,
                observe: bool = False) -> dict[str, Any]:
        with self._lock:
            self.jobs_run += 1
            return run_document(self.service, job_id, document,
                                remaining_s, tracer, observe)

    def publish(self, params: dict[str, Any]) -> None:
        with self._lock:
            self.ctx.publish_cost_params(params)

    def metrics(self) -> dict[str, Any]:
        """The context's registry, read without waiting for its job
        (instrument updates are atomic under the metrics lock)."""
        return self.ctx.metrics.snapshot()

    def stop(self) -> None:
        """Nothing to stop: the context stays readable for ``/metrics``."""


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

    The shard's lock only serializes pipe traffic: the worker answers
    one request at a time, so its context runs one job at a time.
    """

    def __init__(self, slot: int, process: Any, conn: Connection) -> None:
        self.slot = slot
        self.process = process
        self.alive = True
        self.inflight = 0
        self.jobs_run = 0
        self._conn = conn
        self._lock = threading.Lock()  # server.shard
        self._requests = itertools.count(1)

    @classmethod
    def spawn(cls, slot: int, context_factory: Callable[[], Any],
              env: dict[str, Any] | None = None) -> "ProcessShard":
        """Start the worker process of ``slot`` and return its handle.

        The worker builds its replica with ``context_factory``.  Workers
        ``fork`` where the host can, and then any callable works
        (closures included); elsewhere they ``spawn`` and it must be
        picklable.
        """
        parent_conn, child_conn = _MP.Pipe()
        process = _MP.Process(
            target=_shard_main,
            args=(child_conn, slot, context_factory, dict(env or {})),
            name=f"rheem-shard-{slot}", daemon=True)
        process.start()
        # The parent's copy of the child end must close so a dead child
        # reliably surfaces as EOF on the parent connection.
        child_conn.close()
        return cls(slot, process, parent_conn)

    @property
    def pid(self) -> int | None:
        return self.process.pid

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

    def stop(self, timeout: float = 10.0) -> None:
        """Ask the worker to exit its loop, then terminate it if it has
        not within ``timeout`` seconds (best effort)."""
        try:
            with self._lock:
                if self.alive:
                    self._conn.send((0, "stop", None))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2)
        self.alive = False


class ShardPool:
    """``N`` shards with sticky routing and broadcast plumbing.

    Args:
        make_shard: Builds the shard of one slot, ``make_shard(slot)``:
            once per slot here, and again to respawn a dead one.
        shards: Slot count (``>= 1``).
        metrics: The server's registry: the pool's own instruments, and
            the base :meth:`metrics_snapshot` merges the shards' into.
        respawn: Replace a dead shard (only a process shard dies) with a
            fresh one; the last cost-parameter publication is replayed
            into it.  With ``False`` a dead slot stays retired and its
            fingerprints re-map permanently.
    """

    def __init__(self, make_shard: Callable[[int], Shard],
                 shards: int = 4,
                 metrics: MetricsRegistry | None = None,
                 respawn: bool = True) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.size = max(1, int(shards))
        self.respawn = respawn
        self._make_shard = make_shard
        self._lock = threading.Lock()  # server.pool
        self._published: dict[str, Any] | None = None
        # Last-known registry snapshot per shard incarnation, so a
        # respawned shard never overwrites — or double-counts with — its
        # predecessor's committed counters.
        self._last_metrics: dict[str, dict[str, Any]] = {}
        self._slots: list[Shard | None] = [
            make_shard(slot) for slot in range(self.size)]

    def handle_failure(self, shard: Shard) -> None:
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
        replacement = self._make_shard(shard.slot)
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
    def _live_locked(self) -> list[Shard]:
        return [s for s in self._slots if s is not None and s.alive]

    def live_shards(self) -> list[Shard]:
        """The currently live shards (routing targets)."""
        with self._lock:
            return self._live_locked()

    def fingerprint(self, document: dict[str, Any]) -> str | None:
        """The routing key of ``document`` (``None``: one slot, nothing
        to route)."""
        return document_fingerprint(document) if self.size > 1 else None

    def pick(self, fingerprint: str | None) -> Shard:
        """Route one job: sticky by fingerprint, spilling when busy.

        The home slot is ``digest mod size`` (slot 0 without a
        fingerprint).  Scanning the slot ring from home, the first *live*
        shard with the minimum in-flight count wins — so an idle home
        shard always takes its own fingerprints (cache locality), a busy
        home spills to the least-loaded survivor (utilization), and a
        dead home re-maps deterministically to the next live slot.

        Raises:
            ShardDied: When no live shard remains.
        """
        home = 0 if fingerprint is None else \
            int(fingerprint[:16], 16) % self.size
        with self._lock:
            best: Shard | None = None
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

    def _refresh_metrics(self, shard: Shard) -> None:
        """Fetch one shard's registry snapshot into the last-known table,
        keyed by shard *incarnation* (slot and pid)."""
        try:
            snapshot = shard.metrics()
        except (ShardDied, ShardCallTimeout, RuntimeError):
            return
        with self._lock:
            self._last_metrics[f"{shard.slot}:{shard.pid}"] = snapshot

    def metrics_snapshot(self) -> dict[str, Any]:
        """The server's registry (admission counters, queue gauges, wait
        and run histograms) merged with every shard's, single-registry
        shape.

        A busy process shard answers after its current job; a dead shard
        contributes its last-known snapshot exactly once, so committed
        counters survive the shard without double-publishing.
        """
        for shard in self.live_shards():
            self._refresh_metrics(shard)
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
             "pid": None if s is None else s.pid}
            for i, s in enumerate(slots)
        ]

    def shutdown(self) -> None:
        """Stop every shard.

        Each live shard's registry is snapshotted first, so
        :meth:`metrics_snapshot` keeps reporting the full aggregate
        after worker processes are gone (``/metrics`` outlives a drain).
        """
        with self._lock:
            shards = [s for s in self._slots if s is not None]
        for shard in shards:
            if shard.alive:
                self._refresh_metrics(shard)
        for shard in shards:
            shard.stop()
