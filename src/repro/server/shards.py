"""Process shards: per-process context replicas behind the job server.

CPython's GIL caps the thread backend at a CPU-bound ceiling (perfbench's
``serve_thread`` workload measures it as ``jobs_per_s``); this module
scales the serving layer past it.  A :class:`ShardPool` keeps ``N``
worker *processes*, each owning a full
:class:`~repro.core.context.RheemContext` replica (its own plan
cache, conversion-graph memo tables, intermediate-result store and
metrics registry) built by a caller-supplied ``context_factory``.

Jobs are routed **stickily** by plan fingerprint — a stable digest over
the document's operator/sink/execution shape — so resubmissions of one
plan land on the shard whose signature-keyed caches are already hot for
it.  When the home shard is busy the router *spills* to the least-loaded
live shard (cache locality is a tie-break, never a reason to idle a
core); a spilled shard warms its own caches on first contact and serves
later spills warm.

The IPC protocol is deliberately tiny: one duplex pipe per shard carrying
``(request_id, kind, payload)`` tuples.  The shard process executes one
request at a time, which makes the child itself the critical section —
the parent-side :class:`ProcessShard` lock only serializes access to the
pipe.  Shard death (a killed or crashed worker) surfaces as
:class:`ShardDied` on whichever call was in flight; the pool retires the
slot (optionally respawning a fresh replica into it) and sticky routing
re-maps the slot's fingerprints onto the surviving shards.

Cross-process coordination:

* :meth:`ShardPool.publish` broadcasts learned cost parameters to every
  shard (each replica bumps its cost-model version and flushes its plan
  cache); the last publication is replayed into respawned shards so a
  replacement never serves plans priced under stale parameters;
* :meth:`ShardPool.metrics_snapshot` aggregates every shard's registry
  snapshot (plus last-known snapshots of dead shards, so their counters
  are not lost — and never double-counted) into the single-registry
  shape via :func:`repro.trace.metrics.merge_snapshots`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import signal
import time
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterator

from ..concurrency import OrderedLock
from ..trace import MetricsRegistry, merge_snapshots

#: Seconds between liveness checks while waiting on a shard response.
_POLL_S = 0.05


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


def _shard_main(conn: Connection, shard_id: int,
                context_factory: Callable[[], Any],
                env: dict[str, Any] | None) -> None:
    """Worker-process entry point: serve requests until told to stop.

    Builds this shard's private context replica and service, then
    answers ``(request_id, kind, payload)`` requests one at a time.  A
    job failure is a *response*, never a process exit — the process only
    leaves the loop on ``stop``, a closed pipe or a signal.
    """
    # The parent handles Ctrl-C (drain-then-exit); an interrupted child
    # would look like a crash and trigger a pointless respawn.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — non-main thread
        pass
    from ..api.service import RheemService
    from ..core.executor import JobCancelled
    from ..trace import NO_TRACER, Tracer

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
                deadline = (None if remaining_s is None
                            else time.monotonic() + remaining_s)

                def cancel_check() -> None:
                    if deadline is not None and \
                            time.monotonic() > deadline:
                        raise JobCancelled(
                            f"{job_id} exceeded its deadline on "
                            f"shard {shard_id}")

                tracer = Tracer() if trace else NO_TRACER
                try:
                    cancel_check()  # the deadline may already be gone
                    value = service.submit(document, tracer=tracer,
                                           cancel_check=cancel_check,
                                           observations=observe)
                except JobCancelled as exc:
                    value = {"status": "error", "kind": "Timeout",
                             "error": str(exc), "job_id": job_id}
                except Exception as exc:  # noqa: BLE001 — mirror threads
                    value = {"status": "error",
                             "kind": type(exc).__name__,
                             "error": str(exc), "job_id": job_id}
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
                EOF, or liveness polling saw it exit).  The shard is
                marked dead; the pool retires it on the next failure
                handling pass.
            ShardCallTimeout: The worker is alive but still busy after
                ``timeout`` seconds.  The response, when it eventually
                arrives, is drained by the next call on this shard (every
                response carries its request id).
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
                remaining_s: float | None, trace: bool,
                observe: bool = False) -> dict[str, Any]:
        """Execute one job document on this shard; returns its response.

        ``observe`` asks the shard to attach calibration observations to
        a successful, calibration-eligible response (the parent's cost
        calibrator strips and ingests them).
        """
        response = self.call("job", (job_id, document, remaining_s, trace,
                                     observe))
        self.jobs_run += 1
        return response  # type: ignore[no-any-return]

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
            replica *inside the worker process*.  Under the default
            ``fork`` start method any callable works (closures
            included); under ``spawn`` it must be picklable.
        shards: Worker-process count (``>= 1``).
        env: Extra names exposed to document UDF expressions (passed to
            each shard's :class:`~repro.api.service.RheemService`).
        metrics: Parent-side registry for the pool's own lock and
            routing instruments.
        respawn: Replace a dead shard with a fresh replica (the last
            cost-parameter publication is replayed into it).  With
            ``False`` a dead slot stays retired and its fingerprints
            re-map permanently.
        start_method: Multiprocessing start method; defaults to ``fork``
            where available (no pickling constraints), else ``spawn``.
    """

    def __init__(self, context_factory: Callable[[], Any],
                 shards: int = 4,
                 env: dict[str, Any] | None = None,
                 metrics: MetricsRegistry | None = None,
                 respawn: bool = True,
                 start_method: str | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.size = max(1, int(shards))
        self.respawn = respawn
        self._factory = context_factory
        self._env = dict(env or {})
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._mp = multiprocessing.get_context(start_method)
        self._lock = OrderedLock("server.pool", self.metrics)
        self._published: dict[str, Any] | None = None
        # Last-known registry snapshot per shard *incarnation* (keyed by
        # slot and pid so a respawned shard never overwrites — or
        # double-counts with — its predecessor's committed counters).
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

        Idempotent per shard object: only the first caller swaps the
        slot, so concurrent jobs failing on the same dead shard can all
        report it safely (and counters stay single-published).
        """
        replacement: ProcessShard | None = None
        if self.respawn:
            # Fork OUTSIDE the pool lock: at-fork handlers reset the
            # global metrics lock in the child, but holding our own lock
            # across the fork would still copy it locked into the child.
            replacement = self._spawn(shard.slot)
        with self._lock:
            if self._slots[shard.slot] is not shard:
                stale = replacement  # someone else already swapped it
            else:
                self.metrics.counter("server.shards.died").inc()
                self._slots[shard.slot] = replacement
                stale = None
        if stale is not None:
            stale.stop()
            stale.process.join(timeout=5)
            return
        if replacement is not None and self._published is not None:
            try:
                replacement.call("publish", self._published, timeout=60)
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

    def pick(self, fingerprint: str) -> ProcessShard:
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

    def release(self, shard: ProcessShard) -> None:
        """Return a routed job's slot reservation."""
        with self._lock:
            shard.inflight -= 1

    # ------------------------------------------------------------ broadcast
    def publish(self, params: dict[str, Any],
                timeout: float | None = 60.0) -> int:
        """Broadcast cost parameters to every live shard.

        Each replica applies them under its own publish lock (version
        bump + plan-cache and result-store flush).  The publication is
        remembered and replayed into respawned shards.  Returns how many
        shards acknowledged.
        """
        with self._lock:
            self._published = dict(params)
            shards = self._live_locked()
        acknowledged = 0
        for shard in shards:
            try:
                shard.call("publish", params, timeout=timeout)
                acknowledged += 1
            except (ShardDied, ShardCallTimeout):
                continue
        return acknowledged

    def broadcast_job(self, document: dict[str, Any],
                      trace: bool = False) -> list[dict[str, Any]]:
        """Run one document on EVERY live shard (replica pre-warming).

        Bypasses sticky routing on purpose: after a warm-up broadcast,
        any spill target already holds the plan hot in its caches.
        """
        responses = []
        for shard in self.live_shards():
            try:
                responses.append(shard.run_job("warmup", document, None,
                                               trace))
            except ShardDied:
                self.handle_failure(shard)
        return responses

    def metrics_snapshot(self) -> dict[str, Any]:
        """Merge every shard's registry snapshot (single-registry shape).

        A busy shard answers after its current job; a dead shard
        contributes its last-known snapshot exactly once, so committed
        counters survive the shard without double-publishing.
        """
        snapshots: list[dict[str, Any]] = []
        with self._lock:
            shards = self._live_locked()
        for shard in shards:
            try:
                snap = shard.call("metrics", timeout=120.0)
            except (ShardDied, ShardCallTimeout):
                snap = None
                if not shard.alive:
                    self.handle_failure(shard)
            if snap is not None:
                with self._lock:
                    self._last_metrics[self._metrics_key(shard)] = snap
        with self._lock:
            snapshots.extend(self._last_metrics.values())
        return merge_snapshots(*snapshots)

    @staticmethod
    def _metrics_key(shard: ProcessShard) -> str:
        return f"{shard.slot}:{shard.process.pid}"

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

    def _drain_slots(self) -> Iterator[ProcessShard]:
        with self._lock:
            slots = [s for s in self._slots if s is not None]
        yield from slots

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every shard process (ask nicely, then terminate).

        Each live shard's registry is snapshotted first, so
        :meth:`metrics_snapshot` keeps reporting the full aggregate
        after the processes are gone (``/metrics`` outlives a drain).
        """
        for shard in self._drain_slots():
            if shard.alive:
                try:
                    snap = shard.call("metrics", timeout=timeout)
                except (ShardDied, ShardCallTimeout, RuntimeError):
                    continue
                with self._lock:
                    self._last_metrics[self._metrics_key(shard)] = snap
        for shard in self._drain_slots():
            shard.stop()
        deadline = time.monotonic() + timeout
        for shard in self._drain_slots():
            shard.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=2)
            shard.alive = False

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


__all__ = [
    "ProcessShard",
    "ShardCallTimeout",
    "ShardDied",
    "ShardPool",
    "document_fingerprint",
]
