"""Job records and lifecycle states for the concurrent job server."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..trace import Tracer


class JobState(str, Enum):
    """Lifecycle of one submitted job.

    ``QUEUED -> RUNNING -> DONE | FAILED | TIMEOUT`` for admitted jobs;
    ``REJECTED`` is terminal at admission time (queue full or server
    stopping) — a rejected job never occupies a queue slot.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self not in (JobState.QUEUED, JobState.RUNNING)


@dataclass
class Job:
    """One submission: its document, per-job tracer and lifecycle record.

    All mutable fields are written under the server's job-table lock (or,
    for ``shard_slot``, by the single worker dispatching the job before
    any reader can see it); the ``finished`` event is set exactly once
    when the job reaches a terminal state, so waiters never poll.

    ``tenant`` and ``priority`` drive fair-share admission and pick
    order; ``fingerprint`` is the sticky-routing key (process backend
    only) and ``shard_slot`` records where the job actually ran.
    """

    job_id: str
    document: dict[str, Any]
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    deadline_s: float | None = None
    response: dict[str, Any] | None = None
    tenant: str = "default"
    priority: int = 0
    fingerprint: str | None = None
    shard_slot: int | None = None
    tracer: Any = field(default_factory=Tracer)
    finished: threading.Event = field(default_factory=threading.Event)

    @property
    def wait_s(self) -> float | None:
        """Seconds spent queued (``None`` until the job starts)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_s(self) -> float | None:
        """Seconds spent running (``None`` until the job finishes)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def status(self) -> dict[str, Any]:
        """A JSON-ready status document (the ``GET /jobs/<id>`` body)."""
        status: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state.value,
            "deadline_s": self.deadline_s,
            "tenant": self.tenant,
            "priority": self.priority,
        }
        if self.shard_slot is not None:
            status["shard"] = self.shard_slot
        if self.wait_s is not None:
            status["wait_s"] = self.wait_s
        if self.run_s is not None:
            status["run_s"] = self.run_s
        if self.state.terminal and self.response is not None:
            status["response"] = self.response
        return status
