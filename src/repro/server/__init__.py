"""The concurrent job-execution layer (the deployment shape of the RHEEM
demo paper: many applications submitting plans to ONE cross-platform
service).

:class:`JobServer` admits JSON job documents into a bounded queue
(structured 429 rejections with a ``Retry-After`` estimate, priorities,
per-tenant fair-share quotas) and runs each on a *shard*
(:mod:`repro.server.shards`) picked by sticky plan-fingerprint routing.
A shard owns a :class:`~repro.core.context.RheemContext` and runs one
job at a time on it: the **thread** backend's shards are in-process
(the pipe-free path), the **process** backend's are worker processes,
each with a private replica, behind respawn and a hard deadline.

Jobs move through the states ``queued -> running -> done|failed|timeout``
(or are ``rejected`` at admission) and are queryable by job id; shutdown
drains the queue gracefully.
"""

from .http import make_wsgi_app
from .jobs import Job, JobState
from .server import AdmissionError, JobServer
from .shards import (
    ProcessShard,
    ShardCallTimeout,
    ShardDied,
    ShardPool,
    document_fingerprint,
)

__all__ = [
    "AdmissionError",
    "Job",
    "JobServer",
    "JobState",
    "ProcessShard",
    "ShardCallTimeout",
    "ShardDied",
    "ShardPool",
    "document_fingerprint",
    "make_wsgi_app",
]
