"""Concurrency correctness tooling: the lock registry and ordered locks.

* :mod:`repro.concurrency.order` — the machine-readable lock hierarchy
  (the single source of truth DESIGN.md points at);
* :mod:`repro.concurrency.runtime` — the ``OrderedLock`` wrapper with
  per-thread rank assertions and wait/hold histograms.

The static companion — the AST checker behind ``python -m repro lint
--concurrency`` — lives in :mod:`repro.analysis.locks` so it can share
the analysis subsystem's diagnostics machinery.
"""

from .order import (
    LOCK_ORDER,
    LockSpec,
    UnknownLockError,
    lock_spec,
    validate_order,
)
from .runtime import (
    LockOrderViolation,
    OrderedLock,
    debug_enabled,
    held_locks,
    set_debug,
)

__all__ = [
    "LOCK_ORDER",
    "LockOrderViolation",
    "LockSpec",
    "OrderedLock",
    "UnknownLockError",
    "debug_enabled",
    "held_locks",
    "lock_spec",
    "set_debug",
    "validate_order",
]
