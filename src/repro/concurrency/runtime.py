"""A rank-asserting, contention-instrumented lock wrapper.

:class:`OrderedLock` is a drop-in replacement for ``threading.Lock`` that
resolves its position in the documented hierarchy from
:mod:`repro.concurrency.order` by name:

* **rank assertions** (under the debug flag — on in the test suite, off
  on production hot paths): each thread tracks the stack of ordered
  locks it holds; acquiring a lock whose rank is not strictly greater
  than every held rank raises :class:`LockOrderViolation` *before*
  touching the underlying lock, turning a potential deadlock into an
  immediate, stack-traced failure;
* **contention observability** (whenever a metrics registry is given):
  wait time (request to acquisition) and hold time (acquisition to
  release) feed ``lock.wait_s.<name>`` / ``lock.hold_s.<name>``
  histograms, surfaced by ``/metrics`` and ``--profile``.

The debug flag defaults to the ``REPRO_LOCK_CHECK`` environment variable
and is forced on by ``tests/conftest.py``.  With the flag off and no
metrics registry attached, ``acquire``/``release`` delegate straight to
the underlying primitive.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Any

from .order import lock_spec

if TYPE_CHECKING:  # pragma: no cover — runtime import would be circular
    from ..trace.metrics import Histogram, MetricsRegistry


class LockOrderViolation(RuntimeError):
    """A thread tried to acquire a lock out of hierarchy order."""


_DEBUG = os.environ.get("REPRO_LOCK_CHECK", "") not in ("", "0")

_HELD = threading.local()


def _reset_held_after_fork() -> None:
    """Clear the forking thread's held-lock stack in the child.

    A forked child (the job server's process shards) inherits the
    spawning thread's thread-local state; any ordered locks that thread
    held at fork time would otherwise look "held" forever in the child
    and poison its rank assertions.
    """
    global _HELD
    _HELD = threading.local()


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_reset_held_after_fork)


def set_debug(enabled: bool) -> None:
    """Turn per-thread rank assertions on or off (process-wide)."""
    global _DEBUG
    _DEBUG = bool(enabled)


def debug_enabled() -> bool:
    """Whether rank assertions are active."""
    return _DEBUG


def _stack() -> list[tuple["OrderedLock", float]]:
    """The calling thread's stack of held ordered locks."""
    try:
        return _HELD.stack  # type: ignore[no-any-return]
    except AttributeError:
        stack: list[tuple[OrderedLock, float]] = []
        _HELD.stack = stack
        return stack


def held_locks() -> list[str]:
    """Names of the ordered locks the calling thread currently holds."""
    return [lock.name for lock, _ in _stack()]


class OrderedLock:
    """A ``threading.Lock`` bound to a rank in the documented hierarchy.

    Args:
        name: Registry name (must be declared in
            :data:`repro.concurrency.order.LOCK_ORDER`).
        metrics: When given, wait/hold times are recorded into
            ``lock.wait_s.<name>`` / ``lock.hold_s.<name>`` histograms.
            The innermost metrics lock itself runs uninstrumented, so
            recording never recurses.
    """

    __slots__ = ("_hold_hist", "_inner", "_wait_hist", "name", "rank")

    def __init__(self, name: str,
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.name = name
        self.rank = lock_spec(name).rank
        self._inner = threading.Lock()
        self._wait_hist: Histogram | None = None
        self._hold_hist: Histogram | None = None
        if metrics is not None:
            self._wait_hist = metrics.histogram(f"lock.wait_s.{name}")
            self._hold_hist = metrics.histogram(f"lock.hold_s.{name}")

    def _check_order(self, stack: list[tuple["OrderedLock", float]]) -> None:
        if not stack:
            return
        max_rank = max(held.rank for held, _ in stack)
        if self.rank > max_rank:
            return
        held_desc = " -> ".join(f"{held.name}(rank {held.rank})"
                                for held, _ in stack)
        raise LockOrderViolation(
            f"acquiring {self.name!r} (rank {self.rank}) while holding "
            f"{held_desc}; locks must be taken in strictly increasing "
            f"rank order — see repro.concurrency.order.LOCK_ORDER")

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock, asserting rank order first."""
        debug = _DEBUG
        if debug:
            self._check_order(_stack())
        if not debug and self._wait_hist is None:
            return self._inner.acquire(blocking, timeout)
        started = time.perf_counter()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            now = time.perf_counter()
            if self._wait_hist is not None:
                self._wait_hist.observe(now - started)
            _stack().append((self, now))
        return acquired

    def release(self) -> None:
        """Release the underlying lock and record the hold time."""
        stack = _stack()
        acquired_at: float | None = None
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] is self:
                acquired_at = stack.pop(i)[1]
                break
        self._inner.release()
        if acquired_at is not None and self._hold_hist is not None:
            self._hold_hist.observe(time.perf_counter() - acquired_at)

    def locked(self) -> bool:
        """Whether the underlying lock is currently held."""
        return bool(self._inner.locked())

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} rank={self.rank} "
                f"at {id(self):#x}>")


__all__ = [
    "LockOrderViolation", "OrderedLock", "debug_enabled", "held_locks",
    "set_debug",
]
