"""Structured tracing: spans with parent/child nesting and attributes.

A :class:`Tracer` records a tree of :class:`Span` objects — one per unit
of interesting work (an optimizer phase, an executor stage attempt, a
channel conversion).  Spans measure *wall-clock* driver time (via a
monotonic clock) and carry arbitrary attributes; simulated seconds are
attached as attributes so both timelines can be inspected side by side.

The subsystem is zero-cost when disabled: :data:`NO_TRACER` hands out a
shared no-op span and records nothing, so instrumented code never needs
an ``if tracing:`` guard.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..concurrency.runtime import OrderedLock


@dataclass
class Span:
    """One traced unit of work.

    Attributes:
        name: Span name, e.g. ``"optimizer.enumerate"`` or
            ``"stage:stage2"``.
        span_id: Unique id within the owning tracer.
        parent_id: ``span_id`` of the enclosing span (``None`` for roots).
        start: Seconds since the tracer's epoch when the span opened.
        end: Seconds since the epoch when it closed (``None`` while open).
        attributes: Free-form key/value annotations.
        children: Nested spans, in creation order.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock seconds this span was open (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (self included) with the given name."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready nested representation (for REST responses)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [c.to_json() for c in self.children],
        }


class _SpanHandle:
    """Context manager opening one span on ``__enter__``."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attributes)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        assert self._span is not None
        self._tracer._close(self._span)


class Tracer:
    """Records a tree of spans against a monotonic wall clock.

    The span stack is thread-local, so threads sharing one tracer (jobs
    of a server whose context traces) nest spans independently; the span
    *tree* itself is shared and guarded by a lock.

    Args:
        clock: Monotonic time source (injectable for deterministic tests).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._local = threading.local()
        self._lock = OrderedLock("tracer.spans")
        self._ids = itertools.count(1)
        self.roots: list[Span] = []

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _thread_stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a child span of the current span for a ``with`` block."""
        return _SpanHandle(self, name, attributes)

    def _open(self, name: str, attributes: dict[str, Any]) -> Span:
        stack = self._thread_stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(name, next(self._ids),
                        parent.span_id if parent is not None else None,
                        self._now(), attributes=dict(attributes))
            (parent.children if parent is not None else self.roots).append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._now()
        stack = self._thread_stack()
        while stack and stack[-1] is not span:
            stack.pop()  # orphaned children of an escaped exception
        if stack:
            stack.pop()

    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._thread_stack()
        return stack[-1] if stack else None

    def walk(self) -> Iterator[Span]:
        """Pre-order traversal over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """Every recorded span with the given name."""
        return [s for s in self.walk() if s.name == name]


class _NullSpan(Span):
    """Shared do-nothing span handed out by :data:`NO_TRACER`."""

    def set(self, key: str, value: Any) -> None:
        return None


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan("null", 0, None, 0.0, end=0.0)
_NULL_HANDLE = _NullHandle()


class NullTracer:
    """The disabled tracer: every span is the same throwaway object."""

    enabled = False
    roots: list[Span] = []

    def span(self, name: str, **attributes: Any) -> _NullHandle:
        return _NULL_HANDLE

    def current(self) -> Span | None:
        return None

    def walk(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> list[Span]:
        return []


#: Process-wide disabled tracer (safe to share: it holds no state).
NO_TRACER = NullTracer()
