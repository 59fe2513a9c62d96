"""A process-local metrics registry: counters, gauges and histograms.

One registry is shared per :class:`~repro.core.context.RheemContext` by the
monitor, the executor, the optimizer, the cost learner and the REST
service, so a whole cross-platform job rolls up into a single snapshot.
Instruments are created on first use (``registry.counter("x").inc()``)
and are deliberately tiny — a few float fields — so the hot path can
update them unconditionally.

The registry is shared across the job server's worker threads, so every
instrument update happens under one process-wide lock (``a += b`` on a
float is not atomic at the bytecode level).  The lock is the *innermost*
lock of the runtime (see ``DESIGN.md``, "Lock order"): no code path may
acquire another lock while holding it, which makes it always safe to take.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..concurrency.runtime import OrderedLock

#: Guards every instrument mutation and the registry's instrument tables.
#: Innermost lock in the documented lock order: never acquire any other
#: lock while holding it.
_METRICS_LOCK = OrderedLock("metrics")


def _reset_metrics_lock_after_fork() -> None:
    """Replace the module lock with a fresh one in a forked child.

    The job server's process shards are forked while parent threads may
    hold the metrics lock (every instrument update takes it); the child
    would inherit it in the locked state and deadlock on its first
    counter increment.  Instruments look the lock up through the module
    global on every use, so swapping the global is sufficient.
    """
    global _METRICS_LOCK
    _METRICS_LOCK = OrderedLock("metrics")


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_reset_metrics_lock_after_fork)


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount!r}")
        with _METRICS_LOCK:
            self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        with _METRICS_LOCK:
            self.value = float(value)


@dataclass
class Histogram:
    """Summary statistics over observed samples.

    Keeps count/sum/min/max plus a bounded reservoir of the most recent
    samples for percentile queries in tests and reports.
    """

    name: str
    reservoir_size: int = 256
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.observe_all((value,))

    def observe_all(self, values: Iterable[float]) -> None:
        """Record samples in order, under one lock acquisition."""
        with _METRICS_LOCK:
            for value in values:
                value = float(value)
                self.count += 1
                self.total += value
                self.min = min(self.min, value)
                self.max = max(self.max, value)
                if len(self.samples) < self.reservoir_size:
                    self.samples.append(value)
                else:  # ring-buffer the reservoir: overwrite the oldest
                    self.samples[(self.count - 1) % self.reservoir_size] = (
                        value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the retained reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with _METRICS_LOCK:
            ordered = sorted(self.samples)
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_json(self) -> dict[str, float]:
        with _METRICS_LOCK:
            if not self.count:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "mean": 0.0}
            return {"count": self.count, "sum": self.total, "min": self.min,
                    "max": self.max, "mean": self.total / self.count}


class MetricsRegistry:
    """Creates-and-caches named instruments; snapshots to JSON."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            with _METRICS_LOCK:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            with _METRICS_LOCK:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            with _METRICS_LOCK:
                instrument = self._histograms.setdefault(
                    name, Histogram(name))
        return instrument

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready dump of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.to_json()
                           for n, h in sorted(self._histograms.items())},
        }


def merge_snapshots(*snapshots: dict[str, Any]) -> dict[str, Any]:
    """Aggregate registry snapshots from several processes into one.

    The process-backend job server keeps one :class:`MetricsRegistry` per
    worker shard (plus the parent's own); ``/metrics`` merges them into a
    single snapshot with the exact single-registry shape:

    * **counters** sum — each shard counted disjoint events;
    * **gauges** sum — every multi-process gauge in the tree is an
      occupancy or byte total (queue depth, in-flight stages, store
      bytes), for which the fleet-wide value is the sum;
    * **histograms** merge exactly on count/sum/min/max, with the mean
      recomputed from the merged totals (reservoir percentiles are
      per-process and are not merged).
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, float]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, hist in snap.get("histograms", {}).items():
            if not hist.get("count"):
                continue
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = dict(hist)
                continue
            merged["count"] += hist["count"]
            merged["sum"] += hist["sum"]
            merged["min"] = min(merged["min"], hist["min"])
            merged["max"] = max(merged["max"], hist["max"])
    for hist in histograms.values():
        hist["mean"] = hist["sum"] / hist["count"]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
