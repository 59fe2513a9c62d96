"""Trace exporters: JSON-lines, Chrome ``chrome://tracing`` and summaries.

Three consumers, three formats:

* tests and the REST service read the in-memory span tree directly
  (:meth:`Span.to_json` / :func:`trace_block`);
* :func:`write_jsonl` streams one JSON object per span (plus a final
  metrics record) for offline processing;
* :func:`chrome_trace` renders the *wall-clock* span tree and the
  *simulated* :class:`~repro.simulation.clock.CriticalPathTracker`
  timelines into the Chrome trace-event format, so a whole cross-platform
  job — optimizer phases, every stage attempt, conversions, retries — can
  be inspected visually in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence, TextIO

from .metrics import MetricsRegistry
from .spans import Span, Tracer

#: Chrome trace-event pids for the two timelines.
WALL_PID = 1
SIMULATED_PID_BASE = 2


def span_records(tracer: Tracer) -> list[dict[str, Any]]:
    """Flat JSON-ready records (with parent ids) for every span."""
    out = []
    for span in tracer.walk():
        out.append({
            "type": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "start": span.start,
            "duration": span.duration,
            "attributes": dict(span.attributes),
        })
    return out


def write_jsonl(handle: TextIO, tracer: Tracer,
                metrics: MetricsRegistry | None = None) -> int:
    """Write one JSON object per line: spans, then a metrics record.

    Returns the number of lines written.
    """
    records: list[dict[str, Any]] = span_records(tracer)
    if metrics is not None:
        records.append({"type": "metrics", **metrics.snapshot()})
    for record in records:
        handle.write(json.dumps(record, default=repr) + "\n")
    return len(records)


def _wall_events(tracer: Tracer) -> list[dict[str, Any]]:
    """Wall-clock spans as X events on tid 1 of the driver's pid."""
    return [{
        "name": span.name,
        "cat": "driver",
        "ph": "X",
        "ts": round(span.start * 1e6, 3),
        "dur": round(span.duration * 1e6, 3),
        "pid": WALL_PID,
        "tid": 1,
        "args": dict(span.attributes),
    } for span in tracer.walk()]


def _lane_of(start: float, lanes: list[float]) -> int:
    """First free lane for an event starting at ``start`` (greedy)."""
    for lane, busy_until in enumerate(lanes):
        if start >= busy_until - 1e-12:
            return lane
    lanes.append(0.0)
    return len(lanes) - 1


def _simulated_events(tracker: Any, pid: int) -> list[dict[str, Any]]:
    """Stage timings as overlap-stacked X events on one simulated pid."""
    events: list[dict[str, Any]] = []
    lanes: list[float] = []
    for timing in sorted(tracker.timings(), key=lambda t: (t.start, t.stage_id)):
        lane = _lane_of(timing.start, lanes)
        lanes[lane] = timing.end
        events.append({
            "name": timing.stage_id,
            "cat": "simulated",
            "ph": "X",
            "ts": round(timing.start * 1e6, 3),
            "dur": round(timing.duration * 1e6, 3),
            "pid": pid,
            "tid": lane + 1,
            "args": {k: round(v, 6)
                     for k, v in timing.meter.by_category().items()},
        })
    return events


def chrome_trace(tracer: Tracer | None = None,
                 trackers: Sequence[Any] = (),
                 metrics: MetricsRegistry | None = None) -> dict[str, Any]:
    """Build a Chrome trace-event document.

    The driver's wall-clock spans land on pid 1; each tracker's simulated
    stage timeline gets its own pid (2, 3, ...).  Both timelines use
    microseconds, so durations are comparable lane by lane even though
    their clocks differ.
    """
    events: list[dict[str, Any]] = []
    if tracer is not None:
        events.append(_process_name(WALL_PID, "driver (wall-clock)"))
        events.extend(_wall_events(tracer))
    for index, tracker in enumerate(trackers):
        pid = SIMULATED_PID_BASE + index
        events.append(_process_name(pid, f"job {index} (simulated)"))
        events.extend(_simulated_events(tracker, pid))
    document: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        document["otherData"] = metrics.snapshot()
    return document


def _process_name(pid: int, name: str) -> dict[str, Any]:
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name}}


def write_chrome_trace(handle: TextIO, tracer: Tracer | None = None,
                       trackers: Sequence[Any] = (),
                       metrics: MetricsRegistry | None = None) -> int:
    """Serialize :func:`chrome_trace` to ``handle``; returns event count."""
    document = chrome_trace(tracer, trackers, metrics)
    json.dump(document, handle, default=repr)
    handle.write("\n")
    return len(document["traceEvents"])


def trace_block(tracer: Tracer | None = None,
                metrics: MetricsRegistry | None = None) -> dict[str, Any]:
    """The ``trace`` block attached to REST responses."""
    block: dict[str, Any] = {
        "spans": [root.to_json() for root in tracer.roots]
        if tracer is not None else [],
    }
    if metrics is not None:
        block["metrics"] = metrics.snapshot()
    return block


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    attrs = " ".join(f"{k}={v}" for k, v in span.attributes.items())
    suffix = f"  [{attrs}]" if attrs else ""
    lines.append(f"  {'  ' * depth}{span.name:<{max(1, 40 - 2 * depth)}} "
                 f"{span.duration * 1e3:9.3f} ms{suffix}")
    for child in span.children:
        _render_span(child, depth + 1, lines)


#: Hit/miss counter pairs rendered as derived "cache hit rates" lines.
_CACHE_RATE_SOURCES = (
    ("execution plans", "plan_cache.hits", "plan_cache.misses"),
    ("intermediate results", "intermediate.hits", "intermediate.misses"),
)


def profile_summary(tracer: Tracer | None = None,
                    metrics: MetricsRegistry | None = None,
                    spans: Iterable[Span] | None = None) -> str:
    """Human-readable profile: the span tree plus the metrics snapshot."""
    lines: list[str] = []
    roots = list(spans) if spans is not None else (
        list(tracer.roots) if tracer is not None else [])
    if roots:
        lines.append("wall-clock spans:")
        for root in roots:
            _render_span(root, 0, lines)
    if metrics is not None:
        snapshot = metrics.snapshot()
        if snapshot["counters"]:
            lines.append("counters:")
            for name, value in snapshot["counters"].items():
                lines.append(f"  {name:<40} {value:12g}")
            rates = []
            for label, hit_key, miss_key in _CACHE_RATE_SOURCES:
                hits = snapshot["counters"].get(hit_key, 0)
                total = hits + snapshot["counters"].get(miss_key, 0)
                if total:
                    rates.append(f"  {label:<40} {hits / total:11.1%} "
                                 f"({hits:g}/{total:g})")
            if rates:
                lines.append("cache hit rates:")
                lines.extend(rates)
        if snapshot["gauges"]:
            lines.append("gauges:")
            for name, value in snapshot["gauges"].items():
                lines.append(f"  {name:<40} {value:12g}")
        if snapshot["histograms"]:
            lines.append("histograms:")
            for name, stats in snapshot["histograms"].items():
                lines.append(
                    f"  {name:<40} n={stats['count']} mean={stats['mean']:g} "
                    f"min={stats['min']:g} max={stats['max']:g}")
    return "\n".join(lines)
