"""Simulated time accounting.

The reproduction executes real data transformations but charges *simulated*
time: every engine reports its work to a :class:`CostMeter`, and the executor
aggregates stage meters along the critical path of the stage-dependency
graph.  This lets laptop-scale datasets reproduce the runtime *shapes* of the
paper's 10-node-cluster experiments deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostEvent:
    """A single charge of simulated time.

    Attributes:
        label: Human-readable description, e.g. ``"sparklite.map"``.
        seconds: Simulated seconds charged.
        category: Coarse resource bucket (``cpu``, ``io``, ``net``,
            ``overhead``) used by reports and by the cost learner.
    """

    label: str
    seconds: float
    category: str = "cpu"


class CostMeter:
    """Accumulates simulated-time charges for one unit of execution.

    A meter is created per execution stage (and per conversion operator); the
    executor sums meters along the critical path to obtain the job runtime.
    """

    def __init__(self) -> None:
        self._events: list[CostEvent] = []
        self._total = 0.0

    def charge(self, seconds: float, label: str, category: str = "cpu") -> None:
        """Charge ``seconds`` of simulated time."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds!r} for {label}")
        self._events.append(CostEvent(label, seconds, category))
        self._total += seconds

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's events into this one (sequential composition)."""
        self._events.extend(other.events)
        self._total += other.total

    @property
    def total(self) -> float:
        """Total simulated seconds charged so far."""
        return self._total

    @property
    def events(self) -> list[CostEvent]:
        """The individual charges, in order."""
        return list(self._events)

    def by_category(self) -> dict[str, float]:
        """Simulated seconds summed per category."""
        out: dict[str, float] = {}
        for event in self._events:
            out[event.category] = out.get(event.category, 0.0) + event.seconds
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostMeter(total={self._total:.4f}s, events={len(self._events)})"


@dataclass
class StageTiming:
    """Critical-path bookkeeping for one executed stage."""

    stage_id: str
    start: float
    duration: float
    meter: CostMeter = field(repr=False, default_factory=CostMeter)

    @property
    def end(self) -> float:
        return self.start + self.duration


class CriticalPathTracker:
    """Aggregates stage timings into an overall simulated runtime.

    Stages that depend on each other run back to back; independent stages
    overlap (inter-platform parallelism, Section 1 challenge (iv) of the
    paper).  The job's simulated runtime is the maximum stage end time.
    No stage starts before ``origin`` — the makespan of the paused run a
    resumed job continues from.
    """

    def __init__(self, origin: float = 0.0) -> None:
        self.origin = origin
        self._timings: dict[str, StageTiming] = {}

    def record(self, stage_id: str, dependencies: list[str], meter: CostMeter) -> StageTiming:
        """Record a completed stage; its start is the latest dependency end."""
        start = self.origin
        for dep in dependencies:
            if dep in self._timings:
                start = max(start, self._timings[dep].end)
        timing = StageTiming(stage_id, start, meter.total, meter)
        self._timings[stage_id] = timing
        return timing

    def end_of(self, stage_id: str) -> float | None:
        """End time of a recorded stage, or ``None`` if unknown."""
        timing = self._timings.get(stage_id)
        return None if timing is None else timing.end

    @property
    def makespan(self) -> float:
        """Simulated end-to-end runtime of everything recorded so far."""
        return max((t.end for t in self._timings.values()),
                   default=self.origin)

    @property
    def busy_time(self) -> float:
        """Sum of all stage durations (ignores overlap)."""
        return sum(t.duration for t in self._timings.values())

    def timings(self) -> list[StageTiming]:
        """All stage timings in recording order."""
        return list(self._timings.values())
