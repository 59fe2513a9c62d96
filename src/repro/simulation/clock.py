"""Simulated time accounting.

The reproduction executes real data transformations but charges *simulated*
time: every engine reports its work to a :class:`CostMeter`, and the executor
aggregates stage meters along the critical path of the stage-dependency
graph.  This lets laptop-scale datasets reproduce the runtime *shapes* of the
paper's 10-node-cluster experiments deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


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
    Charges are kept as plain tuples and become :class:`CostEvent` objects
    only when read.
    """

    __slots__ = ("_events", "total")

    def __init__(self) -> None:
        self._events: list[tuple[str, float, str]] = []
        #: Total simulated seconds charged so far.
        self.total = 0.0

    def charge(self, seconds: float, label: str, category: str = "cpu") -> None:
        """Charge ``seconds`` of simulated time."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds!r} for {label}")
        self._events.append((label, seconds, category))
        self.total += seconds

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's events into this one (sequential composition)."""
        self._events.extend(other._events)
        self.total += other.total

    @property
    def events(self) -> list[CostEvent]:
        """The individual charges, in order."""
        return [CostEvent(*event) for event in self._events]

    def by_category(self) -> dict[str, float]:
        """Simulated seconds summed per category."""
        out: dict[str, float] = {}
        for __, seconds, category in self._events:
            out[category] = out.get(category, 0.0) + seconds
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostMeter(total={self.total:.4f}s, events={len(self._events)})"


@dataclass(slots=True)
class StageRecord:
    """One run of one stage: an attempt, whether or not it survived.

    ``operators`` are the monitor's per-operator observations.  A record
    is wasted (``survived`` false) when its own attempt crashed or when
    an enclosing attempt (the loop driver stage it ran under) crashed
    later; the cluster paid for it all the same.
    """

    stage_id: str
    attempt: int
    platform: str
    start: float
    meter: CostMeter = field(repr=False)
    operators: list = field(default_factory=list, repr=False)
    survived: bool = True

    @property
    def duration(self) -> float:
        return self.meter.total

    @property
    def end(self) -> float:
        return self.start + self.meter.total

    @property
    def label(self) -> str:
        """The stage id, tagged with its attempt when the record was
        wasted."""
        return (self.stage_id if self.survived
                else f"{self.stage_id}.attempt{self.attempt}")


class StageLedger:
    """A job's append-only record of every stage it ran, in commit order.

    Stages that depend on each other run back to back; independent stages
    overlap (inter-platform parallelism, Section 1 challenge (iv) of the
    paper): the executor places each record's start, and the job's
    simulated runtime is the maximum end over all records.  A resumed job
    appends to the ledger of the run it continues.
    """

    def __init__(self, records: Iterable[StageRecord] = ()) -> None:
        self.records = list(records)

    def record(self, stage_id: str, attempt: int, platform: str,
               start: float, meter: CostMeter,
               operators: list = ()) -> StageRecord:
        """Append one stage run starting at simulated time ``start``."""
        record = StageRecord(stage_id, attempt, platform, start, meter,
                             list(operators))
        self.records.append(record)
        return record

    def surviving(self) -> list[StageRecord]:
        """The records that survived, in commit order."""
        return [r for r in self.records if r.survived]

    @property
    def makespan(self) -> float:
        """Simulated end-to-end runtime of everything recorded so far."""
        return max((r.end for r in self.records), default=0.0)
