"""Execution monitoring (Section 4.3 of the paper).

The monitor reads light-weight statistics off the job's stage ledger —
true output cardinalities per logical operator and per-stage timings — and
checks the health of the execution: a large mismatch between measured and
estimated cardinalities pauses the plan and hands control to the
progressive optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simulation.clock import StageLedger, StageRecord
from .cardinality import CardinalityEstimate


@dataclass(slots=True)
class OperatorObservation:
    """One execution operator's measured behaviour within a stage.

    ``logical_id`` / ``name`` name the logical operator whose output
    cardinality ``cout`` measured (``None`` when the operator has no
    logical counterpart or its output count was not measured); the cost
    learner reads neither.  Not frozen: the executor builds one per
    operator run, loop iterations included, and a frozen dataclass's
    ``__init__`` costs several times a plain one's.
    """

    platform: str
    op_kind: str
    work: float
    cin: float
    cout: float
    logical_id: int | None = field(default=None, compare=False)
    name: str = field(default="", compare=False)


@dataclass
class StageObservation:
    """A stage-level execution log record (what the cost learner consumes).

    The paper's learner sees only stage runtimes, never isolated operator
    timings; ``known_seconds`` carries the directly metered non-CPU parts
    (I/O, network, dispatch) so the regression solves for the CPU model.
    Conversion-only stages keep an empty operator list: dropping them
    would silently bias the fit.
    """

    stage_id: str
    platform: str
    duration_s: float
    known_seconds: float
    operators: list[OperatorObservation]


@dataclass
class CardinalityMismatch:
    """One operator whose estimate missed the measured truth."""

    logical_id: int
    operator_name: str
    estimate: CardinalityEstimate
    actual: float


@dataclass
class Monitor:
    """Execution statistics for one job: reads over its stage ledger.

    Attributes:
        estimates: The optimizer's cardinality estimates per logical
            operator id (installed when the job starts).
        ledger: Every stage the job ran; only the records that survived
            are read here, in commit order.
    """

    estimates: dict[int, CardinalityEstimate] = field(default_factory=dict)
    ledger: StageLedger = field(default_factory=StageLedger)

    @property
    def stage_timings(self) -> list[StageRecord]:
        return self.ledger.surviving()

    @property
    def stage_observations(self) -> list[StageObservation]:
        return [StageObservation(
            r.stage_id, r.platform, r.duration,
            sum(e.seconds for e in r.meter.events if e.category != "cpu"),
            list(r.operators)) for r in self.ledger.surviving()]

    @property
    def actuals(self) -> dict[int, float]:
        """Measured simulated cardinalities per logical operator id (the
        latest measurement wins, e.g. across loop iterations)."""
        return {o.logical_id: o.cout for r in self.ledger.surviving()
                for o in r.operators if o.logical_id is not None}

    def mismatches(self, tolerance: float = 2.0) -> list[CardinalityMismatch]:
        """Operators whose measured cardinality falls badly outside the
        estimated interval (the health check that triggers re-optimization).
        """
        names = {o.logical_id: o.name for r in self.ledger.surviving()
                 for o in r.operators}
        out = []
        for logical_id, actual in self.actuals.items():
            estimate = self.estimates.get(logical_id)
            if estimate is None:
                continue
            if estimate.mismatches(actual, tolerance):
                out.append(CardinalityMismatch(
                    logical_id,
                    names[logical_id],
                    estimate,
                    actual,
                ))
        return out

    def is_healthy(self, tolerance: float = 2.0) -> bool:
        """Whether every measured cardinality is within tolerance."""
        return not self.mismatches(tolerance)

    def report(self) -> str:
        """A human-readable execution profile: per-stage timings with their
        dominant charges, plus any cardinality surprises."""
        lines = ["stage timeline (simulated seconds):"]
        for timing in self.stage_timings:
            top = max(timing.meter.events, key=lambda e: e.seconds,
                      default=None)
            dominant = (f"  [dominated by {top.label}: {top.seconds:.2f}s]"
                        if top and top.seconds > 0 else "")
            lines.append(f"  {timing.stage_id:<28} start={timing.start:8.2f} "
                         f"dur={timing.duration:8.2f}{dominant}")
        surprises = self.mismatches()
        if surprises:
            lines.append("cardinality surprises:")
            for m in surprises:
                lines.append(f"  {m.operator_name}: expected {m.estimate}, "
                             f"measured {m.actual:,.0f}")
        return "\n".join(lines)
