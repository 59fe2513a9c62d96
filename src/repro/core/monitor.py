"""Execution monitoring (Section 4.3 of the paper).

The monitor collects light-weight statistics while a plan runs — true
output cardinalities per logical operator and per-stage timings — and
checks the health of the execution: a large mismatch between measured and
estimated cardinalities pauses the plan and hands control to the
progressive optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simulation.clock import StageTiming
from ..trace import MetricsRegistry
from .cardinality import CardinalityEstimate


@dataclass(frozen=True)
class OperatorObservation:
    """One execution operator's measured behaviour within a stage."""

    platform: str
    op_kind: str
    work: float
    cin: float
    cout: float


@dataclass
class StageObservation:
    """A stage-level execution log record (what the cost learner consumes).

    The paper's learner sees only stage runtimes, never isolated operator
    timings; ``known_seconds`` carries the directly metered non-CPU parts
    (I/O, network, dispatch) so the regression solves for the CPU model.
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
    """Collects execution statistics for one job.

    Attributes:
        estimates: The optimizer's cardinality estimates per logical
            operator id (installed when the job starts).
        actuals: Measured simulated cardinalities per logical operator id
            (the latest measurement wins, e.g. across loop iterations).
    """

    estimates: dict[int, CardinalityEstimate] = field(default_factory=dict)
    actuals: dict[int, float] = field(default_factory=dict)
    operator_names: dict[int, str] = field(default_factory=dict)
    stage_timings: list[StageTiming] = field(default_factory=list)
    stage_observations: list[StageObservation] = field(default_factory=list)
    metrics: MetricsRegistry | None = field(default=None, repr=False)

    def record_cardinality(self, exec_op, sim_cardinality: float) -> None:
        """Called by the execution context after each operator output."""
        logical = exec_op.logical
        if logical is None:
            return
        self.actuals[logical.id] = sim_cardinality
        self.operator_names[logical.id] = logical.name
        if self.metrics is not None:
            self.metrics.counter("monitor.cardinalities").inc()

    def record_stage(self, timing: StageTiming,
                     platform: str = "",
                     operators: list[OperatorObservation] | None = None
                     ) -> None:
        """Log one executed stage.

        Conversion-only stages (no operator observations) are recorded
        with an empty operator list so their directly metered
        ``known_seconds`` still reach the cost learner's calibration —
        dropping them would silently bias the fit.
        """
        self.stage_timings.append(timing)
        known = sum(e.seconds for e in timing.meter.events
                    if e.category != "cpu")
        self.stage_observations.append(StageObservation(
            timing.stage_id, platform, timing.duration, known,
            list(operators or [])))
        if self.metrics is not None:
            self.metrics.counter("monitor.stages").inc()
            self.metrics.histogram("monitor.stage_sim_seconds").observe(
                timing.duration)

    def absorb(self, other: "Monitor") -> None:
        """Fold a committed per-attempt buffer into this monitor.

        The executor runs every stage attempt against a scratch monitor
        and absorbs it only on success, so crashed attempts never leak
        observations into the progressive optimizer's view.
        """
        self.actuals.update(other.actuals)
        self.operator_names.update(other.operator_names)
        self.stage_timings.extend(other.stage_timings)
        self.stage_observations.extend(other.stage_observations)

    def mismatches(self, tolerance: float = 2.0) -> list[CardinalityMismatch]:
        """Operators whose measured cardinality falls badly outside the
        estimated interval (the health check that triggers re-optimization).
        """
        out = []
        for logical_id, actual in self.actuals.items():
            estimate = self.estimates.get(logical_id)
            if estimate is None:
                continue
            if estimate.mismatches(actual, tolerance):
                out.append(CardinalityMismatch(
                    logical_id,
                    self.operator_names.get(logical_id, f"op#{logical_id}"),
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
