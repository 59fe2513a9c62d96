"""Progressive (re-)optimization (Section 4.4 of the paper).

The key principle: re-optimize the plan whenever the cardinalities the
monitor observes greatly mismatch the estimates.  Every stage boundary in
this reproduction materializes its data, so every boundary is an
*optimization checkpoint*: after each stage the executor consults the
health check; on a mismatch it pauses, and what the job has materialized
becomes the reuse roots of its own plan
(:class:`~repro.core.optimizer.ReuseProbe`, exactly as a result-store hit
would): the operators below them are re-enumerated with the TRUE
cardinalities pinned, and execution resumes from the checkpoint.  The
caller's plan is only ever read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .batch import records_of
from .cardinality import CardinalityEstimate
from .channels import Channel
from .executor import (CheckpointHook, ExecutionResult, Executor,
                       ReplanRequested)
from .monitor import Monitor
from .optimizer import Optimizer, ReuseProbe, reuse_roots
from .plan import RheemPlan


@dataclass
class ProgressiveReport:
    """What happened across a progressively optimized run."""

    result: ExecutionResult
    replans: int


@dataclass
class PausedJob:
    """A job at rest: not yet started, or paused at an optimization
    checkpoint.

    The paper's executor "allows applications to run in an exploratory mode
    where they can pause and resume the execution of a task at any point";
    a paused job exposes the data materialized so far and resumes by
    re-optimizing what is left of its plan with the measured cardinalities
    pinned.
    """

    plan: RheemPlan
    #: Logical operator id -> output channel, over every run of the job.
    materialized: dict[int, Channel] = field(default_factory=dict)
    #: Every cardinality the job has measured, pinned as exact.
    overrides: dict[int, CardinalityEstimate] = field(default_factory=dict)
    monitor: Monitor | None = None  # of the run that paused
    started_platforms: set[str] = field(default_factory=set)
    makespan: float = 0.0

    def inspect(self, logical_id: int):
        """The materialized payload of a completed operator's output (a
        collection as a plain record list, whatever its layout)."""
        return records_of(self.materialized[logical_id].payload)

    @property
    def completed(self) -> set[int]:
        return set(self.materialized)

    def reuse(self) -> ReuseProbe:
        """What is left to do: the completed operators closest to the
        sinks are the roots (a completed sink hands out its payload), the
        platforms the job runs on are started, and a root is as wide as
        its channel measured."""
        roots, needed = reuse_roots(
            self.plan, lambda op: self.materialized.get(op.id))
        return ReuseProbe(
            roots, needed, started=frozenset(self.started_platforms),
            widths={op_id: channel.bytes_per_record
                    for op_id, channel in roots.items()})


def run_to_checkpoint(
    job: PausedJob,
    make_optimizer: Callable[[dict[int, CardinalityEstimate]], Optimizer],
    executor: Executor,
    checkpoint: CheckpointHook | None = None,
    **execute_options,
) -> ExecutionResult | PausedJob:
    """Optimize what ``job`` has left of its plan and run it until it
    finishes or ``checkpoint`` pauses it (``job`` itself is only read).

    Raises:
        OptimizationError: If a materialized channel is unreachable from
            every alternative downstream of it.  Nothing has run then.
    """
    optimizer = make_optimizer(job.overrides)
    best, cards = optimizer.pick_best(job.plan, reuse=job.reuse())
    exec_plan = optimizer._build_execution_plan(job.plan, best)
    try:
        return executor.execute(
            exec_plan, estimates=cards, checkpoint=checkpoint,
            started_platforms=set(job.started_platforms),
            start_at=job.makespan, **execute_options)
    except ReplanRequested as pause:
        measured = {logical_id: CardinalityEstimate.exact(actual)
                    for logical_id, actual in pause.monitor.actuals.items()}
        return PausedJob(
            job.plan, {**job.materialized, **pause.materialized},
            {**job.overrides, **measured}, pause.monitor,
            pause.started_platforms, pause.makespan)


def execute_progressively(
    plan: RheemPlan,
    make_optimizer: Callable[[dict[int, CardinalityEstimate]], Optimizer],
    executor: Executor,
    tolerance: float = 2.0,
    max_replans: int = 5,
    sniffers=(),
) -> ProgressiveReport:
    """Optimize/execute/re-optimize until the plan completes.

    Args:
        plan: The logical plan.
        make_optimizer: Builds an optimizer with the given measured
            cardinalities pinned as estimation overrides.
        executor: The executor to run on (carries cluster state).
        tolerance: Mismatch factor that triggers re-optimization.
        max_replans: Safety bound on re-optimization rounds.
    """
    job = PausedJob(plan)
    replans = 0

    def checkpoint(monitor, completed_ids) -> bool:
        if replans >= max_replans:
            return False
        return any(m.logical_id not in job.overrides
                   for m in monitor.mismatches(tolerance))

    while True:
        outcome = run_to_checkpoint(job, make_optimizer, executor,
                                    checkpoint, sniffers=sniffers)
        if isinstance(outcome, ExecutionResult):
            return ProgressiveReport(result=outcome, replans=replans)
        job = outcome
        replans += 1
        executor.metrics.counter("progressive.replans").inc()
