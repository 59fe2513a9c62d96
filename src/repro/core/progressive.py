"""Progressive (re-)optimization (Section 4.4 of the paper).

The key principle: re-optimize the plan whenever the cardinalities the
monitor observes greatly mismatch the estimates.  Every stage boundary in
this reproduction materializes its data, so every boundary is an
*optimization checkpoint*: after each stage the executor consults the
health check; on a mismatch it pauses, the remainder of the logical plan is
rewired onto the already-materialized channels (via
:class:`~repro.core.operators.ChannelSource`) and re-enumerated with the
TRUE cardinalities pinned, and execution resumes from the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..platforms.base import ExecutionOperator
from .batch import records_of
from .cardinality import CardinalityEstimate
from .cost import CostEstimate
from .execution import DRIVER_PLATFORM
from .executor import ExecutionResult, Executor, ReplanRequested
from .mappings import OperatorMapping
from .operators import ChannelSource, InputRef
from .optimizer import Optimizer
from .plan import RheemPlan


class ChannelSourceExec(ExecutionOperator):
    """Re-emits an already materialized channel at zero cost."""

    op_kind = "channel_source"

    def __init__(self, logical: ChannelSource) -> None:
        super().__init__(logical)
        self.platform = logical.channel.descriptor.platform or DRIVER_PLATFORM

    def input_descriptors(self):
        return []

    def output_descriptor(self):
        return self.logical.channel.descriptor

    def tasks_fraction(self, profile) -> float:
        return 0.0

    def cost_estimate(self, model, cins, cout):
        return CostEstimate.zero()

    def execute(self, inputs, broadcasts, ctx):
        # Detach: the stored channel may be re-emitted into several
        # residual plans, whose branches must not share mutable payloads.
        return self.logical.channel.detached()


def channel_source_mapping() -> OperatorMapping:
    """The mapping every context registers so residual plans are executable."""
    return OperatorMapping(ChannelSource,
                           lambda op: [ChannelSourceExec(op)],
                           name="mapping<ChannelSource>")


@dataclass
class ProgressiveReport:
    """What happened across a progressively optimized run."""

    result: ExecutionResult
    replans: int


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
        plan: The logical plan (rewired in place on each re-plan).
        make_optimizer: Builds an optimizer with the given measured
            cardinalities pinned as estimation overrides.
        executor: The executor to run on (carries cluster state).
        tolerance: Mismatch factor that triggers re-optimization.
        max_replans: Safety bound on re-optimization rounds.
    """
    overrides: dict[int, CardinalityEstimate] = {}
    tracker = None
    started: set[str] | None = None
    replans = 0

    while True:
        optimizer = make_optimizer(overrides)
        best, cards = optimizer.pick_best(plan)
        exec_plan = optimizer._build_execution_plan(plan, best)

        def checkpoint(monitor, completed_ids) -> bool:
            if replans >= max_replans:
                return False
            return any(m.logical_id not in overrides
                       for m in monitor.mismatches(tolerance))

        try:
            result = executor.execute(
                exec_plan,
                estimates=cards,
                tracker=tracker,
                checkpoint=checkpoint,
                sniffers=sniffers,
                started_platforms=started,
            )
            return ProgressiveReport(result=result, replans=replans)
        except ReplanRequested as paused:
            state = paused.state
            replans += 1
            executor.metrics.counter("progressive.replans").inc()
            with executor.tracer.span("progressive.replan",
                                      round=replans) as span:
                for logical_id, actual in state.monitor.actuals.items():
                    overrides[logical_id] = CardinalityEstimate.exact(actual)
                plan = _residual_plan(plan, state)
                # Re-enumeration reuses the conversion memo cache; the
                # running totals make that visible per replan round.
                for name, value in executor.graph.cache_stats.items():
                    span.set(f"conversion_cache.{name}", value)
            tracker = state.tracker
            started = state.started_platforms


@dataclass
class PausedJob:
    """A job paused at an optimization checkpoint (exploratory mode).

    The paper's executor "allows applications to run in an exploratory mode
    where they can pause and resume the execution of a task at any point";
    a paused job exposes the data materialized so far and resumes by
    re-optimizing the residual plan with the measured cardinalities pinned.
    """

    plan: RheemPlan
    state: object  # PausedExecution

    def inspect(self, logical_id: int):
        """The materialized payload of a completed operator's output (a
        collection as a plain record list, whatever its layout)."""
        return records_of(self.state.materialized[logical_id].payload)

    @property
    def completed(self) -> set[int]:
        return set(self.state.completed_logical_ids)


def execute_with_pause(
    plan: RheemPlan,
    make_optimizer,
    executor: Executor,
    break_after: set[int],
):
    """Run ``plan``, pausing once every operator in ``break_after`` has
    produced its output.

    Returns:
        A :class:`PausedJob` if the breakpoint was reached with work still
        outstanding, else the finished :class:`ExecutionResult`.
    """
    optimizer = make_optimizer({})
    best, cards = optimizer.pick_best(plan)
    exec_plan = optimizer._build_execution_plan(plan, best)

    def checkpoint(monitor, completed_ids) -> bool:
        return break_after <= completed_ids

    try:
        return executor.execute(exec_plan, estimates=cards,
                                checkpoint=checkpoint,
                                stage_breaks=set(break_after))
    except ReplanRequested as paused:
        return PausedJob(plan, paused.state)


def resume(paused: PausedJob, make_optimizer, executor: Executor):
    """Resume a paused job to completion.

    The residual plan is re-optimized with the cardinalities measured
    before the pause pinned as exact — resuming doubles as one progressive
    re-optimization round.
    """
    state = paused.state
    overrides = {logical_id: CardinalityEstimate.exact(actual)
                 for logical_id, actual in state.monitor.actuals.items()}
    residual = _residual_plan(paused.plan, state)
    optimizer = make_optimizer(overrides)
    best, cards = optimizer.pick_best(residual)
    exec_plan = optimizer._build_execution_plan(residual, best)
    return executor.execute(exec_plan, estimates=cards,
                            tracker=state.tracker,
                            started_platforms=state.started_platforms)


def _residual_plan(plan: RheemPlan, state) -> RheemPlan:
    """Rewire edges out of completed operators onto materialized channels.

    The plan is modified in place (operators are shared); a fresh
    :class:`RheemPlan` is returned so traversal caches are rebuilt.
    """
    completed = state.completed_logical_ids
    for op in plan.operators():
        if op.id in completed:
            continue
        for slot, ref in enumerate(op.inputs):
            if ref is not None and ref.op.id in completed:
                channel = state.materialized[ref.op.id]
                op.inputs[slot] = InputRef(ChannelSource(channel), 0)
        for slot, ref in enumerate(op.side_inputs):
            if ref.op.id in completed:
                channel = state.materialized[ref.op.id]
                op.side_inputs[slot] = InputRef(ChannelSource(channel), 0)
    return RheemPlan(plan.sinks)
