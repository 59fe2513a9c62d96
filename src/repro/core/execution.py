"""Execution plans: tasks, stages, and the execution context.

The optimizer turns a Rheem plan into an :class:`ExecutionPlan` — a DAG of
:class:`ExecutionTask` vertices, each wrapping a platform execution operator
(or a :class:`LoopImplementation`), with per-edge conversion paths where the
producing and consuming platforms differ.  The executor cuts the plan into
*stages* (maximal single-platform subplans, Section 4.2) and dispatches them
in dependency order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from ..simulation.clock import CostMeter
from ..simulation.cluster import VirtualCluster
from .channels import ConversionPath
from .operators import LoopOperator

if TYPE_CHECKING:  # pragma: no cover
    from ..platforms.base import ExecutionOperator

_task_id_counter = itertools.count(1)

#: Pseudo-platform for tasks the Rheem driver itself runs (loop heads).
DRIVER_PLATFORM = "driver"


@dataclass
class ExecutionContext:
    """Everything an execution operator may touch while running.

    The executor makes one per prepared stage list and sets :attr:`meter`
    per stage attempt so charges land on the right stage record.
    """

    cluster: VirtualCluster
    meter: CostMeter = field(default_factory=CostMeter)
    pgres: Any = None
    #: The job's random seed (the context's ``seed`` config key).
    seed: int = 42
    #: Loop-iteration index of the stage being executed (0 outside loops).
    #: Operators that need per-iteration variation (e.g. sampling) derive it
    #: from here instead of mutating instance state, so crash-retried
    #: attempts of the same iteration see the same value.
    epoch: int = 0
    #: ``charge_operator``'s lookups per operator, made at its first charge.
    prices: dict = field(default_factory=dict)

    @property
    def vfs(self):
        return self.cluster.vfs

    def profile(self, platform: str):
        return self.cluster.profile(platform)


@dataclass
class TaskInput:
    """One wired input edge of a task.

    Attributes:
        producer: Upstream task whose output feeds this edge.
        conversion: Channel conversions to apply on this edge (empty path
            when producer and consumer speak the same channel).
    """

    producer: "ExecutionTask"
    conversion: ConversionPath


class ExecutionTask:
    """One vertex of an execution plan."""

    def __init__(
        self,
        operator: "ExecutionOperator",
        inputs: list[TaskInput] | None = None,
        broadcast_inputs: list[TaskInput] | None = None,
    ) -> None:
        self.id = next(_task_id_counter)
        self.operator = operator
        self.inputs = list(inputs or [])
        self.broadcast_inputs = list(broadcast_inputs or [])

    @property
    def platform(self) -> str:
        return self.operator.platform

    @property
    def logical_id(self) -> int | None:
        logical = self.operator.logical
        return logical.id if logical is not None else None

    def producers(self) -> list["ExecutionTask"]:
        return [ti.producer for ti in self.inputs + self.broadcast_inputs]

    def __repr__(self) -> str:
        return f"Task#{self.id}({self.operator.name})"


@dataclass
class ExecutionStage:
    """A maximal single-platform subplan dispatched as one unit."""

    id: str
    platform: str
    tasks: list[ExecutionTask]
    dependencies: set[str] = field(default_factory=set)

    def __repr__(self) -> str:
        return (f"Stage({self.id}, {self.platform}, "
                f"{[t.operator.name for t in self.tasks]})")


class ExecutionPlan:
    """A complete executable plan.

    Args:
        tasks: All tasks in topological order.
        sink_tasks: Tasks whose outputs are the job's results, in the order
            of the Rheem plan's sinks.
    """

    def __init__(self, tasks: list[ExecutionTask],
                 sink_tasks: list[ExecutionTask]) -> None:
        self.tasks = list(tasks)
        self.sink_tasks = list(sink_tasks)
        #: Logical operator id -> intermediate-result store key, attached
        #: by :meth:`RheemContext.optimize` for plans whose subplans are
        #: reuse-keyable; the executor publishes committed outputs under
        #: these keys (:mod:`repro.core.resultstore`).
        self.reuse_keys: dict[int, tuple] = {}

    def build_stages(self, break_after: set[int] = frozenset()
                     ) -> list[ExecutionStage]:
        """Cut the plan into stages (Section 4.2).

        A task joins a producer's stage when they share a platform AND all
        of its producers already live in that stage — this keeps the stage
        dependency graph acyclic by construction (every dependency edge
        points to an earlier-created stage), so list order is a valid
        execution order.  Loop implementations always get their own driver
        stage, since the executor must hold the execution control to
        evaluate the loop condition.

        ``break_after`` closes the stage after any task implementing one of
        the given LOGICAL operator ids — exploratory-mode breakpoints are
        materialization points ("data at rest").
        """
        stage_of: dict[int, ExecutionStage] = {}
        closed: set[str] = set()
        stages: list[ExecutionStage] = []
        counter = itertools.count(1)
        for task in self.tasks:
            producer_stages = [stage_of[p.id] for p in task.producers()
                               if p.id in stage_of]
            home: ExecutionStage | None = None
            if task.platform != DRIVER_PLATFORM and producer_stages:
                first = producer_stages[0]
                if (first.platform == task.platform
                        and first.id not in closed
                        and all(ps is first for ps in producer_stages)):
                    home = first
            if home is None:
                home = ExecutionStage(f"stage{next(counter)}", task.platform, [])
                stages.append(home)
            home.tasks.append(task)
            stage_of[task.id] = home
            for ps in producer_stages:
                if ps is not home:
                    home.dependencies.add(ps.id)
            if task.logical_id is not None and task.logical_id in break_after:
                closed.add(home.id)
        return stages

    def platforms(self) -> set[str]:
        """All real platforms this plan touches (loop bodies included)."""
        out: set[str] = set()
        for task in self.tasks:
            op = task.operator
            if isinstance(op, LoopImplementation):
                out |= op.body_plan.platforms()
            elif op.platform != DRIVER_PLATFORM:
                out.add(op.platform)
        return out

    def __repr__(self) -> str:
        return f"ExecutionPlan({len(self.tasks)} tasks)"


class LoopImplementation:
    """The driver-side implementation of a loop operator.

    It owns an execution plan for the loop body; the executor runs that body
    plan once per iteration, feeding output 0 back into body input 0 (via
    ``feedback_conversion`` when the channel types differ between the body's
    output and its input).
    """

    platform = DRIVER_PLATFORM
    op_kind = "loop"

    def __init__(
        self,
        logical: LoopOperator,
        body_plan: ExecutionPlan,
        body_input_tasks: list["ExecutionTask"],
        feedback_conversion: ConversionPath,
    ) -> None:
        self.id = next(_task_id_counter)
        self.logical = logical
        self.body_plan = body_plan
        self.body_input_tasks = list(body_input_tasks)
        self.feedback_conversion = feedback_conversion

    def work(self) -> float:
        return 0.0

    @property
    def name(self) -> str:
        return f"driver.loop[{self.logical.name}]"

    def __repr__(self) -> str:
        return f"<{self.name}#{self.id}>"
