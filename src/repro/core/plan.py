"""Rheem plans: data-flow DAGs of platform-agnostic operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..analysis.collector import notify_plan
from ..analysis.diagnostics import Diagnostic, Severity
from .cardinality import CardinalityEstimate
from .operators import (
    EstimationContext,
    InputRef,
    LoopOperator,
    Operator,
    SinkOperator,
    SubPlan,
)


class PlanValidationError(ValueError):
    """Raised when a plan is structurally broken.

    Carries ALL structural violations found (not just the first) as a list
    of :class:`~repro.analysis.diagnostics.Diagnostic` objects, so users
    can fix a broken plan in one pass.
    """

    def __init__(self, message: str,
                 diagnostics: Sequence[Diagnostic] = ()) -> None:
        super().__init__(message)
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    @classmethod
    def from_diagnostics(cls, diagnostics: Sequence[Diagnostic]
                         ) -> "PlanValidationError":
        message = "; ".join(d.message for d in diagnostics)
        return cls(message, diagnostics)


def _structural(rule_id: str, message: str, op: Operator | None = None,
                hint: str | None = None) -> Diagnostic:
    return Diagnostic(
        rule_id=rule_id, severity=Severity.ERROR, message=message,
        op_id=op.id if op is not None else 0,
        op_name=op.name if op is not None else "",
        hint=hint)


def topological_order(roots: Sequence[Operator]) -> list[Operator]:
    """Operators reachable upstream from ``roots``, producers first.

    Loop bodies are NOT traversed: a loop operator is a single vertex of the
    outer plan.  Broadcast (side) inputs count as edges.  The walk is
    iterative (an explicit DFS stack), so plans thousands of operators deep
    do not overflow the Python call stack.

    Raises:
        PlanValidationError: If a cycle is detected (feedback edges are only
            legal inside loop bodies, which are separate sub-plans).
    """
    order: list[Operator] = []
    state: dict[int, int] = {}  # 0 = visiting, 1 = done

    for root in roots:
        if state.get(root.id) == 1:
            continue
        state[root.id] = 0
        stack: list[tuple[Operator, Iterator[InputRef | None]]] = [
            (root, iter(list(root.inputs) + list(root.side_inputs)))]
        while stack:
            op, edges = stack[-1]
            advanced = False
            for ref in edges:
                if ref is None:
                    continue
                mark = state.get(ref.op.id)
                if mark == 1:
                    continue
                if mark == 0:
                    raise PlanValidationError.from_diagnostics([_structural(
                        "RP102",
                        f"cycle detected through {ref.op.name} "
                        f"<#{ref.op.id}>; feedback edges are only legal "
                        f"inside loop bodies", ref.op,
                        hint="express the iteration with a loop operator")])
                state[ref.op.id] = 0
                stack.append((ref.op, iter(list(ref.op.inputs)
                                           + list(ref.op.side_inputs))))
                advanced = True
                break
            if not advanced:
                state[op.id] = 1
                order.append(op)
                stack.pop()
    return order


@dataclass(frozen=True)
class Consumer:
    """One downstream attachment point of an operator output."""

    op: Operator
    input_index: int
    is_broadcast: bool


class RheemPlan:
    """A complete Rheem plan, anchored at its sink operators.

    Args:
        sinks: One sink per plan branch (paper: "at least one source operator
            and one sink operator per branch").
    """

    def __init__(self, sinks: Iterable[Operator]) -> None:
        self.sinks = list(sinks)
        if not self.sinks:
            raise PlanValidationError(
                "a plan needs at least one sink",
                [_structural("RP101", "a plan needs at least one sink")])
        self._topo = topological_order(self.sinks)
        #: Analyzer findings attached by the last static-analysis run
        #: (:mod:`repro.analysis`); empty until a pass runs.
        self.diagnostics = []
        self.validate()
        notify_plan(self)

    # ------------------------------------------------------------ structure
    def operators(self, include_loop_bodies: bool = False) -> list[Operator]:
        """All plan operators in topological order."""
        if not include_loop_bodies:
            return list(self._topo)
        out: list[Operator] = []
        for op in self._topo:
            if isinstance(op, LoopOperator):
                out.extend(op.body.operators())
            out.append(op)
        return out

    def sources(self) -> list[Operator]:
        return [op for op in self._topo if op.is_source]

    def consumers(self) -> dict[int, list[Consumer]]:
        """Map from producer operator id to its downstream consumers."""
        cons: dict[int, list[Consumer]] = {op.id: [] for op in self._topo}
        for op in self._topo:
            for idx, ref in enumerate(op.inputs):
                if ref is not None:
                    cons[ref.op.id].append(Consumer(op, idx, False))
            for ref in op.side_inputs:
                cons[ref.op.id].append(Consumer(op, -1, True))
        return cons

    def operator_count(self, include_loop_bodies: bool = True) -> int:
        """Number of operators (Table 1 reports these per task)."""
        return len(self.operators(include_loop_bodies))

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Check structural well-formedness.

        ALL violations are collected before raising, so one pass over the
        error fixes every unwired input, non-sink root and broken loop body
        at once.

        Raises:
            PlanValidationError: Carrying the full diagnostics list.
        """
        diagnostics: list[Diagnostic] = []
        for sink in self.sinks:
            if not isinstance(sink, SinkOperator):
                diagnostics.append(_structural(
                    "RP101", f"plan root {sink} is not a sink", sink,
                    hint="terminate every branch with a sink operator"))
        for op in self._topo:
            for idx, ref in enumerate(op.inputs):
                if ref is None:
                    diagnostics.append(_structural(
                        "RP100", f"{op} input {idx} is not connected", op,
                        hint=f"wire a producer into input slot {idx}"))
            if isinstance(op, LoopOperator):
                diagnostics.extend(_body_diagnostics(op))
        if not any(op.is_source for op in self._topo):
            diagnostics.append(_structural(
                "RP103", "a plan needs at least one source",
                hint="start every branch from a source operator"))
        if diagnostics:
            raise PlanValidationError.from_diagnostics(diagnostics)

    # ----------------------------------------------------------- estimation
    def estimate_cardinalities(
        self, ctx: EstimationContext | None = None
    ) -> dict[int, CardinalityEstimate]:
        """Bottom-up interval cardinality estimation (Section 4.1).

        Returns a map from operator id to its output-cardinality estimate.
        Loop bodies are estimated too (one representative iteration), keyed
        by the body operators' ids, nested bodies included.
        """
        ctx = ctx or EstimationContext()
        estimates: dict[int, CardinalityEstimate] = {}
        _estimate_operators(self._topo, ctx, estimates)
        _estimate_bodies(self._topo, ctx, estimates)
        return estimates

    def __repr__(self) -> str:
        return f"RheemPlan({len(self._topo)} operators, {len(self.sinks)} sinks)"


def _body_diagnostics(loop: LoopOperator) -> list[Diagnostic]:
    body = loop.body
    diagnostics: list[Diagnostic] = []
    body_ops = set(op.id for op in body.operators())
    for ref in body.outputs:
        if ref.op.id not in body_ops:
            diagnostics.append(_structural(
                "RP104", f"body output {ref.op} unreachable", loop,
                hint="loop outputs must be produced inside the body"))
    for inp in body.inputs:
        if inp.num_inputs != 0:
            diagnostics.append(_structural(
                "RP104", "loop inputs must be sources", loop,
                hint="use LoopInput placeholders as the body's sources"))
    return diagnostics


def _estimate_operators(
    ops_in_topo_order: Sequence[Operator],
    ctx: EstimationContext,
    out: dict[int, CardinalityEstimate],
) -> None:
    for op in ops_in_topo_order:
        if op.id in out:
            continue
        input_estimates = [
            out[ref.op.id] for ref in op.inputs if ref is not None
        ]
        out[op.id] = op.estimate_cardinality(input_estimates, ctx)


def _estimate_bodies(
    ops: Sequence[Operator],
    ctx: EstimationContext,
    out: dict[int, CardinalityEstimate],
) -> None:
    """Surface loop-body estimates as well, at every nesting depth (each
    loop estimator pinned its placeholders while estimating the loop's own
    output)."""
    for op in ops:
        if isinstance(op, LoopOperator):
            body_ops = op.body.operators()
            _estimate_operators(body_ops, ctx, out)
            _estimate_bodies(body_ops, ctx, out)


def estimate_subplan(
    body: SubPlan, ctx: EstimationContext
) -> CardinalityEstimate:
    """Estimate a loop body's output cardinality for one iteration.

    Assumes the body's :class:`LoopInput` placeholders have been pinned by
    the enclosing loop operator.
    """
    estimates: dict[int, CardinalityEstimate] = {}
    _estimate_operators(body.operators(), ctx, estimates)
    return estimates[body.outputs[0].op.id]
