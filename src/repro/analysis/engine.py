"""The multi-pass static plan analyzer.

Runs over a :class:`~repro.core.plan.RheemPlan` *before* inflation and
enumeration:

1. **structural re-traversal** — a fresh, iterative walk from the sinks
   (the plan's cached topology may be stale after mutation) with cycle
   detection;
2. **type-flow inference** (:mod:`repro.analysis.typeflow`) — data-quantum
   types from sources through operator signatures, flagging provably
   incompatible edges;
3. **UDF introspection** (:mod:`repro.analysis.udfs`) — bytecode/closure
   scanning for purity violations, which also feeds per-operator
   *confidence penalties* into cardinality estimation;
4. **lint rules** (:mod:`repro.analysis.rules`) — the severity-tiered rule
   registry.

The optimizer aborts on error-level findings and annotates the plan with
the rest; the CLI (``python -m repro lint``) and the REST service surface
the same report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..core import operators as ops
from ..core.fingerprint import PlanFingerprints
from ..core.operators import EstimationContext, Operator
from .diagnostics import Diagnostic, LintReport, Severity
from .rules import AnalysisContext, Rule, run_rules
from .typeflow import infer_types
from .udfs import introspect_plan_udfs

if TYPE_CHECKING:  # pragma: no cover
    from ..core.channels import ChannelConversionGraph
    from ..core.mappings import MappingRegistry
    from ..core.plan import RheemPlan

#: Confidence decay applied to estimates flowing through impure UDFs.
IMPURE_UDF_CONFIDENCE = 0.8


def _traverse(sinks: list[Operator]) -> tuple[list[Operator],
                                              Optional[Diagnostic]]:
    """Iterative post-order DFS from ``sinks`` (producers first).

    Returns the topological order and, if a cycle is found, an RP102
    diagnostic anchored at the operator closing the cycle (order is then
    partial).
    """
    order: list[Operator] = []
    state: dict[int, int] = {}  # 0 = visiting, 1 = done
    for root in sinks:
        stack: list[tuple[Operator, Iterable]] = []
        if state.get(root.id) == 1:
            continue
        state[root.id] = 0
        stack.append((root, iter(list(root.inputs) + list(root.side_inputs))))
        while stack:
            op, children = stack[-1]
            advanced = False
            for ref in children:
                if ref is None:
                    continue
                mark = state.get(ref.op.id)
                if mark == 1:
                    continue
                if mark == 0:
                    return order, Diagnostic(
                        rule_id="RP102", severity=Severity.ERROR,
                        message=f"cycle detected through {ref.op.name} "
                                f"<#{ref.op.id}>; feedback edges are only "
                                f"legal inside loop bodies",
                        op_id=ref.op.id, op_name=ref.op.name,
                        hint="express the iteration with a loop operator")
                state[ref.op.id] = 0
                stack.append((ref.op, iter(list(ref.op.inputs)
                                           + list(ref.op.side_inputs))))
                advanced = True
                break
            if not advanced:
                state[op.id] = 1
                order.append(op)
                stack.pop()
    return order, None


def _with_loop_bodies(ordered: list[Operator]) -> list[Operator]:
    out: list[Operator] = []
    for op in ordered:
        if isinstance(op, ops.LoopOperator):
            for body_op in op.body.operators():
                out.extend(_with_loop_bodies([body_op])
                           if isinstance(body_op, ops.LoopOperator)
                           else [body_op])
        out.append(op)
    return out


class PlanAnalyzer:
    """Analyzes plans; optionally bound to an optimizer's registries.

    Args:
        registry: Operator mappings (enables the platform-capability and
            channel-reachability rules).
        conversion_graph: The channel conversion graph (reachability rule).
        estimation_ctx: Source metadata; enables cardinality-based rules
            (oversized broadcasts).
        rules: Restrict to a subset of the registry (default: all rules).
        fingerprints: Supplies the tokenization pass RP014 reads (the
            optimizer's own, so that a submission is tokenized once).
    """

    def __init__(
        self,
        registry: Optional["MappingRegistry"] = None,
        conversion_graph: Optional["ChannelConversionGraph"] = None,
        estimation_ctx: EstimationContext | None = None,
        rules: Optional[list[Rule]] = None,
        fingerprints: Callable[[RheemPlan],
                               PlanFingerprints] = PlanFingerprints,
    ) -> None:
        self.registry = registry
        self.graph = conversion_graph
        self.estimation_ctx = estimation_ctx
        self.rules = rules
        self.fingerprints = fingerprints

    def analyze(self, plan: "RheemPlan") -> LintReport:
        """Run all passes; the report is also attached to ``plan``."""
        report = LintReport()
        ordered, cycle = _traverse(list(plan.sinks))
        if cycle is not None:
            report.add(cycle)
            report.sort()
            plan.diagnostics = report
            return report

        ordered_all = _with_loop_bodies(ordered)
        op_ids = {op.id for op in ordered_all}
        body_op_ids = op_ids - {op.id for op in ordered}
        consumers: dict[int, list[Operator]] = {}
        for op in ordered_all:
            for ref in list(op.inputs) + list(op.side_inputs):
                if ref is not None:
                    consumers.setdefault(ref.op.id, []).append(op)

        # Pass 1: type flow (loop bodies are inferred via their loop).
        flow = infer_types(ordered)
        report.extend(self._filter_suppressed(flow.diagnostics, ordered_all))

        # Pass 2: UDF introspection -> confidence penalties.
        udf_reports = introspect_plan_udfs(ordered_all)
        for op_id, reports in udf_reports.items():
            if any(not r.clean for __, r in reports):
                report.confidence_penalties[op_id] = IMPURE_UDF_CONFIDENCE

        # Cardinalities for estimate-based rules and, when estimation
        # succeeds, for the optimizer (best effort).
        if self.estimation_ctx is not None:
            try:
                report.cardinalities = plan.estimate_cardinalities(
                    self.estimation_ctx)
            except Exception:  # estimation must never break linting
                pass

        # Pass 3: the rule registry.
        ctx = AnalysisContext(
            ordered=ordered_all,
            op_ids=op_ids,
            consumers=consumers,
            types=flow.types,
            udf_reports=udf_reports,
            registry=self.registry,
            graph=self.graph,
            cards=report.cardinalities or {},
            body_op_ids=body_op_ids,
            fingerprints=self.fingerprints(plan),
        )
        report.extend(run_rules(ctx, self.rules))
        report.sort()
        plan.diagnostics = report
        return report

    @staticmethod
    def _filter_suppressed(diagnostics: list[Diagnostic],
                           ordered: list[Operator]) -> list[Diagnostic]:
        by_id = {op.id: op for op in ordered}
        out = []
        for diag in diagnostics:
            op = by_id.get(diag.op_id)
            if op is not None and diag.rule_id in op.lint_suppressions:
                continue
            out.append(diag)
        return out


def analyze_plan(plan: "RheemPlan", context=None) -> LintReport:
    """Analyze ``plan``; with a :class:`RheemContext`, registry-aware rules
    (platform capability, channel reachability, broadcast sizing) run too.
    """
    if context is not None:
        analyzer = PlanAnalyzer(
            registry=context.registry,
            conversion_graph=context.graph,
            estimation_ctx=context.estimation_context(),
        )
    else:
        analyzer = PlanAnalyzer()
    return analyzer.analyze(plan)
