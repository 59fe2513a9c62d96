"""The lint-rule registry (analysis pass 3).

Each rule is a small function over an :class:`AnalysisContext` yielding
:class:`Diagnostic` objects; the registry is severity-tiered and openly
extensible (register new rules the way platforms register mappings).

Rule catalog
------------

========  ========  =====================================================
id        severity  finding
========  ========  =====================================================
RP001     warning   dead operator: attached to the DAG but feeds no sink
RP002     error     incompatible data-quantum types on an edge (typeflow)
RP003     warning   cartesian product whose output is never restricted
RP004     warning   loop-invariant input not cached before the loop
RP005     error     operator pinned to a platform that cannot run it
RP006     error     pinned producer/consumer with no channel conversion
RP007     info      the same source is scanned more than once
RP008     warning   broadcast side-input is provably large
RP009     warning   nondeterministic UDF (random/time/uuid use)
RP010     warning   UDF captures mutable state / writes globals
RP011     info      Filter/FlatMap UDF without a selectivity hint
RP012     warning   union/intersect inputs have diverging types
RP013     warning   declared loop input unused by the loop body
RP014     info      operator attribute defeats plan fingerprinting
RP100+    error     structural violations (unwired input, cycle, ...)
========  ========  =====================================================

Suppression: ``op.suppress_lint("RP003")`` silences one rule for one
operator (the engine filters suppressed findings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from ..core import operators as ops
from ..core.channels import ChannelConversionError, ChannelConversionGraph
from ..core.fingerprint import PlanFingerprints
from ..core.mappings import MappingRegistry, NoMappingError
from .diagnostics import Diagnostic, Severity
from .typeflow import QType, compatible
from .udfs import UdfReport

#: Broadcast side inputs whose cardinality LOWER bound exceeds this many
#: simulated records are flagged as oversized (provably large, not merely
#: unknown — lint must not cry wolf on wide estimates).
BROADCAST_RECORD_LIMIT = 1e7


@dataclass
class AnalysisContext:
    """Everything a lint rule may consult."""

    #: All reachable operators, producers first, loop bodies included.
    ordered: list[ops.Operator]
    #: Ids of ``ordered`` (fast membership checks).
    op_ids: set[int] = field(default_factory=set)
    #: Producer id -> consuming operators (within the plan).
    consumers: dict[int, list[ops.Operator]] = field(default_factory=dict)
    #: Inferred quantum type per operator id (typeflow pass).
    types: dict[int, QType] = field(default_factory=dict)
    #: UDF introspection reports per operator id.
    udf_reports: dict[int, list[tuple[str, UdfReport]]] = field(
        default_factory=dict)
    #: Optimizer-side context, when analysis runs inside the optimizer.
    registry: Optional[MappingRegistry] = None
    graph: Optional[ChannelConversionGraph] = None
    #: Cardinality estimates per operator id (may be empty standalone).
    cards: dict = field(default_factory=dict)
    #: Operators that belong to a loop body (their id).
    body_op_ids: set[int] = field(default_factory=set)
    #: The tokenization pass over the analyzed plan (RP014).
    fingerprints: Optional[PlanFingerprints] = None


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    rule_id: str
    name: str
    severity: Severity
    description: str
    check: Callable[[AnalysisContext], Iterator[Diagnostic]]


_RULES: dict[str, Rule] = {}


def register_rule(rule_id: str, name: str, severity: Severity,
                  description: str):
    """Decorator registering a rule check under ``rule_id``."""

    def decorate(fn: Callable[[AnalysisContext], Iterator[Diagnostic]]):
        _RULES[rule_id] = Rule(rule_id, name, severity, description, fn)
        return fn

    return decorate


def all_rules() -> list[Rule]:
    return [_RULES[k] for k in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    return _RULES[rule_id]


def _diag(rule: str, op: ops.Operator, message: str,
          hint: str | None = None) -> Diagnostic:
    r = _RULES[rule]
    return Diagnostic(rule_id=rule, severity=r.severity, message=message,
                      op_id=op.id, op_name=op.name, hint=hint)


# --------------------------------------------------------------------------
# RP001 dead operator
# --------------------------------------------------------------------------
@register_rule("RP001", "dead-operator", Severity.WARNING,
               "an operator consumes plan data but feeds no sink")
def _dead_operator(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    reported: set[int] = set()
    for op in ctx.ordered:
        for consumer in op.downstream:
            if consumer.id in ctx.op_ids or consumer.id in reported:
                continue
            refs = list(consumer.inputs) + list(consumer.side_inputs)
            if not any(ref is not None and ref.op is op for ref in refs):
                continue  # stale back-reference (input was rewired)
            reported.add(consumer.id)
            if "RP001" in consumer.lint_suppressions:
                continue  # the dead op is outside ctx.ordered: check here
            yield _diag(
                "RP001", consumer,
                f"operator consumes {op.name} <#{op.id}> but no sink is "
                f"reachable from it; it will never execute",
                hint="attach a sink to this branch or drop the operator")


# --------------------------------------------------------------------------
# RP003 cartesian product without restriction
# --------------------------------------------------------------------------
@register_rule("RP003", "cartesian-without-restriction", Severity.WARNING,
               "a cartesian product whose output is never filtered")
def _cartesian(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op in ctx.ordered:
        if not isinstance(op, ops.CartesianProduct):
            continue
        downstream_ok = any(
            isinstance(c, (ops.Filter, ops.Join, ops.IEJoin, ops.Sample))
            for c in ctx.consumers.get(op.id, []))
        if not downstream_ok:
            yield _diag(
                "RP003", op,
                "cartesian product output flows on unrestricted; its size "
                "is the product of both inputs",
                hint="use a keyed Join, an IEJoin, or filter the product")


# --------------------------------------------------------------------------
# RP004 uncached loop invariant
# --------------------------------------------------------------------------
@register_rule("RP004", "uncached-loop-invariant", Severity.WARNING,
               "a loop-invariant input recomputed every iteration")
def _uncached_invariant(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op in ctx.ordered:
        if not isinstance(op, ops.LoopOperator):
            continue
        for slot, ref in enumerate(op.inputs):
            if slot == 0 or ref is None:
                continue  # slot 0 is the loop variable
            producer = ref.op
            if isinstance(producer, (ops.Cache, ops.SourceOperator)):
                continue
            yield _diag(
                "RP004", op,
                f"loop-invariant input {slot} comes from "
                f"{producer.name} <#{producer.id}> without a cache; the "
                f"executor may rematerialize it each iteration",
                hint=f"insert .cache() after {producer.name}")


# --------------------------------------------------------------------------
# RP005 platform capability mismatch
# --------------------------------------------------------------------------
@register_rule("RP005", "platform-capability-mismatch", Severity.ERROR,
               "an operator pinned to a platform that cannot execute it")
def _capability(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    if ctx.registry is None:
        return
    for op in ctx.ordered:
        if op.target_platform is None:
            continue
        if isinstance(op, (ops.LoopInput, ops.LoopOperator)):
            continue
        try:
            ctx.registry.alternatives_for(op)
        except NoMappingError:
            yield _diag(
                "RP005", op,
                f"pinned to platform {op.target_platform!r}, which has no "
                f"mapping for {type(op).__name__}",
                hint="drop the pin or pick a platform from the registry")


# --------------------------------------------------------------------------
# RP006 channel unreachable between pinned operators
# --------------------------------------------------------------------------
def _pinned_alternatives(ctx: AnalysisContext, op: ops.Operator):
    try:
        return ctx.registry.alternatives_for(op)
    except NoMappingError:
        return []


@register_rule("RP006", "channel-unreachable", Severity.ERROR,
               "pinned producer/consumer with no conversion path")
def _channel_unreachable(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    if ctx.registry is None or ctx.graph is None:
        return
    for op in ctx.ordered:
        if op.target_platform is None or isinstance(op, ops.LoopOperator):
            continue
        consumer_alts = _pinned_alternatives(ctx, op)
        if not consumer_alts:
            continue  # RP005 already fired
        for slot, ref in enumerate(op.inputs):
            if ref is None:
                continue
            producer = ref.op
            if (producer.target_platform is None
                    or producer.target_platform == op.target_platform
                    or isinstance(producer, (ops.LoopOperator,
                                             ops.LoopInput))):
                continue
            producer_alts = _pinned_alternatives(ctx, producer)
            if not producer_alts:
                continue
            if not _some_path(ctx.graph, producer_alts, consumer_alts, slot):
                yield _diag(
                    "RP006", op,
                    f"no channel conversion path from "
                    f"{producer.name} <#{producer.id}> on "
                    f"{producer.target_platform!r} to this operator on "
                    f"{op.target_platform!r}",
                    hint="relax one of the platform pins or register a "
                         "conversion")


def _some_path(graph, producer_alts, consumer_alts, slot) -> bool:
    for pa in producer_alts:
        have = pa.output_descriptor()
        for ca in consumer_alts:
            want = ca.input_descriptors()[slot]
            try:
                graph.cheapest_path(have, want, 1.0)
                return True
            except ChannelConversionError:
                continue
    return False


# --------------------------------------------------------------------------
# RP007 duplicate source scan
# --------------------------------------------------------------------------
@register_rule("RP007", "duplicate-source-scan", Severity.INFO,
               "the same file/table is scanned by several sources")
def _duplicate_scan(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    seen: dict[tuple, ops.Operator] = {}
    for op in ctx.ordered:
        if isinstance(op, ops.TextFileSource):
            key = ("file", op.path)
        elif isinstance(op, ops.TableSource):
            key = ("table", op.table)
        else:
            continue
        if key in seen:
            first = seen[key]
            yield _diag(
                "RP007", op,
                f"re-scans {key[1]!r} already read by "
                f"{first.name} <#{first.id}>",
                hint="read once and fan out (cache the shared scan)")
        else:
            seen[key] = op


# --------------------------------------------------------------------------
# RP008 oversized broadcast
# --------------------------------------------------------------------------
@register_rule("RP008", "oversized-broadcast", Severity.WARNING,
               "a broadcast side-input is provably large")
def _oversized_broadcast(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op in ctx.ordered:
        for ref in op.side_inputs:
            est = ctx.cards.get(ref.op.id)
            if est is None:
                continue
            if est.lower > BROADCAST_RECORD_LIMIT:
                yield _diag(
                    "RP008", op,
                    f"broadcasts {ref.op.name} <#{ref.op.id}> with at "
                    f"least {est.lower:.0f} simulated records to every "
                    f"worker",
                    hint="join instead of broadcasting, or shrink the "
                         "side input first")


# --------------------------------------------------------------------------
# RP009 / RP010: UDF hygiene
# --------------------------------------------------------------------------
@register_rule("RP009", "nondeterministic-udf", Severity.WARNING,
               "a UDF calls nondeterministic APIs")
def _nondeterministic(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op_id, reports in ctx.udf_reports.items():
        op = next(o for o in ctx.ordered if o.id == op_id)
        for attr, report in reports:
            if report.nondeterministic_calls:
                names = ", ".join(report.nondeterministic_calls)
                yield _diag(
                    "RP009", op,
                    f"UDF {report.name!r} ({attr}) uses nondeterministic "
                    f"APIs: {names}; re-runs and platform migration may "
                    f"produce different data",
                    hint="seed explicitly or use the Sample operator's "
                         "seeded methods")


@register_rule("RP010", "mutable-closure-capture", Severity.WARNING,
               "a UDF captures mutable state or writes globals")
def _mutable_capture(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op_id, reports in ctx.udf_reports.items():
        op = next(o for o in ctx.ordered if o.id == op_id)
        for attr, report in reports:
            found = []
            if report.mutable_captures:
                found.append("captures mutable "
                             + ", ".join(report.mutable_captures))
            if report.global_writes:
                found.append("writes globals "
                             + ", ".join(report.global_writes))
            if found:
                yield _diag(
                    "RP010", op,
                    f"UDF {report.name!r} ({attr}) {'; '.join(found)}; "
                    f"side effects are not migrated across platforms",
                    hint="pass state via broadcast side-inputs instead")


# --------------------------------------------------------------------------
# RP011 missing selectivity hint
# --------------------------------------------------------------------------
@register_rule("RP011", "missing-selectivity-hint", Severity.INFO,
               "a selective UDF without a selectivity annotation")
def _missing_selectivity(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op in ctx.ordered:
        if isinstance(op, (ops.Filter, ops.FlatMap)) \
                and op.udf.selectivity is None:
            kind = "retention" if isinstance(op, ops.Filter) else "expansion"
            yield _diag(
                "RP011", op,
                f"UDF {op.udf.name!r} carries no {kind} hint; the "
                f"optimizer falls back to low-confidence defaults",
                hint=f"wrap it: Udf(fn, selectivity=...) to pin the {kind}")


# --------------------------------------------------------------------------
# RP012 union type divergence
# --------------------------------------------------------------------------
@register_rule("RP012", "union-type-divergence", Severity.WARNING,
               "union/intersect inputs with incompatible types")
def _union_divergence(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op in ctx.ordered:
        if not isinstance(op, (ops.Union, ops.Intersect)):
            continue
        ins = [ctx.types.get(ref.op.id, QType("any"))
               for ref in op.inputs if ref is not None]
        if len(ins) == 2 and not compatible(ins[0], ins[1]):
            yield _diag(
                "RP012", op,
                f"combines {ins[0]} with {ins[1]}; downstream operators "
                f"see a mixed bag",
                hint="map both branches to a common shape first")


# --------------------------------------------------------------------------
# RP013 unused loop input
# --------------------------------------------------------------------------
@register_rule("RP013", "unused-loop-input", Severity.WARNING,
               "a declared loop input the body never consumes")
def _unused_loop_input(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for op in ctx.ordered:
        if not isinstance(op, ops.LoopOperator):
            continue
        consumed: set[int] = set()
        for body_op in op.body.operators():
            for ref in list(body_op.inputs) + list(body_op.side_inputs):
                if ref is not None:
                    consumed.add(ref.op.id)
        for inp in op.body.inputs:
            if inp.index > 0 and inp.id not in consumed:
                yield _diag(
                    "RP013", op,
                    f"loop input {inp.index} ({inp.name}) is declared but "
                    f"never consumed by the body",
                    hint="drop the invariant input or use it in the body")


# --------------------------------------------------------------------------
# RP014 unstable fingerprint attribute
# --------------------------------------------------------------------------
@register_rule("RP014", "unstable-fingerprint", Severity.INFO,
               "an operator attribute defeats plan fingerprinting")
def _unstable_fingerprint(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    if ctx.fingerprints is None:
        return
    for op in ctx.ordered:
        attr = ctx.fingerprints.unstable.get(op.id)
        if attr is not None:
            yield _diag(
                "RP014", op,
                f"attribute {attr!r} cannot be fingerprinted stably "
                f"(object addresses, open handles, ...); this plan is "
                f"invisible to the plan cache and to cross-job result "
                f"reuse",
                hint="replace the value with picklable/canonical data, "
                     "or accept the deliberate cache opt-out")


def run_rules(ctx: AnalysisContext,
              rules: Iterable[Rule] | None = None) -> list[Diagnostic]:
    """Run all (or the given) rules; suppressions are honoured here."""
    out: list[Diagnostic] = []
    by_id = {op.id: op for op in ctx.ordered}
    for rule in (rules if rules is not None else all_rules()):
        for diag in rule.check(ctx):
            op = by_id.get(diag.op_id)
            if op is not None and diag.rule_id in op.lint_suppressions:
                continue
            out.append(diag)
    return out
