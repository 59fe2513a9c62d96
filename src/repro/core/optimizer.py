"""The cost-based cross-platform optimizer (Section 4.1 of the paper).

Pipeline:

1. **Inflation** — a logical operator is annotated with all its execution
   alternatives (``MappingRegistry.alternatives_for``) when step 4 reaches it.
2. **Cardinality and cost annotation** — interval estimates, bottom-up.
3. **Data movement planning** — per plan edge, the channel conversion graph
   supplies minimum-cost conversion paths between the producing and the
   required channel types.
4. **Plan enumeration** — a dynamic program over the plan in topological
   order, one frontier per connected component of the operators seen so
   far; two components' frontiers are joined (cross product) at the
   operator where they meet.  Partial plans with the same open output
   channels are *pruned losslessly* — the paper's lemma that a dominated
   subplan with identical boundary channels can never be part of the
   optimum: a plan goes when another is no dearer on both cost bounds,
   plus the platform start-ups only that other one still owes.  Start-ups
   are charged once per complete plan.

Loops are enumerated recursively: the loop body is itself enumerated (its
placeholder inputs may materialize as any data channel), and each surviving
body frontier becomes one execution alternative of the loop operator, costed
at ``iterations x body cost`` plus per-iteration feedback conversion.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

from ..platforms.base import ExecutionOperator
from ..trace import NO_TRACER, MetricsRegistry
from .cardinality import CardinalityEstimate
from .channels import (
    Channel,
    ChannelConversionGraph,
    ChannelDescriptor,
    ConversionPath,
    volume_band,
)
from .cost import CostEstimate, CostModel, fixed_seconds, geometric_mean
from .execution import (
    DRIVER_PLATFORM,
    ExecutionPlan,
    ExecutionTask,
    LoopImplementation,
    TaskInput,
)
from .fingerprint import PlanFingerprints
from .mappings import ExecutionAlternative, MappingRegistry
from .operators import (
    CartesianProduct,
    CollectionSource,
    EstimationContext,
    FlatMap,
    IEJoin,
    Join,
    LoopInput,
    LoopOperator,
    Map,
    Operator,
    SinkOperator,
    TableSource,
    TextFileSource,
    Union,
)
from .plan import RheemPlan
from .resultstore import IntermediateResultStore


class OptimizationError(RuntimeError):
    """Raised when no executable plan exists (e.g. unreachable channels)."""


class PlanAnalysisError(OptimizationError):
    """Raised when static analysis finds error-level defects in a plan.

    The optimizer refuses to enumerate such plans: the defects (type
    mismatches, impossible platform pins, unreachable channels) guarantee
    a worse failure later.  ``report`` carries the full diagnostics.
    """

    def __init__(self, report) -> None:
        lines = "; ".join(d.render() for d in report.errors)
        super().__init__(f"static analysis rejected the plan: {lines}")
        self.report = report


#: Default bytes/record assumed when planning data movement.
PLANNING_BYTES_PER_RECORD = 100.0


@dataclass
class ChannelSourceDecision:
    """Decision for a placeholder source: a channel that already exists."""

    descriptor: ChannelDescriptor


@dataclass
class CachedResultDecision(ChannelSourceDecision):
    """Reuse a held channel: a zero-cost source alternative.

    The only alternative of a reuse root (:class:`ReuseProbe`), whether
    the channel comes from the intermediate-result store or from the
    paused run of this very job.  It contributes no operator, conversion,
    startup or dispatch cost and prunes the whole upstream cone out of
    the plan space.  Plan construction turns it into a
    :class:`CachedResultExec` task that re-emits the channel.
    """

    channel: Channel


@dataclass
class ReuseProbe:
    """The operators of one plan whose output already exists.

    Built by :meth:`Optimizer.probe_reuse` from the intermediate-result
    store and by :meth:`~repro.core.progressive.PausedJob.reuse` from what a
    paused job has materialized; :meth:`Optimizer.pick_best` treats both
    alike.

    Attributes:
        roots: Operator id -> held channel, for the materialized operators
            closest to the sinks.
        needed: Ids of the operators that still require enumeration and
            execution (the roots themselves included; everything strictly
            above a root is pruned).
        keys: Operator id -> store key, for every reusable-keyed operator
            (stable subplan fingerprint, sinks excluded).  The executor
            publishes committed outputs under these keys.
        started: Platforms the job is already running on (a resume); their
            start-up is not charged again.
        widths: Root id -> measured bytes per record (a resume); a store
            root keeps the modeled width.
    """

    roots: dict[int, Channel]
    needed: set[int]
    keys: dict[int, tuple] = field(default_factory=dict)
    started: frozenset[str] = frozenset()
    widths: dict[int, float] = field(default_factory=dict)


def reuse_roots(plan: RheemPlan,
                held: Callable[[Operator], Channel | None]
                ) -> tuple[dict[int, Channel], set[int]]:
    """``(roots, needed)`` of a :class:`ReuseProbe`.

    Walks from the sinks toward the sources and stops each descent at the
    first operator whose output ``held`` hands over — so the roots are
    the ones closest to the sinks (maximal pruning).
    """
    roots: dict[int, Channel] = {}
    needed: set[int] = set()
    stack: list[Operator] = list(plan.sinks)
    while stack:
        op = stack.pop()
        if op.id in needed:
            continue
        needed.add(op.id)
        channel = held(op)
        if channel is not None:
            roots[op.id] = channel
            continue
        for ref in list(op.inputs) + list(op.side_inputs):
            if ref is not None:
                stack.append(ref.op)
    return roots, needed


@dataclass
class LoopDecision:
    """A chosen implementation of a loop operator."""

    loop: LoopOperator
    body: "PartialPlan"
    input_descriptors: list[ChannelDescriptor]
    output_descriptor: ChannelDescriptor
    feedback: ConversionPath
    platforms: frozenset[str]
    cost: CostEstimate


Decision = ExecutionAlternative | ChannelSourceDecision | LoopDecision

#: One ``pick_best`` call's conversion table, on that call's stack only:
#: (have, want, producer id) -> path, ``None`` when unreachable — read off
#: the graph's row for the producer's volume, which sits in the same table
#: under (have, records, bytes/record) so each row is searched once.
PathTable = dict[tuple[str, str | float, float], Any]


class _Prepared(NamedTuple):
    """What :meth:`Optimizer._prepare` derives from an option alone."""

    option: Decision
    wants: tuple[ChannelDescriptor, ...]  # per data input, then side input
    out_desc: ChannelDescriptor
    platforms: frozenset[str]
    platform: str | None  # the stage's; None for loops and placeholders
    lower: float  # the option's own cost interval, objective-weighted
    upper: float
    confidence: float
    overhead: float  # stage dispatch, charged when no input is co-located


class PartialPlan:
    """A costed assignment of decisions to a set of the plan's operators.

    A plain value: no slot changes after construction, so plans share
    dicts freely — an extension shares its parent's ``conversions`` when
    it adds none, and its ``open_channels`` when the operator neither
    closes nor opens a channel.  ``open_sig`` holds the sorted
    ``(operator id, channel name)`` pairs of ``open_channels``: plans are
    compared only with plans of the same one (:meth:`Optimizer._admit`).
    """

    __slots__ = ("cost", "decisions", "conversions", "open_channels",
                 "open_sig", "platforms")

    def __init__(
        self,
        cost: CostEstimate | None = None,
        decisions: dict[int, Decision] | None = None,
        conversions: dict[tuple[int, int, int], ConversionPath] | None = None,
        open_channels: dict[int, ChannelDescriptor] | None = None,
        platforms: frozenset[str] = frozenset(),
        open_sig: tuple | None = None,
    ) -> None:
        self.cost = cost if cost is not None else CostEstimate.zero()
        #: Operator id -> chosen decision.
        self.decisions = decisions if decisions is not None else {}
        #: (producer, consumer, slot) -> conversion path.
        self.conversions = conversions if conversions is not None else {}
        self.open_channels = open_channels if open_channels is not None else {}
        self.open_sig = open_sig if open_sig is not None else tuple(sorted(
            (i, desc.name) for i, desc in self.open_channels.items()))
        self.platforms = platforms


class Optimizer:
    """Turns Rheem plans into execution plans.

    Args:
        registry: Operator mappings of all registered platforms.
        graph: The channel conversion graph.
        cost_model: Operator/startup/overhead cost estimation.
        estimation_ctx: Source metadata for cardinality estimation, plus any
            measured cardinalities pinned by the progressive optimizer.
        allowed_platforms: Optional whitelist (used by the single-platform
            baseline runs of the paper's Figure 9).
    """

    def __init__(
        self,
        registry: MappingRegistry,
        graph: ChannelConversionGraph,
        cost_model: CostModel,
        estimation_ctx: EstimationContext | None = None,
        allowed_platforms: set[str] | None = None,
        objective=None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        from .objectives import RUNTIME

        self.registry = registry
        self.graph = graph
        self.cost_model = cost_model
        self.estimation_ctx = estimation_ctx or EstimationContext()
        self.allowed_platforms = allowed_platforms
        #: What a second on each platform costs (runtime / monetary / ...).
        self.objective = objective or RUNTIME
        #: Number of partial plans retained across the last enumeration
        #: (exposed for the pruning ablation benchmark).
        self.last_enumeration_size = 0
        self.prune = True
        self.tracer = tracer or NO_TRACER
        self.metrics = metrics or MetricsRegistry()
        #: Per-phase counters of the last :meth:`pick_best` run.
        self.stats: dict[str, int] = dict.fromkeys(
            ("plans_enumerated", "plans_pruned", "conversion_paths_solved",
             "conversion_paths_distinct"), 0)
        self._fingerprints: PlanFingerprints | None = None

    # ----------------------------------------------------------- public API
    def optimize(self, plan: RheemPlan) -> ExecutionPlan:
        """Produce the minimum-estimated-cost execution plan."""
        best, cards = self.pick_best(plan)
        return self._build_execution_plan(plan, best)

    def fingerprints(self, plan: RheemPlan) -> PlanFingerprints:
        """The tokenization pass over ``plan``, made once per optimizer.

        An optimizer serves one ``RheemContext.optimize`` call, whose reuse
        probe, plan-cache key and lint rule RP014 read this pass.  It lives
        here (on an operator it would enter that operator's own digest) and
        for this very object: plans change from one submission to the next.
        """
        fps = self._fingerprints
        if fps is None or fps.plan is not plan:
            fps = self._fingerprints = PlanFingerprints(plan)
        return fps

    def pick_best(self, plan: RheemPlan,
                  reuse: ReuseProbe | None = None
                  ) -> tuple[PartialPlan, dict]:
        """Run static analysis + estimation + enumeration.

        Error-level lint findings abort before enumeration
        (:class:`PlanAnalysisError`); warnings annotate ``plan.diagnostics``
        and decay the confidence of estimates flowing through impure UDFs.

        A ``reuse`` probe with roots restricts enumeration to the
        operators below them; each root's only alternative is its held
        channel.

        Raises:
            OptimizationError: If no executable plan exists — with
                ``reuse``, also when a root's channel is unreachable from
                every downstream alternative (whether to then enumerate
                the whole plan is the caller's policy).
        """
        self.stats = dict.fromkeys(self.stats, 0)
        self.last_enumeration_size = 0
        paths: PathTable = {}
        with self.tracer.span("optimizer.analyze"):
            report = self._analyze(plan)
        with self.tracer.span("optimizer.estimate") as estimate_span:
            # The analyzer estimated with this very context, best-effort:
            # only a failed estimate is redone (and raises).
            if report.cardinalities is not None:
                cards = dict(report.cardinalities)
            else:
                cards = plan.estimate_cardinalities(self.estimation_ctx)
            for op_id, penalty in report.confidence_penalties.items():
                est = cards.get(op_id)
                if est is not None:
                    cards[op_id] = CardinalityEstimate(
                        est.lower, est.upper, est.confidence * penalty)
            estimate_span.set("operators_estimated", len(cards))
        if reuse is None:
            reuse = ReuseProbe(roots={}, needed=set())
        with self.tracer.span("optimizer.inflate") as inflate_span:
            # Inflation happens when enumeration reaches an operator.
            ops = plan.operators()
            inflate_span.set("operators", len(ops))
        with self.tracer.span("optimizer.movement") as movement_span:
            bprs = self._estimate_record_bytes(ops, dict(reuse.widths),
                                               cards=cards)
            movement_span.set("record_widths_modeled", len(bprs))

        def alternatives(op: Operator) -> list:
            channel = reuse.roots.get(op.id)
            if channel is not None:
                return [CachedResultDecision(channel.descriptor, channel)]
            if isinstance(op, LoopOperator):
                return self._loop_decisions(op, cards, bprs, paths)
            return self._filter_alternatives(
                op, self.registry.alternatives_for(op))

        enum_ops = ([op for op in ops if op.id in reuse.needed]
                    if reuse.roots else ops)
        with self.tracer.span("optimizer.enumerate") as enumerate_span:
            results = self._enumerate_ops(enum_ops, cards, bprs,
                                          alternatives, paths,
                                          phantom_open=set(),
                                          started=reuse.started)
            for key, value in self.stats.items():
                enumerate_span.set(key, value)
                self.metrics.counter(f"optimizer.{key}").inc(value)
        # Conversion paths are solved while enumerating, so the movement
        # phase's headline counter is only known after the fact.
        movement_span.set("conversion_paths_solved",
                          self.stats["conversion_paths_solved"])
        if not results:
            raise OptimizationError("enumeration produced no executable plan")

        owed: dict[frozenset[str], float] = {}

        def charged(partial: PartialPlan) -> float:
            """``partial``'s mean cost with its unpaid start-ups, which
            are priced once per platform set."""
            startups = owed.get(partial.platforms)
            if startups is None:
                startups = owed[partial.platforms] = self._startups(
                    partial.platforms - reuse.started)
            return geometric_mean(partial.cost.lower + startups,
                                  partial.cost.upper + startups)

        best = min(results, key=charged)
        return PartialPlan(
            cost=best.cost.plus(CostEstimate.fixed(owed[best.platforms])),
            decisions=best.decisions, conversions=best.conversions,
            open_channels=best.open_channels, platforms=best.platforms,
            open_sig=best.open_sig), cards

    # -------------------------------------------------------- result reuse
    def probe_reuse(self, plan: RheemPlan, store: IntermediateResultStore,
                    cost_model_version: int,
                    lookup: bool = True) -> ReuseProbe:
        """Probe the intermediate-result store for ``plan``'s subplans.

        Looks each operator's ``(subplan fingerprint, source bands,
        cost-model version)`` key up in the store on the walk of
        :func:`reuse_roots`.  Sinks themselves are never keyed: their
        side effects (writing files, delivering the result collection)
        must re-run on every submission.

        ``lookup=False`` computes the keys only (for publication after a
        plan-cache miss) without touching the store — probing a store
        known to hold nothing would count meaningless misses.
        """
        with self.tracer.span("optimizer.reuse_probe") as span:
            fps = self.fingerprints(plan).subplans
            bands = self._reuse_bands(plan, fps)
            keys = {op.id: (fps[op.id], bands[op.id], cost_model_version)
                    for op in plan.operators()
                    if op.id in fps and not isinstance(op, SinkOperator)}

            def held(op: Operator) -> Channel | None:
                key = keys.get(op.id)
                entry = (store.get(key)
                         if lookup and key is not None else None)
                return None if entry is None else entry.channel

            roots, needed = reuse_roots(plan, held)
            span.set("subplans_keyed", len(keys))
            span.set("reuse_hits", len(roots))
        return ReuseProbe(roots, needed, keys)

    def _reuse_bands(self, plan: RheemPlan,
                     fps: dict[int, str]) -> dict[int, tuple]:
        """Per-operator source-cardinality band signature.

        An operator's signature covers every source in its upstream cone:
        sorted ``(source subplan digest, quarter-octave band)`` pairs —
        the digest disambiguates which source a band belongs to, so the
        signature is stable across submissions while re-keying the store
        when any contributing source grows.
        """
        cones: dict[int, frozenset] = {}
        bands: dict[int, tuple] = {}
        for op in plan.operators():
            cone: frozenset = frozenset()
            for ref in list(op.inputs) + list(op.side_inputs):
                if ref is not None:
                    cone |= cones.get(ref.op.id, frozenset())
            if op.is_source and op.id in fps:
                band = volume_band(op.estimate_cardinality(
                    [], self.estimation_ctx).geometric_mean)
                cone |= {(fps[op.id], band)}
            cones[op.id] = cone
            if op.id in fps:
                bands[op.id] = tuple(sorted(cone))
        return bands

    # ------------------------------------------------------ static analysis
    def _analyze(self, plan: RheemPlan):
        """Lint ``plan`` pre-enumeration."""
        from ..analysis.collector import notify_report
        from ..analysis.engine import PlanAnalyzer

        analyzer = PlanAnalyzer(
            registry=self.registry,
            graph=self.graph,
            estimation_ctx=self.estimation_ctx,
            fingerprints=self.fingerprints,
        )
        report = analyzer.analyze(plan)
        notify_report(plan, report)
        if not report.ok:
            raise PlanAnalysisError(report)
        return report

    # -------------------------------------------------- record-size model
    def _estimate_record_bytes(
        self, ops_seq: Sequence[Operator],
        out: dict[int, float] | None = None,
        cards: dict[int, CardinalityEstimate] | None = None,
    ) -> dict[int, float]:
        """Per-operator output record width, for movement-cost planning.

        ``cards`` (when available) weights multi-input widths by branch
        cardinality — a union of a wide trickle and a narrow torrent is
        mostly narrow.
        """
        out = out if out is not None else {}
        vfs = self.estimation_ctx.vfs
        for op in ops_seq:
            if op.id in out:
                continue
            ins = [out[ref.op.id] for ref in op.inputs
                   if ref is not None and ref.op.id in out]
            if isinstance(op, TextFileSource):
                if vfs is not None and vfs.exists(op.path):
                    b = vfs.read(op.path).bytes_per_record
                else:
                    b = PLANNING_BYTES_PER_RECORD
            elif isinstance(op, CollectionSource):
                b = op.bytes_per_record
            elif isinstance(op, TableSource):
                b = self.estimation_ctx.table_bytes.get(
                    op.table, PLANNING_BYTES_PER_RECORD)
            elif isinstance(op, (Map, FlatMap)) and op.bytes_per_record:
                b = op.bytes_per_record
            elif isinstance(op, (Join, CartesianProduct, IEJoin)):
                b = sum(ins) if ins else PLANNING_BYTES_PER_RECORD
            elif isinstance(op, Union) and len(ins) == 2:
                b = self._weighted_union_bytes(op, ins, cards)
            elif isinstance(op, LoopInput):
                b = (op.pinned_bytes if op.pinned_bytes is not None
                     else PLANNING_BYTES_PER_RECORD)
            elif isinstance(op, LoopOperator):
                for loop_input, ref in zip(op.body.inputs, op.inputs):
                    loop_input.pinned_bytes = out.get(
                        ref.op.id, PLANNING_BYTES_PER_RECORD)
                self._estimate_record_bytes(op.body.operators(), out, cards)
                b = out[op.body.outputs[0].op.id]
            elif ins:
                b = ins[0]
            else:
                b = PLANNING_BYTES_PER_RECORD
            out[op.id] = b
        return out

    @staticmethod
    def _weighted_union_bytes(op: Operator, ins: list[float], cards) -> float:
        """Cardinality-weighted width of a two-input union (not ``ins[0]``:
        the left branch alone misprices movement when the branches differ)."""
        if cards is not None:
            weights = [cards[ref.op.id].geometric_mean
                       for ref in op.inputs
                       if ref is not None and ref.op.id in cards]
            if len(weights) == 2 and sum(weights) > 0:
                total = sum(weights)
                return (weights[0] * ins[0] + weights[1] * ins[1]) / total
        return (ins[0] + ins[1]) / 2.0

    # -------------------------------------------------------- alternatives
    def _filter_alternatives(self, op: Operator,
                             alts: list[ExecutionAlternative]):
        if self.allowed_platforms is not None:
            alts = [a for a in alts if a.platform in self.allowed_platforms]
        if op.side_inputs:
            alts = [a for a in alts if a.broadcast_descriptor() is not None]
        if not alts:
            raise OptimizationError(f"no usable execution alternative for {op}")
        return alts

    def _data_channel_descriptors(self) -> list[ChannelDescriptor]:
        return [d for d in self.graph.descriptors()
                if "broadcast" not in d.name]

    # --------------------------------------------------------------- loops
    def _loop_decisions(self, loop: LoopOperator,
                        cards: dict[int, CardinalityEstimate],
                        bprs: dict[int, float],
                        paths: PathTable,
                        across: bool = True) -> list[LoopDecision]:
        body_ops = loop.body.operators()
        output_op = loop.body.outputs[0].op
        phantom = {inp.id for inp in loop.body.inputs}
        phantom.add(output_op.id)
        body_bprs = self._estimate_record_bytes(body_ops, dict(bprs),
                                                cards=cards)

        def body_alternatives(op: Operator):
            if isinstance(op, LoopInput):
                descs = self._data_channel_descriptors()
                if op.index > 0:
                    # Loop-invariant inputs are converted once, outside the
                    # loop, so they must land on a reusable channel.
                    descs = [d for d in descs if d.reusable]
                return [ChannelSourceDecision(d) for d in descs]
            if isinstance(op, LoopOperator):
                return self._loop_decisions(op, cards, body_bprs, paths,
                                            across)
            return self._filter_alternatives(
                op, self.registry.alternatives_for(op))

        # The job pays the start-ups of the body's platforms once, through
        # ``LoopDecision.platforms``.  A body run zero times (or inside
        # one) costs nothing but them, so it compares no two platform sets.
        iterations = loop.expected_iterations()
        across = across and iterations > 0
        results = self._enumerate_ops(body_ops, cards, body_bprs,
                                      body_alternatives, paths,
                                      phantom_open=phantom, across=across)
        decisions: list[LoopDecision] = []
        for partial in results:
            input_descs = [
                partial.open_channels[inp.id] for inp in loop.body.inputs]
            out_desc = partial.open_channels[output_op.id]
            feedback = self._path(paths, out_desc, input_descs[0],
                                  output_op.id, cards, body_bprs)
            if feedback is None:
                continue
            cost = partial.cost.times(iterations).plus(
                CostEstimate.fixed(feedback.cost * iterations))
            decisions.append(LoopDecision(
                loop=loop,
                body=partial,
                input_descriptors=input_descs,
                output_descriptor=out_desc,
                feedback=feedback,
                platforms=partial.platforms,
                cost=cost,
            ))
        if not decisions:
            raise OptimizationError(f"no executable body plan for {loop}")
        return decisions

    # ------------------------------------------------------------- the DP
    def _enumerate_ops(
        self,
        ops: Sequence[Operator],
        cards: dict[int, CardinalityEstimate],
        bprs: dict[int, float],
        alternatives: Callable[[Operator], list],
        paths: PathTable,
        phantom_open: set[int],
        started: frozenset[str] = frozenset(),
        across: bool = True,
    ) -> list[PartialPlan]:
        """Enumerate execution plans for ``ops`` (topologically ordered).

        Returns the surviving partial plans covering ALL operators, with no
        start-up charged: :meth:`pick_best` adds those of a complete plan,
        and a loop's job those of its body.  Operators in ``phantom_open``
        keep their output channel in the signature even with no uncovered
        consumer (loop inputs/outputs).  Platforms in ``started`` are
        running already: no plan pays their start-up.

        Each connected component of the operators seen so far keeps a
        frontier of its own, keyed by its own open channels, so branches
        that have not met yet never multiply each other.  An operator that
        reads from several components first joins their frontiers
        (:meth:`_join`); the components left apart at the end are joined
        too.
        """
        consumer_counts = self._consumer_counts(ops)
        remaining = dict(consumer_counts)
        # component -> its frontier, under the component's latest operator
        frontiers: dict[int, list[PartialPlan]] = {}
        # operator -> a later operator of its component (union-find)
        owner: dict[int, int] = {}
        # platforms -> added platforms -> :meth:`_touch`
        touch: dict[frozenset[str], dict[frozenset[str], tuple]] = {}

        def joined(parts: list[list[PartialPlan]]) -> list[PartialPlan]:
            return functools.reduce(lambda mine, theirs: self._join(
                mine, theirs, touch, across), parts)

        for op in ops:
            options = alternatives(op)
            to_close = set()
            consumed: dict[int, int] = {}
            for ref in list(op.inputs) + list(op.side_inputs):
                if ref is not None and ref.op.id in remaining:
                    consumed[ref.op.id] = consumed.get(ref.op.id, 0) + 1
            parts: list[list[PartialPlan]] = []
            owner[op.id] = op.id
            for pid, k in consumed.items():
                remaining[pid] -= k
                if remaining[pid] <= 0 and pid not in phantom_open:
                    to_close.add(pid)
                while owner[pid] != pid:
                    pid = owner[pid]
                if pid in frontiers:
                    parts.append(frontiers.pop(pid))
                    owner[pid] = op.id
            if not parts:
                self.last_enumeration_size += 1  # an empty root plan
                parts.append([PartialPlan(platforms=started)])
            keep_open = (consumer_counts.get(op.id, 0) > 0
                         or op.id in phantom_open)
            frontier = self._extend(op, options, joined(parts), cards, bprs,
                                    to_close, keep_open, paths, touch, across)
            if not frontier:
                raise OptimizationError(f"no executable plan at operator {op}")
            frontiers[op.id] = frontier
        return joined(list(frontiers.values()))

    @staticmethod
    def _consumer_counts(ops: Sequence[Operator]) -> dict[int, int]:
        counts: dict[int, int] = {op.id: 0 for op in ops}
        for op in ops:
            for ref in list(op.inputs) + list(op.side_inputs):
                if ref is not None and ref.op.id in counts:
                    counts[ref.op.id] += 1
        return counts

    def _extend(
        self,
        op: Operator,
        options: list[Decision],
        frontier: list[PartialPlan],
        cards: dict[int, CardinalityEstimate],
        bprs: dict[int, float],
        to_close: set[int],
        keep_open: bool,
        paths: PathTable,
        touch: dict[frozenset[str], dict[frozenset[str], tuple]],
        across: bool,
    ) -> list[PartialPlan]:
        """One DP step: every frontier plan x every option of ``op``.

        What depends on the option alone is prepared once
        (:meth:`_prepare`), the open signature a plan keeps past
        ``to_close`` once per plan, and a conversion once per (channel
        pair, producer) of the enumeration (``paths``).  A candidate is
        then plain floats, added in a fixed operand order (the plan's
        bounds, conversions by slot, broadcast conversions, operator,
        stage dispatch; never pre-summed, so totals are bit-for-bit those
        of chained ``CostEstimate.plus``), compared with its open
        signature's survivors (:meth:`_admit`); only the step's survivors
        become a validated ``CostEstimate`` and a ``PartialPlan``.
        """
        prepared = [p for p in (self._prepare(op, option, cards, bprs)
                                for option in options) if p is not None]
        op_id, prune = op.id, self.prune
        # Data inputs by slot, then broadcast side inputs (negative slots).
        edges = [(slot, ref.op.id) for slot, ref in enumerate(op.inputs)]
        edges += [(-(slot + 1), ref.op.id)
                  for slot, ref in enumerate(op.side_inputs)]
        # open signature -> its survivors' entries, first seen first:
        # (lower, upper, platforms, plan, prep, conversions added)
        groups: dict[tuple, list[tuple]] = {}
        enumerated = wirings = 0
        for partial in frontier:
            base, have = partial.cost, partial.platforms
            haves = [(slot, producer, partial.open_channels.get(producer))
                     for slot, producer in edges]
            sig = tuple(entry for entry in partial.open_sig
                        if entry[0] not in to_close)
            cut = bisect.bisect(sig, (op_id,))  # where ``op``'s entry goes
            head, tail = sig[:cut], sig[cut:]
            for prep in prepared:
                # Stage dispatch: a new stage starts when no data input
                # arrives from the same platform (the executor's stage cut).
                new_stage = prep.platform is not None
                lower, upper, added = base.lower, base.upper, {}
                for (slot, producer, chan), want in zip(haves, prep.wants):
                    if chan is None:
                        break  # producer out of scope: unwired
                    if slot >= 0 and chan.platform == prep.platform:
                        new_stage = False
                    if chan.name == want.name:
                        continue
                    wirings += 1
                    try:
                        path = paths[chan.name, want.name, producer]
                    except KeyError:
                        path = self._path(paths, chan, want, producer, cards,
                                          bprs)
                    if path is None:
                        break  # unreachable channel
                    added[producer, op_id, slot] = path
                    lower += path.cost
                    upper += path.cost
                else:  # every slot wired
                    lower += prep.lower
                    upper += prep.upper
                    if new_stage:
                        lower += prep.overhead
                        upper += prep.overhead
                    enumerated += 1
                    platforms = self._touch(touch, have, prep.platforms)[0]
                    open_sig = (head + ((op_id, prep.out_desc.name),) + tail
                                if keep_open else sig)
                    group = groups.setdefault(open_sig, [])
                    if not prune or self._admit(group, platforms, lower,
                                                upper, touch, across):
                        group.append((lower, upper, platforms, partial, prep,
                                      added))
        self.stats["conversion_paths_solved"] += wirings

        def build(sig, lower, upper, platforms, partial, prep, added):
            channels = partial.open_channels
            if to_close or keep_open:
                channels = {i: desc for i, desc in channels.items()
                            if i not in to_close}
                if keep_open:
                    channels[op_id] = prep.out_desc
            return PartialPlan(
                CostEstimate(lower, upper,
                             min(partial.cost.confidence, prep.confidence)),
                {**partial.decisions, op_id: prep.option},
                {**partial.conversions, **added} if added
                else partial.conversions, channels, platforms, sig)
        return self._survivors(groups, enumerated, build)

    def _join(self, left: list[PartialPlan], right: list[PartialPlan],
              touch: dict[frozenset[str], dict[frozenset[str], tuple]],
              across: bool) -> list[PartialPlan]:
        """The frontiers of two components joined: their cross product,
        pruned like a step.  A joined plan adds the two intervals and holds
        both halves' decisions, conversions, open channels and platforms;
        the halves cover disjoint operators, so no entry is overwritten."""
        groups: dict[tuple, list[tuple]] = {}
        sigs: dict[tuple, tuple] = {}  # (left, right signature) -> joined
        for mine in left:
            mine_sig, mine_cost, have = (mine.open_sig, mine.cost,
                                         mine.platforms)
            for theirs in right:
                key = mine_sig, theirs.open_sig
                sig = sigs.get(key)
                if sig is None:
                    sig = sigs[key] = tuple(sorted(key[0] + key[1]))
                lower = mine_cost.lower + theirs.cost.lower
                upper = mine_cost.upper + theirs.cost.upper
                platforms = self._touch(touch, have, theirs.platforms)[0]
                group = groups.setdefault(sig, [])
                if not self.prune or self._admit(group, platforms, lower,
                                                 upper, touch, across):
                    group.append((lower, upper, platforms, mine, theirs))

        def build(sig, lower, upper, platforms, mine, theirs):
            return PartialPlan(
                CostEstimate(lower, upper, min(mine.cost.confidence,
                                               theirs.cost.confidence)),
                {**mine.decisions, **theirs.decisions},
                {**mine.conversions, **theirs.conversions},
                {**mine.open_channels, **theirs.open_channels}, platforms,
                sig)
        return self._survivors(groups, len(left) * len(right), build)

    def _survivors(self, groups: dict[tuple, list[tuple]], enumerated: int,
                   build: Callable[..., PartialPlan]) -> list[PartialPlan]:
        """The frontier of one step or join, counted and built from each
        surviving entry: every candidate not in it was pruned, on arrival
        or by a later one."""
        frontier = [build(sig, *entry)
                    for sig, group in groups.items() for entry in group]
        self.last_enumeration_size += len(frontier)
        self.stats["plans_enumerated"] += enumerated
        self.stats["plans_pruned"] += enumerated - len(frontier)
        return frontier

    def _touch(self, touch: dict, have: frozenset[str],
               add: frozenset[str]) -> tuple:
        """``(have | add, S)``, memoized in ``touch``: ``S`` is what the
        start-ups of ``add - have`` weigh (:meth:`_startups`)."""
        try:
            return touch[have][add]
        except KeyError:
            hit = touch.setdefault(have, {})[add] = (
                have | add, self._startups(add - have))
            return hit

    def _startups(self, platforms: frozenset[str]) -> float:
        """The objective-weighted start-ups of ``platforms``, summed in name
        order (a sum must not depend on set order)."""
        return math.fsum(CostEstimate.fixed(
            self.cost_model.cluster.profile(p).startup_s
            * self.objective.weight(p)).lower for p in sorted(platforms))

    def _admit(self, group: list[tuple], platforms: frozenset[str],
               lower: float, upper: float, touch: dict,
               across: bool) -> bool:
        """The pruning rule: whether a candidate survives the entries of its
        open signature, ``group`` — each ``(lower, upper, platforms, ...)``
        — from which it removes those it beats.

        Plan A beats plan B when A, plus the start-ups ``S`` of the
        platforms only A touches, is <= B on both bounds: any completion
        adds the same operator, conversion and dispatch terms to both, and
        a complete plan pays each start-up once, so A's completion costs B's
        plus at most ``S``.  Within one platform set ``S`` is 0, and the
        group keeps the Pareto set of (lower, upper).  Without ``across``,
        plans of two platform sets are never compared.  Ties keep the
        first seen: a survivor drops a candidate on <=, a candidate drops a
        survivor only when strictly cheaper.  A dominator needs
        ``lower > 0``: at a zero lower bound the geometric mean jumps to
        the midpoint.  ``S`` enters a complete plan's float sum elsewhere
        than here, so a nonzero margin pads by 2**-30: a tie across a
        start-up keeps both plans."""
        beaten, pad = [], 1 + 2 ** -30
        for i, entry in enumerate(group):
            low, high, theirs = entry[0], entry[1], entry[2]
            their_low, their_high, my_low, my_high = low, high, lower, upper
            if theirs != platforms:
                if not across:
                    continue
                it_owes = self._touch(touch, platforms, theirs)[1]
                if it_owes:
                    their_low = (low + it_owes) * pad
                    their_high = (high + it_owes) * pad
                i_owe = self._touch(touch, theirs, platforms)[1]
                if i_owe:
                    my_low = (lower + i_owe) * pad
                    my_high = (upper + i_owe) * pad
            if low > 0 and their_low <= lower and their_high <= upper:
                return False
            if lower > 0 and my_low < low and my_high < high:
                beaten.append(i)
        for i in reversed(beaten):
            del group[i]
        return True

    def _prepare(self, op: Operator, option: Decision,
                 cards: dict[int, CardinalityEstimate],
                 bprs: dict[int, float]) -> _Prepared | None:
        """Everything about ``option`` that no partial plan can change.

        ``None`` drops the option for every plan (memory-infeasible, or no
        broadcast channel for a side input).  Cost operands are validated
        here, once: the option's weighted interval is one ``CostEstimate``,
        its stage dispatch a checked float.
        """
        if isinstance(option, ChannelSourceDecision):
            return _Prepared(option, (), option.descriptor, frozenset(), None,
                             0.0, 0.0, 1.0, 0.0)
        platform: str | None = None
        bcast_desc: ChannelDescriptor | None = None
        overhead = 0.0
        if isinstance(option, LoopDecision):
            in_descs = option.input_descriptors
            out_desc = option.output_descriptor
            option_platforms = option.platforms
            cost = option.cost
        else:
            platform = option.platform
            in_descs = option.input_descriptors()
            out_desc = option.output_descriptor()
            option_platforms = frozenset({platform})
            cins = [cards[ref.op.id] for ref in op.inputs]
            bytes_in = (bprs.get(op.inputs[0].op.id, PLANNING_BYTES_PER_RECORD)
                        if op.inputs else PLANNING_BYTES_PER_RECORD)
            bytes_out = bprs.get(op.id, PLANNING_BYTES_PER_RECORD)
            # Memory feasibility: never plan onto a platform that cannot
            # hold the operator's estimated footprint (pessimistically, on
            # the upper cardinality bounds).  An explicit user pin overrides
            # the check — and may fail at runtime, like the paper's killed
            # JGraph runs.
            profile = self.cost_model.cluster.profile(platform)
            demand = max(
                o.memory_demand_mb([c.upper for c in cins], cards[op.id].upper,
                                   bytes_in, bytes_out)
                for o in option.ops)
            if demand > profile.memory_cap_mb and op.target_platform is None:
                return None
            weight = self.objective.weight(platform)
            cost = option.cost(self.cost_model, cins, cards[op.id], bytes_in,
                               bytes_out, weight)
            overhead = fixed_seconds(
                profile.stage_overhead_s
                * max(o.tasks_fraction(profile) for o in option.ops)
                * weight)
            bcast_desc = option.broadcast_descriptor()
        wants = [in_descs[slot] for slot in range(len(op.inputs))]
        if op.side_inputs:
            if bcast_desc is None:
                return None
            wants += [bcast_desc] * len(op.side_inputs)
        return _Prepared(option, tuple(wants), out_desc, option_platforms,
                         platform, cost.lower, cost.upper, cost.confidence,
                         overhead)

    def _path(self, paths: PathTable, have: ChannelDescriptor,
              want: ChannelDescriptor, producer: int,
              cards: dict[int, CardinalityEstimate],
              bprs: dict[int, float]) -> ConversionPath | None:
        """Cheapest ``have -> want`` conversion of ``producer``'s output.

        Volume is a function of the producer within one enumeration, so
        an answer — ``None`` when unreachable — is looked up once per
        distinct key and lives in ``paths``; the graph is searched once per
        distinct (have, volume), a whole row at a time.
        """
        key = (have.name, want.name, producer)
        if key not in paths:
            records = cards[producer].geometric_mean
            width = bprs.get(producer, PLANNING_BYTES_PER_RECORD)
            row = paths.get((have.name, records, width))
            if row is None:
                self.stats["conversion_paths_distinct"] += 1
                row = paths[have.name, records, width] = \
                    self.graph.paths_from(have, records, width)
            path = paths[key] = row.get(want.name)
            if path is not None:
                fixed_seconds(path.cost)  # validates: non-negative
        return paths[key]

    # --------------------------------------------------- plan construction
    def _build_execution_plan(self, plan: RheemPlan,
                              best: PartialPlan) -> ExecutionPlan:
        # A reuse root's upstream cone was pruned out of the enumeration,
        # so there is nothing to build above it.
        build, ordered = self._task_builder(
            best, lambda op, d: CachedResultExec(op, d.channel))
        sink_tasks = [build(sink) for sink in plan.sinks]
        return ExecutionPlan(ordered, sink_tasks)

    def _build_loop_impl(self, decision: LoopDecision) -> LoopImplementation:
        loop = decision.loop
        build, ordered = self._task_builder(
            decision.body, lambda op, d: LoopBodySource(op, d.descriptor))
        output_task = build(loop.body.outputs[0].op)
        input_tasks = [build(inp) for inp in loop.body.inputs]
        return LoopImplementation(loop, ExecutionPlan(ordered, [output_task]),
                                  input_tasks, decision.feedback)

    def _task_builder(self, partial: PartialPlan,
                      source: Callable[[Operator, Any], ExecutionOperator]
                      ) -> tuple[Callable[[Operator], ExecutionTask],
                                 list[ExecutionTask]]:
        """``build(op)``, which adds the tasks of ``op`` and its producers
        to ``ordered`` once, by ``partial``'s decisions; ``source`` makes
        the operator of a ``ChannelSourceDecision``."""
        tasks: dict[int, ExecutionTask] = {}
        ordered: list[ExecutionTask] = []

        def build(op: Operator) -> ExecutionTask:
            if op.id in tasks:
                return tasks[op.id]
            decision = partial.decisions[op.id]
            if isinstance(decision, ChannelSourceDecision):
                task = ExecutionTask(source(op, decision), [], [])
                ordered.append(task)
                tasks[op.id] = task
                return task
            def wired(ref, slot: int) -> TaskInput:
                return TaskInput(build(ref.op), partial.conversions.get(
                    (ref.op.id, op.id, slot), ConversionPath([], 0.0)))

            inputs = [wired(ref, slot) for slot, ref in enumerate(op.inputs)]
            broadcasts = [wired(ref, -(slot + 1))
                          for slot, ref in enumerate(op.side_inputs)]
            if isinstance(decision, LoopDecision):
                task = ExecutionTask(self._build_loop_impl(decision), inputs,
                                     broadcasts)
                ordered.append(task)
            else:
                task = self._append_chain(decision, inputs, broadcasts,
                                          ordered)
            tasks[op.id] = task
            return task

        return build, ordered

    @staticmethod
    def _append_chain(decision: ExecutionAlternative,
                      inputs: list[TaskInput],
                      broadcasts: list[TaskInput],
                      ordered: list[ExecutionTask]) -> ExecutionTask:
        task = ExecutionTask(decision.ops[0], inputs, broadcasts)
        ordered.append(task)
        for extra in decision.ops[1:]:
            task = ExecutionTask(extra,
                                 [TaskInput(task, ConversionPath([], 0.0))], [])
            ordered.append(task)
        return task


class CachedResultExec(ExecutionOperator):
    """Re-emits a held channel at zero cost (result reuse, resume).

    ``logical`` is the reuse-root operator of the submitted plan, so the
    task reports the right logical id to the monitor and completion
    tracking; the payload comes from the intermediate-result store or
    from the paused run of the job itself.
    """

    op_kind = "cached_result"

    def __init__(self, logical: Operator, channel: Channel) -> None:
        super().__init__(logical)
        self.channel = channel
        self.platform = channel.descriptor.platform or DRIVER_PLATFORM

    def input_descriptors(self):
        return []

    def output_descriptor(self):
        return self.channel.descriptor

    def tasks_fraction(self, profile) -> float:
        return 0.0

    def cost_estimate(self, model, cins, cout):
        return CostEstimate.zero()

    def execute(self, inputs, broadcasts, ctx):
        # Detach: the held channel stays resident and may be re-emitted
        # into several runs, whose branches must not share mutable payloads.
        return self.channel.detached()


class LoopBodySource(ExecutionOperator):
    """Placeholder task primed by the loop driver each iteration."""

    platform = DRIVER_PLATFORM
    op_kind = "loop_input"

    def __init__(self, logical: LoopInput, descriptor: ChannelDescriptor) -> None:
        super().__init__(logical)
        self.descriptor = descriptor

    def input_descriptors(self):
        return []

    def output_descriptor(self):
        return self.descriptor

    def execute(self, inputs, broadcasts, ctx):  # pragma: no cover
        raise RuntimeError("LoopBodySource channels are primed by the executor")
