"""The cost-based cross-platform optimizer (Section 4.1 of the paper).

Pipeline:

1. **Inflation** — a logical operator is annotated with all its execution
   alternatives (``MappingRegistry.alternatives_for``) when step 4 reaches it.
2. **Cardinality and cost annotation** — interval estimates, bottom-up.
3. **Data movement planning** — per plan edge, the channel conversion graph
   supplies minimum-cost conversion paths between the producing and the
   required channel types.
4. **Plan enumeration** — a dynamic program over the plan in topological
   order.  Partial plans covering the same prefix are *pruned losslessly*:
   only the cheapest survives per signature ``(open output channels,
   platforms already started)`` — the paper's lemma that a dominated
   subplan with identical boundary channels can never be part of the
   optimum (platform start-up costs are in the signature, so they cannot
   break dominance).

Loops are enumerated recursively: the loop body is itself enumerated (its
placeholder inputs may materialize as any data channel), and each surviving
body frontier becomes one execution alternative of the loop operator, costed
at ``iterations x body cost`` plus per-iteration feedback conversion.
"""

from __future__ import annotations

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
from .cost import CostEstimate, CostModel
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
    """A costed assignment of decisions to a prefix of the plan.

    Stored as a *delta chain*: each extension records only the decision and
    conversions it added over ``parent``, so the enumeration's hot loop
    never copies dictionaries.  The full ``decisions``/``conversions``
    mappings materialize lazily — in practice only for the handful of
    winners that reach plan construction.  ``open_channels`` stays a real
    dict (it is read on every extension) but is shared with the parent
    whenever an operator neither closes nor opens a channel.
    """

    __slots__ = ("cost", "gm", "open_channels", "platforms", "parent",
                 "_decision_delta", "_conversion_delta", "_decisions",
                 "_conversions", "_signature")

    def __init__(
        self,
        cost: CostEstimate | None = None,
        decisions: dict[int, Decision] | None = None,
        conversions: dict[tuple[int, int, int], ConversionPath] | None = None,
        open_channels: dict[int, ChannelDescriptor] | None = None,
        platforms: frozenset[str] = frozenset(),
        parent: "PartialPlan | None" = None,
        decision_delta: tuple[int, Decision] | None = None,
        conversion_delta: tuple = (),
    ) -> None:
        self.cost = cost if cost is not None else CostEstimate.zero()
        #: Scalar plan-comparison key, computed once per candidate.
        self.gm = self.cost.geometric_mean
        self.open_channels = open_channels if open_channels is not None else {}
        self.platforms = platforms
        self.parent = parent
        self._decision_delta = decision_delta
        self._conversion_delta = conversion_delta
        # Chain roots (and explicitly-constructed plans) are materialized.
        self._decisions = (dict(decisions) if decisions is not None
                           else {} if parent is None else None)
        self._conversions = (dict(conversions) if conversions is not None
                             else {} if parent is None else None)
        self._signature: tuple | None = None

    def _materialize(self, attr: str) -> dict:
        chain: list[PartialPlan] = []
        node: PartialPlan | None = self
        while getattr(node, attr) is None:
            chain.append(node)  # type: ignore[arg-type]
            node = node.parent  # type: ignore[union-attr]
        merged = dict(getattr(node, attr))
        for part in reversed(chain):
            if attr == "_decisions":
                if part._decision_delta is not None:
                    merged[part._decision_delta[0]] = part._decision_delta[1]
            else:
                for key, path in part._conversion_delta:
                    merged[key] = path
        setattr(self, attr, merged)
        return merged

    @property
    def decisions(self) -> dict[int, Decision]:
        """Operator id -> chosen decision (materialized lazily)."""
        return self._decisions if self._decisions is not None \
            else self._materialize("_decisions")

    @property
    def conversions(self) -> dict[tuple[int, int, int], ConversionPath]:
        """(producer, consumer, slot) -> conversion path (lazy)."""
        return self._conversions if self._conversions is not None \
            else self._materialize("_conversions")

    def signature(self) -> tuple:
        """The lossless-pruning key: (open boundary channels, platforms)."""
        if self._signature is None:
            open_sig = tuple(sorted(
                (op_id, desc.name)
                for op_id, desc in self.open_channels.items()))
            self._signature = (open_sig, self.platforms)
        return self._signature


class Optimizer:
    """Turns Rheem plans into execution plans.

    Args:
        registry: Operator mappings of all registered platforms.
        conversion_graph: The channel conversion graph.
        cost_model: Operator/startup/overhead cost estimation.
        estimation_ctx: Source metadata for cardinality estimation, plus any
            measured cardinalities pinned by the progressive optimizer.
        allowed_platforms: Optional whitelist (used by the single-platform
            baseline runs of the paper's Figure 9).
    """

    def __init__(
        self,
        registry: MappingRegistry,
        conversion_graph: ChannelConversionGraph,
        cost_model: CostModel,
        estimation_ctx: EstimationContext | None = None,
        allowed_platforms: set[str] | None = None,
        objective=None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        from .objectives import RUNTIME

        self.registry = registry
        self.graph = conversion_graph
        self.cost_model = cost_model
        self.estimation_ctx = estimation_ctx or EstimationContext()
        self.allowed_platforms = allowed_platforms
        #: What a second on each platform costs (runtime / monetary / ...).
        self.objective = objective or RUNTIME
        #: Number of partial plans retained across the last enumeration
        #: (exposed for the pruning ablation benchmark).
        self.last_enumeration_size = 0
        self.prune = True
        #: Static analysis gate: lint every plan before enumeration, abort
        #: on error-level findings (set False to optimize unchecked).
        self.analysis = True
        self.tracer = tracer or NO_TRACER
        self.metrics = metrics or MetricsRegistry()
        #: Beam-search engagement threshold (RHEEMix plan-space sampling):
        #: plans with MORE operators than this bound the per-operator
        #: frontier to :attr:`beam_width` cheapest survivors.  At or below
        #: the threshold enumeration is the bit-for-bit identical lossless
        #: DP — the beam path is never entered, so small plans cannot be
        #: affected.  ``None`` disables the beam entirely.
        self.beam_threshold: int | None = 48
        #: Frontier bound once the beam engages.  Survivors are ranked by
        #: (cost gm, signature) so the truncation is deterministic and
        #: ties break exactly like the lossless first-seen rule.
        self.beam_width = 24
        #: Per-phase counters of the last :meth:`pick_best` run.
        self.stats: dict[str, int] = dict.fromkeys(
            ("plans_enumerated", "plans_pruned", "conversion_paths_solved",
             "conversion_paths_distinct", "plans_beam_dropped"), 0)
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
            if report is not None and report.cardinalities is not None:
                cards = dict(report.cardinalities)
            else:
                cards = plan.estimate_cardinalities(self.estimation_ctx)
            if report is not None:
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
        best = min(results, key=lambda p: p.cost.geometric_mean)
        return best, cards

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
        """Lint ``plan`` pre-enumeration; None when analysis is disabled."""
        if not self.analysis:
            return None
        from ..analysis.collector import notify_report
        from ..analysis.engine import PlanAnalyzer

        analyzer = PlanAnalyzer(
            registry=self.registry,
            conversion_graph=self.graph,
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
                        paths: PathTable) -> list[LoopDecision]:
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
                return self._loop_decisions(op, cards, body_bprs, paths)
            return self._filter_alternatives(
                op, self.registry.alternatives_for(op))

        # Platform start-up is a once-per-job cost: exclude it from the body
        # cost (which gets multiplied by the iteration count); the outer
        # enumeration charges it when the loop's platform set first appears.
        results = self._enumerate_ops(body_ops, cards, body_bprs,
                                      body_alternatives, paths,
                                      phantom_open=phantom,
                                      include_startup=False)

        iterations = loop.expected_iterations()
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
        include_startup: bool = True,
        started: frozenset[str] = frozenset(),
    ) -> list[PartialPlan]:
        """Enumerate execution plans for ``ops`` (topologically ordered).

        Returns the surviving partial plans covering ALL operators; with
        pruning enabled, one per boundary signature (lossless).  Operators
        in ``phantom_open`` keep their output channel in the signature even
        with no uncovered consumer (loop inputs/outputs).  Platforms in
        ``started`` are running already: no plan pays their start-up.

        Above :attr:`beam_threshold` operators the lossless frontier is
        additionally bounded to the :attr:`beam_width` cheapest signatures
        after each operator step (beam search): on 100+-operator plans the
        signature space — open channels × touched-platform subsets — grows
        past what per-signature pruning alone can contain, and RHEEMix's
        answer is to sample the plan space rather than enumerate it.  The
        truncation order is deterministic (cost, then signature), so
        repeated optimizations of the same plan pick the same winner.
        """
        beam = (self.beam_width
                if (self.prune and self.beam_threshold is not None
                    and len(ops) > self.beam_threshold)
                else None)
        consumer_counts = self._consumer_counts(ops)
        remaining = dict(consumer_counts)
        frontier: list[PartialPlan] = [PartialPlan(platforms=started)]
        # A loop body is enumerated from inside the outer loop below, so
        # the size is summed locally and added once (never reset here).
        size = 1
        # Signature tuples recur across every operator step; interning them
        # makes the dict probes below mostly pointer comparisons.
        intern: dict[tuple, tuple] = {}

        for op in ops:
            options = alternatives(op)
            to_close = set()
            consumed: dict[int, int] = {}
            for ref in list(op.inputs) + list(op.side_inputs):
                if ref is not None and ref.op.id in remaining:
                    consumed[ref.op.id] = consumed.get(ref.op.id, 0) + 1
            for pid, k in consumed.items():
                remaining[pid] -= k
                if remaining[pid] <= 0 and pid not in phantom_open:
                    to_close.add(pid)
            keep_open = (consumer_counts.get(op.id, 0) > 0
                         or op.id in phantom_open)

            frontier = self._extend(op, options, frontier, cards, bprs,
                                    to_close, keep_open, include_startup,
                                    paths, intern)
            if not frontier:
                raise OptimizationError(f"no executable plan at operator {op}")
            if beam is not None and len(frontier) > beam:
                frontier.sort(key=self._beam_rank)
                self.stats["plans_beam_dropped"] += len(frontier) - beam
                del frontier[beam:]
            size += len(frontier)
        self.last_enumeration_size += size
        return frontier

    @staticmethod
    def _beam_rank(partial: PartialPlan) -> tuple:
        """Deterministic beam order: cheapest first, signature-tie-broken.

        The signature tail makes equal-cost survivors sort identically
        across runs and cache states (frozensets have no stable iteration
        order, so platforms are sorted into a tuple)."""
        open_sig, platforms = partial.signature()
        return (partial.gm, open_sig, tuple(sorted(platforms)))

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
        include_startup: bool,
        paths: PathTable,
        intern: dict[tuple, tuple],
    ) -> list[PartialPlan]:
        """One DP step: every frontier plan x every option of ``op``.

        Nothing is derived more often than it can change: what depends on
        the option alone is prepared once (:meth:`_prepare`), a conversion
        once per (channel pair, producer) of the enumeration (``paths``),
        the first-touch start-up terms once per (started, option) platform
        sets, the copy-on-write open channels and their signature half
        once per (plan, output channel).  A candidate then costs float
        additions in a fixed operand order (conversions by slot, broadcast
        conversions, operator, start-ups, stage dispatch — never pre-summed,
        so totals are bit-for-bit those of chained ``CostEstimate.plus``),
        one signature probe and the incumbent comparison; only survivors
        become a validated ``CostEstimate`` and a ``PartialPlan``.  With
        pruning on, first-seen wins ties: an incumbent is replaced only by
        a strictly cheaper plan, so cache-on/off runs tie-break alike.
        """
        prepared = [p for p in (self._prepare(op, option, cards, bprs)
                                for option in options) if p is not None]
        op_id, prune = op.id, self.prune
        # Data inputs by slot, then broadcast side inputs (negative slots).
        edges = [(slot, ref.op.id) for slot, ref in enumerate(op.inputs)]
        edges += [(-(slot + 1), ref.op.id)
                  for slot, ref in enumerate(op.side_inputs)]
        best: dict[tuple, PartialPlan] = {}
        unpruned: list[PartialPlan] = []
        # started platforms -> option platforms -> (start-ups, union)
        touch: dict[frozenset[str], dict[
            frozenset[str], tuple[tuple[float, ...], frozenset[str]]]] = {}
        enumerated = pruned = wirings = 0
        for partial in frontier:
            base, open_channels = partial.cost, partial.open_channels
            touched = touch.setdefault(partial.platforms, {})
            haves = [(slot, producer, open_channels.get(producer))
                     for slot, producer in edges]
            outs: dict[str, tuple[dict[int, ChannelDescriptor], tuple]] = {}
            for (option, wants, out_desc, option_platforms, platform,
                 cost_lower, cost_upper, confidence, overhead) in prepared:
                lower, upper = base.lower, base.upper
                conv_delta = []
                # Stage dispatch: a new stage starts when no data input
                # arrives from the same platform (the executor's stage cut).
                new_stage = platform is not None
                for (slot, producer, have), want in zip(haves, wants):
                    if have is None:
                        break  # producer outside this enumeration scope
                    if slot >= 0 and have.platform == platform:
                        new_stage = False
                    if have.name != want.name:
                        wirings += 1
                        try:
                            path = paths[have.name, want.name, producer]
                        except KeyError:
                            path = self._path(paths, have, want, producer,
                                              cards, bprs)
                        if path is None:
                            break  # unreachable channel
                        conv_delta.append(((producer, op_id, slot), path))
                        lower += path.cost
                        upper += path.cost
                else:  # every input is wired
                    lower += cost_lower
                    upper += cost_upper
                    # Platform start-up: first touch of each platform, in
                    # name order (a sum must not depend on set order).
                    started = touched.get(option_platforms)
                    if started is None:
                        fresh = sorted(option_platforms - partial.platforms)
                        started = touched[option_platforms] = (
                            tuple(CostEstimate.fixed(
                                self.cost_model.platform_startup(p)
                                * self.objective.weight(p)).lower
                                for p in fresh) if include_startup else (),
                            partial.platforms | option_platforms)
                    for startup in started[0]:
                        lower += startup
                        upper += startup
                    if new_stage:
                        lower += overhead
                        upper += overhead
                    # Channel bookkeeping — copy-on-write: share the parent's
                    # dict when ``op`` neither closes nor opens a channel.
                    opened = outs.get(out_desc.name)
                    if opened is None:
                        channels = open_channels
                        if to_close or keep_open:
                            channels = dict(open_channels)
                            for pid in to_close:
                                channels.pop(pid, None)
                            if keep_open:
                                channels[op_id] = out_desc
                        open_sig = tuple(sorted(
                            (i, desc.name) for i, desc in channels.items()))
                        opened = outs[out_desc.name] = (
                            channels, intern.setdefault(open_sig, open_sig))
                    enumerated += 1
                    sig = (opened[1], started[1])
                    if prune:
                        # CostEstimate.geometric_mean, on the bare floats.
                        gm = ((lower + upper) / 2 if lower <= 0
                              else math.sqrt(lower * upper))
                        incumbent = best.get(sig)
                        if incumbent is not None:
                            pruned += 1  # this candidate or the incumbent
                            if incumbent.gm <= gm:
                                continue
                    extended = PartialPlan(
                        cost=CostEstimate(lower, upper,
                                          min(base.confidence, confidence)),
                        open_channels=opened[0],
                        platforms=started[1],
                        parent=partial,
                        decision_delta=(op_id, option),
                        conversion_delta=tuple(conv_delta),
                    )
                    extended._signature = sig
                    if prune:
                        best[sig] = extended
                    else:
                        unpruned.append(extended)
        self.stats["plans_enumerated"] += enumerated
        self.stats["plans_pruned"] += pruned
        self.stats["conversion_paths_solved"] += wirings
        return list(best.values()) if prune else unpruned

    def _prepare(self, op: Operator, option: Decision,
                 cards: dict[int, CardinalityEstimate],
                 bprs: dict[int, float]) -> _Prepared | None:
        """Everything about ``option`` that no partial plan can change.

        ``None`` drops the option for every plan (memory-infeasible, or no
        broadcast channel for a side input).  Cost operands are validated
        here, once, as ``CostEstimate``s.
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
                               bytes_out).times(weight)
            overhead = CostEstimate.fixed(
                profile.stage_overhead_s
                * max(o.tasks_fraction(profile) for o in option.ops)
                * weight).lower
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
        distinct key and lives in ``paths``; the graph (and its lock) is
        searched once per distinct (have, volume), a whole row at a time.
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
                CostEstimate.fixed(path.cost)  # validates: non-negative
        return paths[key]

    # --------------------------------------------------- plan construction
    def _build_execution_plan(self, plan: RheemPlan,
                              best: PartialPlan) -> ExecutionPlan:
        tasks: dict[int, ExecutionTask] = {}
        ordered: list[ExecutionTask] = []

        def build(op: Operator) -> ExecutionTask:
            if op.id in tasks:
                return tasks[op.id]
            decision = best.decisions[op.id]
            if isinstance(decision, CachedResultDecision):
                # A reuse root: its upstream cone was pruned out of the
                # enumeration, so there is nothing to build above it.
                task = ExecutionTask(CachedResultExec(op, decision.channel),
                                     [], [])
                ordered.append(task)
                tasks[op.id] = task
                return task
            inputs = [
                TaskInput(build(ref.op),
                          best.conversions.get((ref.op.id, op.id, slot),
                                               ConversionPath([], 0.0)))
                for slot, ref in enumerate(op.inputs)
            ]
            broadcasts = [
                TaskInput(build(ref.op),
                          best.conversions.get((ref.op.id, op.id, -(slot + 1)),
                                               ConversionPath([], 0.0)))
                for slot, ref in enumerate(op.side_inputs)
            ]
            if isinstance(decision, LoopDecision):
                impl = self._build_loop_impl(decision)
                task = ExecutionTask(impl, inputs, broadcasts)
                ordered.append(task)
            else:
                task = self._append_chain(decision, inputs, broadcasts, ordered)
            tasks[op.id] = task
            return task

        sink_tasks = [build(sink) for sink in plan.sinks]
        return ExecutionPlan(ordered, sink_tasks)

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

    def _build_loop_impl(self, decision: LoopDecision) -> LoopImplementation:
        loop = decision.loop
        body_partial = decision.body
        tasks: dict[int, ExecutionTask] = {}
        ordered: list[ExecutionTask] = []
        input_tasks: list[ExecutionTask | None] = [None] * len(loop.body.inputs)

        def build(op: Operator) -> ExecutionTask:
            if op.id in tasks:
                return tasks[op.id]
            d = body_partial.decisions[op.id]
            if isinstance(d, ChannelSourceDecision):
                task = ExecutionTask(LoopBodySource(op, d.descriptor), [], [])
                ordered.append(task)
                tasks[op.id] = task
                input_tasks[op.index] = task
                return task
            inputs = [
                TaskInput(build(ref.op),
                          body_partial.conversions.get(
                              (ref.op.id, op.id, slot),
                              ConversionPath([], 0.0)))
                for slot, ref in enumerate(op.inputs)
            ]
            broadcasts = [
                TaskInput(build(ref.op),
                          body_partial.conversions.get(
                              (ref.op.id, op.id, -(slot + 1)),
                              ConversionPath([], 0.0)))
                for slot, ref in enumerate(op.side_inputs)
            ]
            if isinstance(d, LoopDecision):
                task = ExecutionTask(self._build_loop_impl(d), inputs,
                                     broadcasts)
                ordered.append(task)
            else:
                task = self._append_chain(d, inputs, broadcasts, ordered)
            tasks[op.id] = task
            return task

        output_task = build(loop.body.outputs[0].op)
        for inp in loop.body.inputs:
            build(inp)
        body_plan = ExecutionPlan(ordered, [output_task])
        return LoopImplementation(loop, body_plan, input_tasks,
                                  decision.feedback)


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
