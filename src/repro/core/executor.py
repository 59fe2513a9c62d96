"""The executor (Section 4.2 of the paper).

Cuts the execution plan into stages and runs them in list order (a valid
topological order) on the calling thread, drives loops (pausing at loop
heads to evaluate the condition), applies channel conversions at stage
boundaries, and places every stage run on the simulated critical path: the
inter-platform parallelism of independent stages is an overlap in
*simulated* time, which is the time every figure reports.  Each stage
attempt runs against scratch state that is committed only if the attempt
survives, and every attempt — survived or wasted — is one record in the
job's :class:`~repro.simulation.clock.StageLedger`.

The executor also implements:

* **optimization checkpoints** — after every stage (our stage outputs are
  always data at rest), an optional hook inspects the monitor; a truthy
  return pauses the job and raises :class:`ReplanRequested` carrying the
  materialized state, which the progressive optimizer consumes;
* **exploratory mode** — sniffers attached to logical operators observe
  the data flowing past them at a simulated multiplexing cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..simulation.clock import CostMeter, StageLedger, StageRecord
from ..simulation.cluster import VirtualCluster
from ..trace import NO_TRACER, MetricsRegistry
from .batch import records_of
from .cardinality import CardinalityEstimate
from .channels import Channel, ChannelConversionGraph, ConversionPath
from .execution import (
    DRIVER_PLATFORM,
    ExecutionContext,
    ExecutionPlan,
    ExecutionStage,
    LoopImplementation,
)
from .monitor import Monitor, OperatorObservation
from .operators import DoWhileLoop, RepeatLoop
from .optimizer import CachedResultExec, LoopBodySource
from .resultstore import IntermediateResultStore

#: Checkpoint hook: (monitor, completed logical op ids) -> True to replan.
CheckpointHook = Callable[[Monitor, set[int]], bool]


class JobCancelled(RuntimeError):
    """Raised by a cancellation hook to abandon a job between stages.

    The executor calls its ``cancel_check`` at every stage boundary (top
    level and inside loop bodies) — *outside* any attempt's buffered
    scratch state, so a cancelled job leaves every committed stage intact
    and nothing half-done behind: the shared plan cache, metrics and
    monitor stay consistent.  The job server maps this to the ``timeout``
    (deadline exceeded) job state.
    """


class ReplanRequested(Exception):
    """Raised when a checkpoint decides the remainder must be re-optimized.

    Carries everything the progressive optimizer needs to resume: the
    latest materialized channel per completed logical operator id, the
    run's monitor (and through it the job's ledger) and the platforms it
    started.
    """

    def __init__(self, materialized: dict[int, Channel], monitor: Monitor,
                 started_platforms: set[str]) -> None:
        super().__init__("progressive re-optimization requested")
        self.materialized = materialized
        self.monitor = monitor
        self.started_platforms = started_platforms


@dataclass
class Sniffer:
    """Exploratory-mode tap on a logical operator's output.

    The callback receives the operator's output payload each time it is
    produced; the multiplexing/socket work is charged at ``cost_factor``
    times the platform's per-record cost.
    """

    logical_id: int
    callback: Callable[[Any], None]
    cost_factor: float = 0.5


@dataclass
class _Job:
    """What every stage run of one job shares."""

    ledger: StageLedger
    #: The platforms started so far (see ``_charge_stage_overheads``).
    started: set[str]
    sniffers: dict[int, list[Sniffer]]
    injector: Any
    max_retries: int


@dataclass
class ExecutionResult:
    """Outcome of a job."""

    outputs: list[Any]
    runtime: float
    #: The job's ledger: every stage run, over every round of the job.
    tracker: StageLedger
    monitor: Monitor
    stage_count: int
    platforms: set[str] = field(default_factory=set)
    #: Static-analysis findings for the plan that produced this result
    #: (:class:`repro.analysis.Diagnostic` objects; empty when analysis
    #: was disabled).
    diagnostics: list = field(default_factory=list)
    #: Whether this run's stage observations may feed online cost-model
    #: calibration.  Mirrors the result-store bypass: sniffer and
    #: fault-injection runs measure exploratory or perturbed executions,
    #: not production cost truth.
    calibration_ok: bool = False

    @property
    def output(self) -> Any:
        return self.outputs[0]


class Executor:
    """Runs execution plans on the registered platforms."""

    def __init__(
        self,
        cluster: VirtualCluster,
        graph: ChannelConversionGraph,
        pgres: Any = None,
        seed: int = 42,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        cancel_check: Callable[[], None] | None = None,
        result_store: IntermediateResultStore | None = None,
    ) -> None:
        self.cluster = cluster
        self.graph = graph
        self.pgres = pgres
        self.seed = seed
        #: Cross-job intermediate-result store; committed stage outputs
        #: are offered to it when ``execute(publish_results=True)``.
        self.result_store = result_store
        self.tracer = tracer or NO_TRACER
        self.metrics = metrics or MetricsRegistry()
        #: Cooperative cancellation hook, called at every stage boundary;
        #: raises (e.g. :class:`JobCancelled`) to abandon the job cleanly.
        self.cancel_check = cancel_check

    # ----------------------------------------------------------- execution
    def execute(
        self,
        plan: ExecutionPlan,
        estimates: dict[int, CardinalityEstimate] | None = None,
        checkpoint: CheckpointHook | None = None,
        sniffers: Sequence[Sniffer] = (),
        started_platforms: set[str] | None = None,
        ledger: StageLedger | None = None,
        fault_injector=None,
        max_stage_retries: int = 2,
        stage_breaks: set[int] = frozenset(),
        publish_results: bool = False,
    ) -> ExecutionResult:
        """Run ``plan`` to completion (or to a checkpoint pause).

        Stages run one at a time in stage-list order: each is computed
        against per-attempt scratch state, committed, its keyed outputs
        offered to the result store, and the checkpoint consulted.
        Independent stages still overlap on the *simulated* critical path,
        which is where the makespan comes from.  A resumed job hands over
        the ``started_platforms`` and the ``ledger`` of its paused run:
        this run's records are appended to it, and since a checkpoint is a
        barrier none of them starts before the ledger's makespan.

        Failed stages (simulated crashes from ``fault_injector``) are re-run
        from their materialized inputs up to ``max_stage_retries`` times —
        the cross-platform fault tolerance of :mod:`repro.core.faults`.
        The injector and retry bound live only on this call's stack: a
        raised :class:`PlatformFailure` or :class:`ReplanRequested` cannot
        leave a stale injector armed for a later ``execute()`` on the same
        executor (the progressive-optimizer resume path reuses it).

        Raises:
            ReplanRequested: If the ``checkpoint`` hook asks for
                re-optimization after some stage.
            PlatformFailure: If a stage keeps crashing past the retry
                bound.  Every earlier stage has committed, no later one
                has run.
        """
        ledger = ledger if ledger is not None else StageLedger()
        started = started_platforms if started_platforms is not None else set()
        job = _Job(ledger, started, {}, fault_injector,
                   max_stage_retries if fault_injector else 0)
        monitor = Monitor(dict(estimates or {}), ledger)
        # A stage starts when its dependencies end — ids resolve within
        # this run, whose stages are numbered from ``stage1`` again — and
        # no earlier than the runs the ledger already holds.
        floor = ledger.makespan
        ends: dict[str, float] = {}
        sim_seconds = self.metrics.histogram("monitor.stage_sim_seconds")
        env: dict[int, Channel] = {}
        conversion_cache: dict[tuple, Channel] = {}
        for sniffer in sniffers:
            job.sniffers.setdefault(sniffer.logical_id, []).append(sniffer)

        stages = plan.build_stages(break_after=stage_breaks)
        crossing = self._crossing_ids(plan, stages)
        completed_logical: set[int] = set()
        offers = (self._publish_offers(plan, stages, crossing)
                  if publish_results else {})

        with self.tracer.span("executor.run", stages=len(stages)) as run_span:
            for index, stage in enumerate(stages):
                mark = len(ledger.records)
                record = self._run_stage(
                    job, stage, stage.id,
                    max([floor] + [ends[d] for d in stage.dependencies]),
                    env, conversion_cache, completed_logical, crossing)
                ends[stage.id] = record.end
                for nested in ledger.records[mark:]:
                    if nested.survived:
                        sim_seconds.observe(nested.duration)
                # Publication happens only here, at a top-level commit —
                # loop-body stages commit into their parent's scratch
                # state and never publish; crashed attempts were discarded
                # before reaching a commit.  ``record.end`` is the stage's
                # simulated critical-path end: the cumulative cost of
                # (re)computing the published data.
                for task_id, key in offers.get(stage.id, ()):
                    channel = env.get(task_id)
                    if (channel is not None
                            and channel.actual_count is not None):
                        self.result_store.offer(key, channel,
                                                recompute_s=record.end)
                # Checkpoint barrier: every earlier stage committed, no
                # later one started.
                if checkpoint is not None and index < len(stages) - 1:
                    if checkpoint(monitor, set(completed_logical)):
                        run_span.set("paused_after", stage.id)
                        raise ReplanRequested(
                            self._materialized(plan, env), monitor, started)
            run_span.set("sim_makespan", ledger.makespan)

        outputs = [env[t.id].payload for t in plan.sink_tasks]
        return ExecutionResult(
            outputs=outputs,
            runtime=ledger.makespan,
            tracker=ledger,
            monitor=monitor,
            stage_count=len(stages),
            platforms=set(started),
            # The calibration hygiene predicate, mirrored from the
            # result-store bypass: exploratory (sniffed) and perturbed
            # (fault-injected) runs must never teach the cost model.
            calibration_ok=(not sniffers and fault_injector is None),
        )

    # ------------------------------------------------------- result reuse
    def _publish_offers(self, plan: ExecutionPlan,
                        stages: list[ExecutionStage],
                        crossing: set[int]) -> dict[str, list[tuple]]:
        """stage id -> ``[(task id, store key), ...]`` to offer at commit.

        Candidates are the *final* task of each reuse-keyed logical
        operator (an operator may map to a chain of execution tasks; only
        the chain's last output is the operator's result).  Per stage we
        offer every candidate materialized at a stage boundary plus the
        stage's last in-stage candidate — the output downstream jobs are
        most likely to reuse (typically the channel feeding a sink).
        Outputs of :class:`~repro.core.optimizer.CachedResultExec` tasks
        are offered too, but the store only refreshes their recency (the
        key is already resident).
        """
        store = self.result_store
        reuse_keys = getattr(plan, "reuse_keys", {})
        if store is None or not store.enabled or not reuse_keys:
            return {}
        final: dict[int, int] = {}
        for task in plan.tasks:
            lid = task.logical_id
            if lid is not None and lid in reuse_keys:
                final[lid] = task.id
        keyed = {task_id: reuse_keys[lid] for lid, task_id in final.items()}
        offers: dict[str, list[tuple]] = {}
        for stage in stages:
            per: list[tuple] = []
            tail: tuple | None = None
            for task in stage.tasks:
                key = keyed.get(task.id)
                if key is None:
                    continue
                if task.id in crossing:
                    per.append((task.id, key))
                else:
                    tail = (task.id, key)
            if tail is not None and tail not in per:
                per.append(tail)
            if per:
                offers[stage.id] = per
        return offers

    # ------------------------------------------------------------ topology
    @staticmethod
    def _crossing_ids(plan: ExecutionPlan,
                      stages: list[ExecutionStage]) -> set[int]:
        """Task ids whose outputs are materialized at a stage boundary."""
        stage_of = {task.id: stage.id
                    for stage in stages for task in stage.tasks}
        crossing: set[int] = set(t.id for t in plan.sink_tasks)
        for task in plan.tasks:
            for ti in task.inputs + task.broadcast_inputs:
                if stage_of.get(ti.producer.id) != stage_of.get(task.id):
                    crossing.add(ti.producer.id)
        return crossing

    # -------------------------------------------------------------- stages
    def _run_stage(self, job: _Job, stage, label, start, env, cache,
                   completed, crossing, epoch=0) -> StageRecord:
        """Run one stage's attempts against scratch state, then commit.

        The first attempt starts at ``start``; a retry on an injected
        platform failure (up to ``job.max_retries``) starts where the
        crashed attempt ended.  Every attempt is one ledger record, and a
        crashed one is wasted together with every record it nested (a
        loop driver's body runs).  An attempt that nested records starts
        its own where the last of them ends: a loop's driver stage closes
        after its body's last stage.  Only the surviving attempt's state
        is committed into ``env``, ``cache`` and ``completed`` — the job's
        for a top-level stage, the enclosing attempt's scratch state for a
        loop-body stage — so a crashed attempt leaves only its cost.
        """
        from .faults import PlatformFailure

        if self.cancel_check is not None:
            # Stage boundary: the only cancellation point, deliberately
            # outside the attempt scratch state below — a cancelled job
            # keeps every committed stage and abandons nothing half-done.
            self.cancel_check()
        ledger = job.ledger
        attempt = 0
        with self.tracer.span(f"stage:{label}",
                              platform=stage.platform) as stage_span:
            while True:
                mark = len(ledger.records)
                meter = CostMeter()
                attempt_env = dict(env)
                attempt_cache = dict(cache)
                attempt_completed: set[int] = set()
                memory_demands: list[tuple[str, float]] = []
                pending_sniffs: list[tuple[list[Sniffer], Any, Channel]] = []
                observations: list[OperatorObservation] = []
                # A fresh context per attempt: a crashed attempt's meter
                # is thrown away with it.
                ctx = ExecutionContext(cluster=self.cluster, meter=meter,
                                       pgres=self.pgres, seed=self.seed,
                                       epoch=epoch)
                with self.tracer.span(f"attempt{attempt}") as attempt_span:
                    self._charge_stage_overheads(stage, meter, job.started)
                    for task in stage.tasks:
                        self._execute_task(
                            job, task, attempt_env, ctx, attempt_cache,
                            label, start, observations=observations,
                            pending_sniffs=pending_sniffs,
                            completed=attempt_completed)
                        if task.logical_id is not None:
                            attempt_completed.add(task.logical_id)
                        # Within-stage outputs are pipelined; only data
                        # materialized at a stage boundary occupies the
                        # platform's memory.
                        out = attempt_env[task.id]
                        if (task.id in crossing
                                and out.actual_count is not None
                                and out.descriptor.in_memory
                                and task.platform in self.cluster.profiles):
                            memory_demands.append(
                                (task.platform, out.sim_mb))
                    failed = (job.injector is not None
                              and job.injector.should_fail(label, attempt))
                    attempt_span.set("failed", failed)
                    attempt_span.set("sim_seconds", meter.total)
                self.metrics.counter("executor.attempts").inc()
                begin = (ledger.records[-1].end if len(ledger.records) > mark
                         else start)
                if not failed:
                    break
                if attempt >= job.max_retries:
                    raise PlatformFailure(label, attempt)
                # Discard the attempt's scratch state; its ledger records
                # stay, as wasted.
                self.metrics.counter("executor.retries_wasted").inc()
                start = ledger.record(label, attempt, stage.platform, begin,
                                      meter, observations).end
                for wasted in ledger.records[mark:]:
                    wasted.survived = False
                attempt += 1
        # Commit the surviving attempt.
        for platform, needed_mb in memory_demands:
            self.cluster.check_memory(platform, needed_mb)
        env.update(attempt_env)
        cache.update(attempt_cache)
        completed |= attempt_completed
        for sniffers, op, out in pending_sniffs:
            self._sniff(sniffers, op, out, meter)
        stage_span.set("attempts", attempt + 1)
        stage_span.set("sim_seconds", meter.total)
        self.metrics.counter("executor.stages").inc()
        return ledger.record(label, attempt, stage.platform, begin, meter,
                             observations)

    # --------------------------------------------------------------- tasks
    def _execute_task(self, job: _Job, task, env, ctx, cache, label, start,
                      *, observations, pending_sniffs, completed) -> None:
        op = task.operator
        if isinstance(op, LoopBodySource):
            if task.id not in env:
                raise RuntimeError(f"loop input {task} was never primed")
            return
        inputs = [self._convert(env[ti.producer.id], ti.conversion, ctx,
                                cache, ti.producer.id)
                  for ti in task.inputs]
        broadcasts = [self._convert(env[ti.producer.id], ti.conversion, ctx,
                                    cache, ti.producer.id)
                      for ti in task.broadcast_inputs]
        if isinstance(op, LoopImplementation):
            out = self._run_loop(job, op, inputs, ctx, label, start,
                                 completed)
        else:
            out = op.execute(inputs, broadcasts, ctx)
            cin = sum(ch.sim_cardinality for ch in inputs
                      if ch.actual_count is not None)
            measured = out.actual_count is not None
            # Only a measured output tells the monitor a cardinality.
            logical = op.logical if measured else None
            observations.append(OperatorObservation(
                op.platform, op.observed_op_kind(inputs, ctx), op.work(),
                cin, out.sim_cardinality if measured else 0.0,
                getattr(logical, "id", None), getattr(logical, "name", "")))
            logical_id = task.logical_id
            if (logical_id in job.sniffers and measured
                    and not isinstance(op, CachedResultExec)):
                # A held channel flowed past its sniffers when it was
                # produced.  Deferred to commit time: a crashed attempt
                # never produced observable data, so its sniffers must
                # stay silent.
                pending_sniffs.append((job.sniffers[logical_id], op, out))
        env[task.id] = out

    def _sniff(self, sniffers, op, channel: Channel, meter: CostMeter) -> None:
        platform = op.platform
        profile = (self.cluster.profile(platform)
                   if platform in self.cluster.profiles else None)
        # A collection as a plain record list, whichever layout the
        # operator emitted; any other payload (a dataset, a path) as it is.
        payload = records_of(channel.payload)
        for sniffer in sniffers:
            sniffer.callback(payload)
            if profile is not None:
                meter.charge(
                    profile.cpu_seconds(channel.sim_cardinality,
                                        sniffer.cost_factor),
                    f"sniffer[{op.name}]", category="cpu")

    def _convert(self, channel: Channel, path: ConversionPath, ctx,
                 cache, producer_id: int) -> Channel:
        """Apply a conversion path, reusing shared prefixes: the first
        consumer in stage order pays for a step, later ones find it in
        ``cache``."""
        current = channel
        key: tuple = (producer_id,)
        for step in path.steps:
            key = key + (step.name,)
            if key in cache:
                current = cache[key]
            else:
                with self.tracer.span(f"convert:{step.name}"):
                    current = step.apply(current, ctx)
                self.metrics.counter("executor.conversions").inc()
                cache[key] = current
        return current

    def _charge_stage_overheads(self, stage: ExecutionStage, meter: CostMeter,
                                started: set[str]) -> None:
        if stage.platform == DRIVER_PLATFORM:
            return
        # ``started`` — the platforms the job has started so far — doubles
        # as the "platforms actually started" report
        # (ExecutionResult.platforms) and the dedup for the startup charge
        # across stages, retries and loop iterations.
        first_use = stage.platform not in started
        started.add(stage.platform)
        if stage.platform not in self.cluster.profiles:
            return
        profile = self.cluster.profile(stage.platform)
        if first_use:
            meter.charge(profile.startup_s, f"{stage.platform}.startup",
                         category="overhead")
            self.metrics.counter("executor.platform_startups").inc()
        fraction = max((t.operator.tasks_fraction(profile)
                        for t in stage.tasks
                        if not isinstance(t.operator, LoopImplementation)),
                       default=1.0)
        meter.charge(profile.stage_overhead_s * fraction,
                     f"{stage.platform}.dispatch", category="overhead")

    # --------------------------------------------------------------- loops
    def _run_loop(self, job: _Job, impl: LoopImplementation,
                  inputs: list[Channel], ctx, label, start,
                  completed) -> Channel:
        """Run a loop's body once per iteration inside the driver stage
        ``label``'s attempt, which started at ``start``."""
        loop = impl.logical
        channels = list(inputs)
        body_stages = impl.body_plan.build_stages()
        # Loop-body stages materialize channels at their boundaries just
        # like top-level stages, so they face the same memory checks.
        body_crossing = self._crossing_ids(impl.body_plan, body_stages)
        # The first iteration chains after the driver attempt's start,
        # every later one after the previous iteration's last stage.
        chain = start
        max_iterations = (loop.iterations if isinstance(loop, RepeatLoop)
                          else loop.max_iterations)
        for iteration in range(max_iterations):
            env: dict[int, Channel] = {}
            cache: dict[tuple, Channel] = {}
            ends: dict[str, float] = {}
            for k, task in enumerate(impl.body_input_tasks):
                if task is not None:
                    env[task.id] = channels[k]
            prefix = f"{label}.loop{impl.id}.it{iteration}"
            for stage in body_stages:
                # Body stages run inside the driver's attempt and commit
                # into its scratch state, which a crashed driver attempt
                # discards; their ledger records stay, marked wasted.
                ends[stage.id] = self._run_stage(
                    job, stage, f"{prefix}.{stage.id}",
                    max([chain] + [ends[d] for d in stage.dependencies]),
                    env, cache, completed, body_crossing,
                    epoch=iteration).end
            chain = ends[body_stages[-1].id]
            loop_var = env[impl.body_plan.sink_tasks[0].id]
            done = iteration + 1 >= max_iterations
            if isinstance(loop, DoWhileLoop) and not done:
                values = self._materialize_payload(loop_var, ctx)
                done = not loop.condition(values)
            if done:
                # The loop's external output keeps the body's channel type;
                # the feedback conversion only runs between iterations.
                return loop_var
            channels[0] = impl.feedback_conversion.apply(loop_var, ctx)
        return channels[0]

    def _materialize_payload(self, channel: Channel, ctx) -> list[Any]:
        """Driver-side view of a channel's records (for loop conditions)."""
        from ..platforms.pystreams.channels import PY_COLLECTION

        if channel.descriptor == PY_COLLECTION:
            return records_of(channel.payload)
        path = self.graph.cheapest_path(
            channel.descriptor, PY_COLLECTION,
            channel.sim_cardinality if channel.actual_count is not None else 0,
            channel.bytes_per_record)
        return records_of(path.apply(channel, ctx).payload)

    # ---------------------------------------------------------- checkpoint
    @staticmethod
    def _materialized(plan: ExecutionPlan, env: dict[int, Channel]
                      ) -> dict[int, Channel]:
        """Latest materialized channel per completed logical operator."""
        out: dict[int, Channel] = {}
        for task in plan.tasks:
            if task.id in env and task.logical_id is not None:
                out[task.logical_id] = env[task.id]
        return out
