"""The executor (Section 4.2 of the paper).

Cuts the execution plan into stages and runs them in list order (a valid
topological order) on the calling thread, drives loops (pausing at loop
heads to evaluate the condition), applies channel conversions at stage
boundaries, and aggregates simulated time along the critical path: the
inter-platform parallelism of independent stages is an overlap in
*simulated* time, which is the time every figure reports.  Each stage
attempt runs against scratch state that is committed only if the attempt
survives.

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

from ..simulation.clock import CostMeter, CriticalPathTracker, StageTiming
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
    run's monitor, the platforms it started and its simulated makespan.
    """

    def __init__(self, materialized: dict[int, Channel], monitor: Monitor,
                 started_platforms: set[str], makespan: float) -> None:
        super().__init__("progressive re-optimization requested")
        self.materialized = materialized
        self.monitor = monitor
        self.started_platforms = started_platforms
        self.makespan = makespan


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
class ExecutionResult:
    """Outcome of a job."""

    outputs: list[Any]
    runtime: float
    tracker: CriticalPathTracker
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
        start_at: float = 0.0,
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
        the ``started_platforms`` of its paused run and that run's makespan
        as ``start_at``: a checkpoint is a barrier, nothing here starts
        earlier.

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
        max_retries = max_stage_retries if fault_injector else 0
        monitor = Monitor(estimates=dict(estimates or {}),
                          metrics=self.metrics)
        tracker = CriticalPathTracker(origin=start_at)
        started = started_platforms if started_platforms is not None else set()
        env: dict[int, Channel] = {}
        conversion_cache: dict[tuple, Channel] = {}
        sniffer_map: dict[int, list[Sniffer]] = {}
        for sniffer in sniffers:
            sniffer_map.setdefault(sniffer.logical_id, []).append(sniffer)

        stages = plan.build_stages(break_after=stage_breaks)
        crossing = self._crossing_ids(plan, stages)
        completed_logical: set[int] = set()
        offers = (self._publish_offers(plan, stages, crossing)
                  if publish_results else {})

        with self.tracer.span("executor.run", stages=len(stages)) as run_span:
            for index, stage in enumerate(stages):
                timing = self._run_stage(
                    stage, stage.id, sorted(stage.dependencies), env,
                    conversion_cache, monitor, completed_logical, tracker,
                    sniffer_map=sniffer_map, crossing=crossing,
                    started=started, injector=fault_injector,
                    max_retries=max_retries)
                # Publication happens only here, at a top-level commit —
                # loop-body stages commit into their parent's scratch
                # state and never publish; crashed attempts were discarded
                # before reaching a commit.  ``timing.end`` is the stage's
                # simulated critical-path end: the cumulative cost of
                # (re)computing the published data.
                for task_id, key in offers.get(stage.id, ()):
                    channel = env.get(task_id)
                    if (channel is not None
                            and channel.actual_count is not None):
                        self.result_store.offer(key, channel,
                                                recompute_s=timing.end)
                # Checkpoint barrier: every earlier stage committed, no
                # later one started.
                if checkpoint is not None and index < len(stages) - 1:
                    if checkpoint(monitor, set(completed_logical)):
                        run_span.set("paused_after", stage.id)
                        raise ReplanRequested(
                            self._materialized(plan, env), monitor, started,
                            tracker.makespan)
            run_span.set("sim_makespan", tracker.makespan)

        outputs = [env[t.id].payload for t in plan.sink_tasks]
        return ExecutionResult(
            outputs=outputs,
            runtime=tracker.makespan,
            tracker=tracker,
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
    def _run_stage(self, stage, label, deps, env, cache, monitor, completed,
                   tracker, *, sniffer_map, crossing, started, injector,
                   max_retries, epoch=0) -> StageTiming:
        """Run one stage's attempts against scratch state, then commit.

        Retries on injected platform failures up to ``max_retries``;
        wasted attempts are recorded on ``tracker`` (the cluster paid for
        them) and the surviving attempt chains after the last failure.
        Only the surviving attempt's state is committed into ``env``,
        ``cache``, ``monitor`` and ``completed`` — the job's for a
        top-level stage, the enclosing attempt's scratch state for a
        loop-body stage — so a crashed attempt leaves only its cost.
        """
        from .faults import PlatformFailure

        if self.cancel_check is not None:
            # Stage boundary: the only cancellation point, deliberately
            # outside the attempt scratch state below — a cancelled job
            # keeps every committed stage and abandons nothing half-done.
            self.cancel_check()
        attempt = 0
        attempt_deps = deps
        with self.tracer.span(f"stage:{label}",
                              platform=stage.platform) as stage_span:
            while True:
                meter = CostMeter()
                attempt_env = dict(env)
                attempt_cache = dict(cache)
                attempt_completed: set[int] = set()
                memory_demands: list[tuple[str, float]] = []
                pending_sniffs: list[tuple[list[Sniffer], Any, Channel]] = []
                observations: list[OperatorObservation] = []
                scratch = Monitor()
                # A fresh context per attempt: a crashed attempt's meter
                # and monitor are thrown away with it.
                ctx = ExecutionContext(cluster=self.cluster, meter=meter,
                                       pgres=self.pgres, monitor=scratch,
                                       seed=self.seed, epoch=epoch)
                with self.tracer.span(f"attempt{attempt}") as attempt_span:
                    self._charge_stage_overheads(stage, meter, started)
                    for task in stage.tasks:
                        self._execute_task(
                            task, attempt_env, ctx, attempt_cache,
                            sniffer_map, parent_stage=stage,
                            observations=observations,
                            pending_sniffs=pending_sniffs,
                            completed=attempt_completed, tracker=tracker,
                            started=started, injector=injector,
                            max_retries=max_retries)
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
                    failed = (injector is not None
                              and injector.should_fail(label, attempt))
                    attempt_span.set("failed", failed)
                    attempt_span.set("sim_seconds", meter.total)
                self.metrics.counter("executor.attempts").inc()
                if not failed:
                    break
                if attempt >= max_retries:
                    raise PlatformFailure(label, attempt)
                # Discard the attempt's scratch state; only the
                # critical-path charge survives.
                self.metrics.counter("executor.retries_wasted").inc()
                wasted = f"{label}.attempt{attempt}"
                tracker.record(wasted, attempt_deps, meter)
                attempt_deps = [wasted]
                attempt += 1
        # Commit the surviving attempt.
        for platform, needed_mb in memory_demands:
            self.cluster.check_memory(platform, needed_mb)
        env.update(attempt_env)
        cache.update(attempt_cache)
        completed |= attempt_completed
        monitor.absorb(scratch)
        for sniffers, op, out in pending_sniffs:
            self._sniff(sniffers, op, out, meter)
        timing = tracker.record(label, attempt_deps, meter)
        stage_span.set("attempts", attempt + 1)
        stage_span.set("sim_seconds", meter.total)
        self.metrics.counter("executor.stages").inc()
        monitor.record_stage(timing, stage.platform, observations)
        return timing

    # --------------------------------------------------------------- tasks
    def _execute_task(self, task, env, ctx, cache, sniffer_map,
                      parent_stage, *, observations, pending_sniffs,
                      completed, tracker, started,
                      injector=None, max_retries=0) -> None:
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
            out = self._run_loop(op, inputs, ctx, parent_stage,
                                 tracker=tracker, sniffer_map=sniffer_map,
                                 completed=completed, started=started,
                                 injector=injector, max_retries=max_retries)
        else:
            out = op.execute(inputs, broadcasts, ctx)
            ctx.record_output(op, out)
            cin = sum(ch.sim_cardinality for ch in inputs
                      if ch.actual_count is not None)
            cout = out.sim_cardinality if out.actual_count is not None else 0.0
            observations.append(OperatorObservation(
                op.platform, op.observed_op_kind(inputs, ctx), op.work(),
                cin, cout))
            logical_id = task.logical_id
            if (logical_id in sniffer_map and out.actual_count is not None
                    and not isinstance(op, CachedResultExec)):
                # A held channel flowed past its sniffers when it was
                # produced.  Deferred to commit time: a crashed attempt
                # never produced observable data, so its sniffers must
                # stay silent.
                pending_sniffs.append((sniffer_map[logical_id], op, out))
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
    def _run_loop(self, impl: LoopImplementation, inputs: list[Channel],
                  ctx, parent_stage, *, tracker, sniffer_map, completed,
                  started, injector=None, max_retries=0) -> Channel:
        loop = impl.logical
        channels = list(inputs)
        body_stages = impl.body_plan.build_stages()
        # Loop-body stages materialize channels at their boundaries just
        # like top-level stages, so they face the same memory checks.
        body_crossing = self._crossing_ids(impl.body_plan, body_stages)
        iteration = 0
        # The parent (driver) stage is recorded only after the loop ends, so
        # the first iteration chains off the loop's producer stages instead.
        initial_deps = sorted(parent_stage.dependencies)
        last_tail: str | None = None
        max_iterations = (loop.iterations if isinstance(loop, RepeatLoop)
                          else loop.max_iterations)
        while iteration < max_iterations:
            env: dict[int, Channel] = {}
            cache: dict[tuple, Channel] = {}
            for k, task in enumerate(impl.body_input_tasks):
                if task is not None:
                    env[task.id] = channels[k]
            prefix = f"{parent_stage.id}.loop{impl.id}.it{iteration}"
            for stage in body_stages:
                deps = [f"{prefix}.{d}" for d in sorted(stage.dependencies)]
                deps.extend([last_tail] if last_tail is not None
                            else initial_deps)
                # Body stages run inside the parent's attempt and commit
                # into its scratch monitor and completed buffer, which a
                # crashed parent attempt discards; their critical-path
                # records stay, as the cluster paid for them.
                self._run_stage(
                    stage, f"{prefix}.{stage.id}", deps, env, cache,
                    ctx.monitor, completed, tracker,
                    sniffer_map=sniffer_map, crossing=body_crossing,
                    started=started, injector=injector,
                    max_retries=max_retries, epoch=iteration)
            if body_stages:
                last_tail = f"{prefix}.{body_stages[-1].id}"
            loop_var = env[impl.body_plan.sink_tasks[0].id]
            iteration += 1
            done = iteration >= max_iterations
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
