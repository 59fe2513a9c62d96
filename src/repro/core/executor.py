"""The executor (Section 4.2 of the paper).

Cuts the execution plan into stages and runs them in list order (a valid
topological order) on the calling thread, drives loops (pausing at loop
heads to evaluate the condition), applies channel conversions at stage
boundaries, and places every stage run on the simulated critical path: the
inter-platform parallelism of independent stages is an overlap in
*simulated* time, which is the time every figure reports.  Under a fault
injector each stage attempt runs against scratch state that is committed
only if the attempt survives; every attempt — survived or wasted — is one
record in the job's :class:`~repro.simulation.clock.StageLedger`.

A plan is *prepared* once per ``execute``, and a loop body once per loop
run: stage order, dependencies as list positions, each task's dispatch
kind, crossing flag, conversion paths and observation constants, each
stage's dispatch charge, and one context for its stages.  An iteration
runs the kernels, charges the meters and appends one ledger record per
stage; the job's metrics move once, when it ends.

The executor also implements:

* **optimization checkpoints** — after every stage (our stage outputs are
  always data at rest), an optional hook inspects the monitor; a truthy
  return pauses the job and raises :class:`ReplanRequested` carrying the
  materialized state, which the progressive optimizer consumes;
* **exploratory mode** — sniffers attached to logical operators observe
  the data flowing past them at a simulated multiplexing cost.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..simulation.clock import CostMeter, StageLedger, StageRecord
from ..simulation.cluster import VirtualCluster
from ..trace import NO_TRACER, MetricsRegistry
from .batch import records_of
from .cardinality import CardinalityEstimate
from .channels import (Channel, ChannelConversionGraph, ConversionPath,
                       PY_COLLECTION)
from .execution import (
    DRIVER_PLATFORM,
    ExecutionContext,
    ExecutionPlan,
    ExecutionStage,
    ExecutionTask,
    LoopImplementation,
)
from .faults import PlatformFailure
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
    #: The platforms started so far; dedups the startup charge.
    started: set[str]
    sniffers: dict[int, list[Sniffer]]
    injector: Any
    max_retries: int
    stages: int = 0
    attempts: int = 0


#: Stands in for a span while the tracer is off (no name is formatted).
_UNTRACED = nullcontext()

#: How a prepared task is dispatched.
_SOURCE, _LOOP, _OPERATOR = range(3)


@dataclass(slots=True)
class _Task:
    """A prepared task: input edges as ``(producer id, path or None)``;
    ``crossing``: its output occupies its platform's memory at commit;
    ``chain``: the chain it ends, itself last, and whose inputs it reads
    (empty: none); ``observed``: its observation's constant fields."""

    task: ExecutionTask
    kind: int
    inputs: list[tuple[int, ConversionPath | None]]
    broadcasts: list[tuple[int, ConversionPath | None]]
    crossing: bool
    logical_id: int | None
    observed: tuple
    chain: list["_Task"] = field(default_factory=list)


@dataclass(slots=True)
class _Stage:
    """A prepared stage: its dependencies' list positions, its profile
    (``None``: no overhead charged), dispatch charge and label, offers,
    shared context, and its tasks' logical ids if all are loop inputs."""

    stage: ExecutionStage
    deps: list[int]
    tasks: list[_Task]
    profile: Any
    dispatch: tuple[float, str]
    offers: list[tuple]
    ctx: ExecutionContext
    sources: list[int] | None


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
        env: dict[int, Channel] = {}
        completed_logical: set[int] = set()
        for sniffer in sniffers:
            job.sniffers.setdefault(sniffer.logical_id, []).append(sniffer)
        store = self.result_store
        stages = self._prepare(plan, stage_breaks, (
            getattr(plan, "reuse_keys", {}) if publish_results
            and store is not None and store.enabled else {}), job.sniffers)
        # This run's records are those from ``first`` on; none of its
        # stages starts before the runs the ledger already holds.
        first = committed = len(ledger.records)

        def commit(index: int, stage: _Stage, record: StageRecord) -> None:
            nonlocal committed
            committed = len(ledger.records)
            # Only a top-level commit publishes; ``record.end`` is the
            # data's (re)computing cost on the critical path.
            for task_id, key in stage.offers:
                channel = env.get(task_id)
                if channel is not None and channel.actual_count is not None:
                    store.offer(key, channel, recompute_s=record.end)
            # Checkpoint barrier: earlier stages committed, none started.
            if (checkpoint is not None and index < len(stages) - 1
                    and checkpoint(monitor, set(completed_logical))):
                run_span.set("paused_after", stage.stage.id)
                raise ReplanRequested(
                    self._materialized(plan, env), monitor, started)

        try:
            with self.tracer.span("executor.run",
                                  stages=len(stages)) as run_span:
                self._run_stages(job, stages, "", ledger.makespan, env, {},
                                 completed_logical, 0, commit)
                runtime = ledger.makespan
                run_span.set("sim_makespan", runtime)
        finally:
            # Once per job, by every stage run it made.
            for name, count in (("executor.stages", job.stages),
                                ("executor.attempts", job.attempts)):
                if count:
                    self.metrics.counter(name).inc(count)
            self.metrics.histogram("monitor.stage_sim_seconds").observe_all(
                r.duration for r in ledger.records[first:committed]
                if r.survived)

        return ExecutionResult(
            outputs=[env[t.id].payload for t in plan.sink_tasks],
            runtime=runtime,
            tracker=ledger,
            monitor=monitor,
            stage_count=len(stages),
            platforms=set(started),
            # The calibration hygiene predicate, mirrored from the
            # result-store bypass: exploratory (sniffed) and perturbed
            # (fault-injected) runs must never teach the cost model.
            calibration_ok=(not sniffers and fault_injector is None),
        )

    # ------------------------------------------------------------ topology
    @staticmethod
    def _crossing_ids(plan: ExecutionPlan,
                      stages: list[ExecutionStage]) -> set[int]:
        """Task ids whose outputs are materialized at a stage boundary."""
        stage_of = {task.id: stage.id
                    for stage in stages for task in stage.tasks}
        return {t.id for t in plan.sink_tasks} | {
            ti.producer.id for task in plan.tasks
            for ti in task.inputs + task.broadcast_inputs
            if stage_of.get(ti.producer.id) != stage_of.get(task.id)}

    def _prepare(self, plan: ExecutionPlan, breaks: set[int],
                 reuse_keys: dict[int, tuple], sniffed) -> list[_Stage]:
        """Cut ``plan`` into stages, sharing one context, and fix what no
        run of them changes.  A stage offers the result store the reuse
        candidates (the *final* task of each reuse-keyed logical operator)
        it materializes, at its boundary or read twice, then its last
        other one (typically a sink's input).  A crossing, twice-read,
        offered or ``sniffed`` output (logical ids) ends a chain."""
        stages = plan.build_stages(break_after=breaks)
        crossing = self._crossing_ids(plan, stages)
        consumers = Counter(ti.producer.id for task in plan.tasks
                            for ti in task.inputs + task.broadcast_inputs)
        ends = crossing | {task_id for task_id, n in consumers.items()
                           if n > 1} | {task.id for task in plan.tasks
                                        if task.logical_id in sniffed}
        profiles = self.cluster.profiles
        position = {stage.id: i for i, stage in enumerate(stages)}
        final = {task.logical_id: task.id for task in plan.tasks
                 if task.logical_id in reuse_keys}
        keyed = {task_id: reuse_keys[lid] for lid, task_id in final.items()}
        ctx = ExecutionContext(self.cluster, pgres=self.pgres, seed=self.seed)

        def edges(inputs) -> list[tuple[int, ConversionPath | None]]:
            return [(ti.producer.id, ti.conversion if ti.conversion.steps
                     else None) for ti in inputs]

        prepared = []
        for stage in stages:
            tasks = [_Task(
                task, _SOURCE if isinstance(task.operator, LoopBodySource)
                else _LOOP if isinstance(task.operator, LoopImplementation)
                else _OPERATOR, edges(task.inputs),
                edges(task.broadcast_inputs),
                task.id in crossing and task.platform in profiles,
                task.logical_id, (task.platform, task.operator.work(),
                                  task.logical_id, getattr(
                                      task.operator.logical, "name", "")))
                for task in stage.tasks]
            profile = (profiles.get(stage.platform)
                       if stage.platform != DRIVER_PLATFORM else None)
            dispatch_s = 0.0 if profile is None else (
                profile.stage_overhead_s * max(
                    (t.task.operator.tasks_fraction(profile) for t in tasks
                     if t.kind != _LOOP), default=1.0))
            offers = [(t.id, keyed[t.id]) for t in stage.tasks
                      if t.id in keyed and t.id in ends]
            offers += [(t.id, keyed[t.id]) for t in stage.tasks
                       if t.id in keyed and t.id not in ends][-1:]
            prepared.append(_Stage(
                stage, [position[d] for d in stage.dependencies],
                self._chains(tasks, ends | {t for t, __ in offers}),
                profile, (dispatch_s, f"{stage.platform}.dispatch"), offers,
                ctx, None if any(t.kind != _SOURCE for t in tasks)
                else [t.logical_id for t in tasks]))
        return prepared

    @staticmethod
    def _chains(tasks: list[_Task], ends: set[int]) -> list[_Task]:
        """Link one stage's ``tasks`` in one scan: a ``chain_link`` member
        or fold with one input and no broadcasts extends the chain of a
        producer whose output is not one of ``ends`` over an edge with no
        conversion; a member starts one.  Returns the tasks to dispatch."""
        chains: dict[int, list[_Task]] = {}
        for t in tasks:
            link = (t.task.operator.chain_link() if t.kind == _OPERATOR
                    and len(t.inputs) == 1 and not t.broadcasts else None)
            if link is None:
                continue
            producer, path = t.inputs[0]
            chain = chains.pop(producer, None) if path is None else None
            if chain is None and link == "member":
                chain = []
            if chain is not None:
                chain.append(t)
                t.chain, t.inputs = chain, chain[0].inputs
            if link == "member" and t.task.id not in ends:
                chains[t.task.id] = chain
        return [t for t in tasks if not t.chain or t.chain[-1] is t]

    # -------------------------------------------------------------- stages
    def _run_stages(self, job: _Job, stages: list[_Stage], prefix: str,
                    floor: float, env, cache, completed, epoch,
                    commit=None) -> float:
        """Run prepared stages in order, each labelled ``prefix`` + its id
        and started when its dependencies end (no earlier than ``floor``),
        then ``commit(index, stage, record)``; returns the last end."""
        ends: list[float] = []
        for index, stage in enumerate(stages):
            record = self._run_stage(
                job, stage, prefix + stage.stage.id,
                max([floor, *map(ends.__getitem__, stage.deps)]),
                env, cache, completed, epoch)
            ends.append(record.end)
            if commit is not None:
                commit(index, stage, record)
        return ends[-1] if ends else floor

    def _run_stage(self, job: _Job, stage: _Stage, label, start, env,
                   cache, completed, epoch) -> StageRecord:
        """Run one stage's attempts, then commit; returns its record.

        The first attempt starts at ``start``; a retry on an injected
        platform failure (up to ``job.max_retries``) starts where the
        crashed attempt ended.  Every attempt is one ledger record, and a
        crashed one is wasted together with every record it nested (a
        loop driver's body runs).  An attempt that nested records starts
        its own where the last of them ends: a loop's driver stage closes
        after its body's last stage.  Outputs go to ``env``, ``cache`` and
        ``completed``; a job that can retry runs each attempt against
        copies and commits the survivor's.  Without an injector, a stage of
        loop inputs only records itself.  Spans open only while tracing.
        """
        if self.cancel_check is not None:
            # Stage boundary: the only cancellation point, deliberately
            # outside the attempt scratch state below — a cancelled job
            # keeps every committed stage and abandons nothing half-done.
            self.cancel_check()
        ledger = job.ledger
        retry = job.injector is not None
        if stage.sources is not None and not retry:
            job.stages, job.attempts = job.stages + 1, job.attempts + 1
            completed.update(stage.sources)
            return ledger.record(label, 0, DRIVER_PLATFORM, start, CostMeter())
        platform = stage.stage.platform
        profile = stage.profile
        ctx = stage.ctx
        ctx.epoch = epoch
        traced = self.tracer.enabled
        attempt = 0
        with (self.tracer.span(f"stage:{label}", platform=platform)
              if traced else _UNTRACED) as stage_span:
            while True:
                mark = len(ledger.records)
                ctx.meter = meter = CostMeter()
                attempt_env, attempt_cache, attempt_completed = (
                    (dict(env), dict(cache), set()) if retry
                    else (env, cache, completed))
                pending_sniffs: list[tuple[list[Sniffer], Any, Channel]] = []
                observations: list[OperatorObservation] = []
                with (self.tracer.span(f"attempt{attempt}") if traced
                      else _UNTRACED) as attempt_span:
                    if profile is not None:
                        if platform not in job.started:
                            meter.charge(profile.startup_s,
                                         f"{platform}.startup", "overhead")
                            self.metrics.counter(
                                "executor.platform_startups").inc()
                        meter.charge(*stage.dispatch, "overhead")
                    if platform != DRIVER_PLATFORM:
                        job.started.add(platform)
                    for task in stage.tasks:
                        attempt_env[task.task.id] = self._execute_task(
                            job, task, attempt_env, ctx, attempt_cache,
                            label, start, observations, pending_sniffs,
                            attempt_completed)
                        if task.logical_id is not None:
                            attempt_completed.add(task.logical_id)
                    failed = retry and job.injector.should_fail(label,
                                                                attempt)
                    if traced:
                        attempt_span.set("failed", failed)
                        attempt_span.set("sim_seconds", meter.total)
                job.attempts += 1
                begin = (ledger.records[-1].end if len(ledger.records) > mark
                         else start)
                if not failed:
                    break
                if attempt >= job.max_retries:
                    raise PlatformFailure(label, attempt)
                # Discard the attempt's scratch state; its ledger records
                # stay, as wasted.
                self.metrics.counter("executor.retries_wasted").inc()
                start = ledger.record(label, attempt, platform, begin,
                                      meter, observations).end
                for wasted in ledger.records[mark:]:
                    wasted.survived = False
                attempt += 1
        # Commit the surviving attempt.  Within-stage outputs are pipelined:
        # only data materialized at a stage boundary occupies memory.
        for task in stage.tasks:
            out = attempt_env[task.task.id]
            if (task.crossing and out.actual_count is not None
                    and out.descriptor.in_memory):
                self.cluster.check_memory(task.task.platform, out.sim_mb)
        if retry:
            env.update(attempt_env)
            cache.update(attempt_cache)
            completed |= attempt_completed
        for sniffers, op, out in pending_sniffs:
            # A collection as a plain record list, whichever layout the
            # operator emitted; any other payload (a dataset, a path) as is.
            payload = records_of(out.payload)
            sniff_profile = self.cluster.profiles.get(op.platform)
            for sniffer in sniffers:
                sniffer.callback(payload)
                if sniff_profile is not None:
                    meter.charge(sniff_profile.cpu_seconds(
                        out.sim_cardinality, sniffer.cost_factor),
                        f"sniffer[{op.name}]", category="cpu")
        if traced:
            stage_span.set("attempts", attempt + 1)
            stage_span.set("sim_seconds", meter.total)
        job.stages += 1
        return ledger.record(label, attempt, platform, begin, meter,
                             observations)

    # --------------------------------------------------------------- tasks
    def _execute_task(self, job: _Job, prepared: _Task, env, ctx, cache, label,
                      start, observations, sniffs, completed) -> Channel:
        """Run one task of an attempt; returns its output channel."""
        task = prepared.task
        if prepared.kind == _SOURCE:  # primed by the loop driver
            return env[task.id]
        inputs = [env[producer] if path is None else
                  self._convert(env[producer], path, ctx, cache, producer)
                  for producer, path in prepared.inputs]
        broadcasts = [env[producer] if path is None else
                      self._convert(env[producer], path, ctx, cache, producer)
                      for producer, path in prepared.broadcasts]
        op = task.operator
        logical_id = prepared.logical_id
        if prepared.kind == _LOOP:
            out = self._run_loop(job, op, inputs, ctx, label, start,
                                 completed)
            if logical_id in job.sniffers:  # the loop's output, once
                sniffs.append((job.sniffers[logical_id], op, out))
            return out
        if prepared.chain:
            # Only the chain's last output reaches ``env``; each member
            # is observed as if it ran alone.
            head, *rest = ops = [t.task.operator for t in prepared.chain]
            outs = head.run_chain(rest, inputs[0], ctx)
            runs = zip(ops, [inputs, *([out] for out in outs)], outs,
                       [t.observed for t in prepared.chain])
        else:
            runs = [(op, inputs, op.execute(inputs, broadcasts, ctx),
                     prepared.observed)]
        for op, inputs, out, (platform, work, lid, name) in runs:
            cin = sum([ch.sim_cardinality for ch in inputs
                       if ch.actual_count is not None])
            measured = out.actual_count is not None
            # Only a measured output tells the monitor a cardinality.
            observations.append(OperatorObservation(
                platform, op.observed_op_kind(inputs, ctx), work, cin,
                out.sim_cardinality if measured else 0.0,
                lid if measured else None, name if measured else ""))
        if (logical_id in job.sniffers and measured
                and not isinstance(op, CachedResultExec)):
            # A held channel flowed past its sniffers when it was
            # produced.  Deferred to commit time: a crashed attempt never
            # produced observable data, so its sniffers must stay silent.
            sniffs.append((job.sniffers[logical_id], op, out))
        return out

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
                with (self.tracer.span(f"convert:{step.name}")
                      if self.tracer.enabled else _UNTRACED):
                    current = step.apply(current, ctx)
                self.metrics.counter("executor.conversions").inc()
                cache[key] = current
        return current

    # --------------------------------------------------------------- loops
    def _run_loop(self, job: _Job, impl: LoopImplementation,
                  inputs: list[Channel], ctx, label, start,
                  completed) -> Channel:
        """Run a loop's body, prepared once per loop run, once per iteration
        inside the driver stage ``label``'s attempt, started at ``start``."""
        loop = impl.logical
        channels = list(inputs)
        body = self._prepare(impl.body_plan, frozenset(), {}, job.sniffers)
        primed = [(task.id, k) for k, task in enumerate(impl.body_input_tasks)
                  if task is not None]
        sources = {t.task.id: t.task for stage in body for t in stage.tasks
                   if t.kind == _SOURCE}
        for task_id in sources.keys() - {task_id for task_id, __ in primed}:
            raise RuntimeError(f"loop input {sources[task_id]} was never primed")
        # The first iteration chains after the driver attempt's start,
        # every later one after the previous iteration's last stage.
        chain = start
        max_iterations = (loop.iterations if isinstance(loop, RepeatLoop)
                          else loop.max_iterations)
        # What this run's previous check saw, for a two-argument condition.
        pairwise = isinstance(loop, DoWhileLoop) and loop.takes_previous()
        previous = None
        head = f"{label}.loop{impl.id}.it"
        for iteration in range(max_iterations):
            env = {task_id: channels[k] for task_id, k in primed}
            chain = self._run_stages(job, body, f"{head}{iteration}.", chain,
                                     env, {}, completed, iteration)
            loop_var = env[impl.body_plan.sink_tasks[0].id]
            done = iteration + 1 >= max_iterations
            if isinstance(loop, DoWhileLoop) and not done:
                records = self._materialize_payload(loop_var, ctx)
                done = not (loop.condition(previous, records) if pairwise
                            else loop.condition(records))
                previous = records
            if done:
                # The loop's external output keeps the body's channel type;
                # the feedback conversion only runs between iterations.
                return loop_var
            channels[0] = impl.feedback_conversion.apply(loop_var, ctx)
        return channels[0]

    def _materialize_payload(self, channel: Channel, ctx) -> list[Any]:
        """Driver-side view of a channel's records (for loop conditions)."""
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
        return {task.logical_id: env[task.id] for task in plan.tasks
                if task.id in env and task.logical_id is not None}
