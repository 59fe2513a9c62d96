"""The public entry point: :class:`RheemContext` and the fluent
:class:`DataQuanta` API.

A context bundles the virtual cluster, the registered platforms (channels,
conversions, operator mappings), the relational catalog, the cost model and
the optimizer/executor plumbing.  Applications build plans either from raw
operators (:mod:`repro.core.operators`) or through the fluent API::

    ctx = RheemContext()
    ctx.vfs.write("hdfs://data/lines.txt", ["a b", "b a"], sim_factor=1.0)
    counts = (ctx.read_text_file("hdfs://data/lines.txt")
                 .flat_map(str.split)
                 .map(lambda w: (w, 1))
                 .reduce_by_key(lambda t: t[0],
                                lambda a, b: (a[0], a[1] + b[1]))
                 .collect())
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..platforms import builtin_platforms
from ..platforms.pgres.engine import PgresDatabase
from ..simulation.cluster import VirtualCluster
from ..trace import NO_TRACER, MetricsRegistry, Tracer
from . import operators as ops
from .cardinality import CardinalityEstimate
from .channels import ChannelConversionGraph
from .cost import CostModel, OperatorCostParams
from .executor import ExecutionResult, Executor, Sniffer
from .mappings import MappingRegistry
from .operators import EstimationContext, InequalityCondition, Operator
from .optimizer import OptimizationError, Optimizer, PlanAnalysisError
from .plancache import ExecutionPlanCache
from .plan import RheemPlan
from .resultstore import IntermediateResultStore
from .progressive import PausedJob, ProgressiveReport, \
    execute_progressively, run_to_checkpoint


class RheemContext:
    """One cross-platform processing context (the paper's Rheem instance).

    Args:
        cluster: Virtual cluster to run on (fresh default if omitted).
        platforms: Platform declarations to register (all built-ins by
            default).  Registering fewer simulates a smaller installation.
            A declared profile is installed into ``cluster`` unless it
            already holds one under that platform's name.
        cost_params: Learned cost-model parameters (from
            :mod:`repro.learn`); ``None`` uses the calibrated defaults.
        config: Job configuration (e.g. ``{"seed": 7}``): ``seed``,
            ``result_reuse``, ``reuse_budget_mb``, ``reuse_min_benefit``,
            ``plan_cache_size`` (0 turns the plan cache off).  Any other
            key is a ``ValueError`` — a key nobody reads changes nothing,
            silently.
        tracer: A :class:`~repro.trace.Tracer` to receive optimizer and
            executor spans; defaults to the no-op tracer (call
            :meth:`enable_tracing` to install a recording one).
    """

    def __init__(
        self,
        cluster: VirtualCluster | None = None,
        platforms: Sequence | None = None,
        cost_params: dict[str, OperatorCostParams] | None = None,
        config: dict[str, Any] | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.cluster = cluster or VirtualCluster()
        self.pgres = PgresDatabase()
        self.platforms = list(platforms if platforms is not None
                              else builtin_platforms())
        self.registry = MappingRegistry()
        self.metrics = MetricsRegistry()
        self.graph = ChannelConversionGraph()
        self.config = {"seed": 42, "result_reuse": True,
                       "reuse_budget_mb": 256.0, "reuse_min_benefit": 0.005,
                       "plan_cache_size": 64}
        for key in config or {}:
            if key not in self.config:
                raise ValueError(
                    f"unknown config key {key!r}; accepted keys: "
                    f"{', '.join(sorted(self.config))}")
        self.config.update(config or {})
        for platform in self.platforms:
            # A profile the cluster already holds (a what-if override)
            # wins over the declared one, and prices the conversions too.
            profile = self.cluster.profiles.setdefault(platform.name,
                                                       platform.profile)
            for channel in platform.channels:
                self.graph.register_channel(channel)
            for conversion in platform.conversions(profile):
                self.graph.register_conversion(conversion)
            self.registry.register_all(platform.mappings)
        self.cost_model = CostModel(self.cluster, cost_params)
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.plan_cache = ExecutionPlanCache(
            capacity=int(self.config["plan_cache_size"]),
            metrics=self.metrics)
        # Cross-job intermediate-result store (result reuse): committed
        # stage outputs whose recompute-cost/byte ratio clears the
        # admission threshold are kept and offered to later submissions
        # as zero-cost source alternatives.
        self.result_store = IntermediateResultStore(
            budget_mb=float(self.config["reuse_budget_mb"]),
            min_benefit=float(self.config["reuse_min_benefit"]),
            metrics=self.metrics)
        self.result_store.enabled = bool(self.config["result_reuse"])

    def enable_tracing(self) -> Tracer:
        """Install (and return) a recording tracer on this context."""
        if not getattr(self.tracer, "enabled", False):
            self.tracer = Tracer()
        return self.tracer

    def publish_cost_params(
            self, params: dict[str, OperatorCostParams]) -> None:
        """Install newly learned cost-model parameters (:mod:`repro.learn`).

        Bumps the cost-model version and flushes the execution-plan cache:
        plans chosen under the old parameters may no longer be optimal, so
        they must never be replayed.  A context runs one job at a time —
        a job server's shard publishes between jobs, never during one —
        so no optimization ever sees a half-applied publication.

        Publishing parameters equal to the current ones is a version-stable
        no-op: a convergent periodic refit (the online calibrator) would
        otherwise evict every warm plan and intermediate result for a
        parameter set under which each cached decision is still exactly
        right.
        """
        if dict(params) == self.cost_model.params:
            return
        self.cost_model.params = dict(params)
        self.cost_model.version += 1
        self.plan_cache.flush()
        # Intermediate results are keyed by the version too, but a
        # flush keeps the store from carrying dead weight produced
        # under parameters that will never be probed again.
        self.result_store.flush()

    def cost_params_snapshot(self) -> dict[str, OperatorCostParams]:
        """A copy of the currently published cost parameters, safe to
        ship across process boundaries (the job server broadcasts it to
        shards)."""
        return dict(self.cost_model.params)

    # ------------------------------------------------------------- plumbing
    @property
    def vfs(self):
        """The virtual file system (``hdfs://`` and ``file://`` stores)."""
        return self.cluster.vfs

    def estimation_context(
        self, overrides: dict[int, CardinalityEstimate] | None = None
    ) -> EstimationContext:
        """Source metadata for cardinality estimation (catalog + VFS)."""
        return EstimationContext(
            vfs=self.vfs,
            table_cardinalities=self.pgres.analyze(),
            table_bytes=self.pgres.row_bytes(),
            overrides=dict(overrides or {}),
        )

    def optimizer(
        self,
        allowed_platforms: set[str] | None = None,
        overrides: dict[int, CardinalityEstimate] | None = None,
        objective=None,
        tracer: Tracer | None = None,
    ) -> Optimizer:
        """A cross-platform optimizer bound to this context's registries.

        ``tracer`` overrides the context's tracer for this optimizer only
        (per-job tracing under the job server: spans land in the job's
        tree, never on the context).
        """
        return Optimizer(
            registry=self.registry,
            graph=self.graph,
            cost_model=self.cost_model,
            estimation_ctx=self.estimation_context(overrides),
            allowed_platforms=allowed_platforms,
            objective=objective,
            tracer=tracer if tracer is not None else self.tracer,
            metrics=self.metrics,
        )

    def executor(self, tracer: Tracer | None = None,
                 cancel_check: Callable[[], None] | None = None) -> Executor:
        """An executor bound to this context's cluster and engines.

        ``tracer`` overrides the context's tracer for this executor only;
        ``cancel_check`` is called at every stage boundary (cooperative
        cancellation — see :class:`~repro.core.executor.JobCancelled`).
        """
        return Executor(self.cluster, self.graph, pgres=self.pgres,
                        seed=int(self.config["seed"]),
                        tracer=tracer if tracer is not None else self.tracer,
                        metrics=self.metrics, cancel_check=cancel_check,
                        result_store=self.result_store)

    # ------------------------------------------------------------ execution
    def optimize(
        self,
        plan: RheemPlan,
        allowed_platforms: set[str] | None = None,
        objective=None,
        cacheable: bool = True,
        tracer: Tracer | None = None,
    ):
        """Optimize ``plan`` through the result-reuse and plan caches.

        Returns ``(execution plan, cardinality estimates)``.

        The intermediate-result store is probed first (when enabled and
        the request is cacheable): a hit enumerates only the residual
        plan below the reuse roots — the stored channels enter as
        zero-cost source alternatives, so the winning plan both prunes
        the search space and skips the pruned operators' execution.
        Reuse-pruned plans bypass the execution-plan cache entirely
        (their decisions depend on store contents, which the cache key
        does not cover).  A hit whose stored channel no alternative
        downstream can reach is counted (``optimizer.reuse_fallbacks``)
        and planned as a miss.

        Without a store hit the plan cache behaves as before: hits skip
        enumeration but still run static analysis, so diagnostics and
        rejection behaviour never depend on cache state; misses populate
        the cache for the next structurally identical submission.
        """
        optimizer = self.optimizer(allowed_platforms, objective=objective,
                                   tracer=tracer)
        # Probe the result store only when it can possibly hit: an empty
        # store would charge every plan-cache-warm submission the full
        # subplan-fingerprinting cost for nothing (a replayed plan already
        # carries its reuse keys from the miss that populated the cache).
        reuse_on = cacheable and self.result_store.enabled
        probe = None
        if reuse_on and len(self.result_store):
            probe = optimizer.probe_reuse(plan, self.result_store,
                                          self.cost_model.version)
        if probe is not None and probe.roots:
            try:
                best, cards = optimizer.pick_best(plan, reuse=probe)
            except PlanAnalysisError:
                raise
            except OptimizationError:
                # Plan the whole job below instead of failing one that is
                # executable without reuse.
                self.metrics.counter("optimizer.reuse_fallbacks").inc()
            else:
                exec_plan = optimizer._build_execution_plan(plan, best)
                exec_plan.reuse_keys = dict(probe.keys)
                return exec_plan, cards
        key = self.plan_cache.key_for(
            plan, optimizer.estimation_ctx, self.cost_model.version,
            allowed_platforms, optimizer.objective,
            fingerprints=optimizer.fingerprints(plan)) if cacheable else None
        cached = self.plan_cache.get(key) if key is not None else None
        if cached is not None:
            optimizer._analyze(plan)
            return cached
        best, cards = optimizer.pick_best(plan)
        exec_plan = optimizer._build_execution_plan(plan, best)
        # Attached before the cache put: a replayed hit re-publishes under
        # the same keys (same fingerprints, bands and version — they are
        # all part of the plan-cache key).
        if probe is None and reuse_on:
            probe = optimizer.probe_reuse(plan, self.result_store,
                                          self.cost_model.version,
                                          lookup=False)
        exec_plan.reuse_keys = dict(probe.keys) if probe is not None else {}
        if key is not None:
            self.plan_cache.put(key, exec_plan, cards)
        return exec_plan, cards

    def execute(
        self,
        plan: RheemPlan,
        allowed_platforms: set[str] | None = None,
        progressive: bool = False,
        sniffers: Sequence[Sniffer] = (),
        tolerance: float = 2.0,
        fault_injector=None,
        max_stage_retries: int = 2,
        objective=None,
        tracer: Tracer | None = None,
        cancel_check: Callable[[], None] | None = None,
    ) -> ExecutionResult:
        """Optimize and run a plan; returns sink payloads and timings.

        With ``progressive=True`` the job pauses at optimization
        checkpoints when measured cardinalities contradict the estimates
        and re-optimizes the remainder (Section 4.4).  A ``fault_injector``
        (see :mod:`repro.core.faults`) simulates platform crashes, which
        the executor survives by re-running stages from their materialized
        inputs.

        ``tracer`` runs the whole job (optimizer + executor) against a
        per-job tracer instead of the context's own — a served job
        answers with its own spans, never with an earlier job's.
        ``cancel_check`` is invoked at every stage boundary and may raise
        :class:`~repro.core.executor.JobCancelled` to abandon the job
        (deadline enforcement in the job server).
        """
        if progressive:
            report = self.execute_progressive(
                plan, allowed_platforms=allowed_platforms,
                tolerance=tolerance, sniffers=list(sniffers),
                tracer=tracer, cancel_check=cancel_check)
            report.result.diagnostics = list(plan.diagnostics)
            return report.result
        # Sniffers address operators of THIS plan object by id; a cached
        # execution plan carries the ids of the submission it was built
        # from, so exploratory runs bypass the cache entirely.  The same
        # predicate gates result reuse in BOTH directions: sniffer and
        # fault-injection runs neither look cached intermediates up nor
        # publish their own outputs (crash-retried data is fine, but
        # exploratory semantics must match a cold run exactly).
        cacheable = not sniffers and fault_injector is None
        exec_plan, cards = self.optimize(
            plan, allowed_platforms=allowed_platforms, objective=objective,
            cacheable=cacheable, tracer=tracer)
        executor = self.executor(tracer=tracer, cancel_check=cancel_check)
        result = executor.execute(exec_plan, estimates=cards,
                                  sniffers=list(sniffers),
                                  fault_injector=fault_injector,
                                  max_stage_retries=max_stage_retries,
                                  publish_results=cacheable)
        result.diagnostics = list(plan.diagnostics)
        return result

    def execute_progressive(
        self,
        plan: RheemPlan,
        allowed_platforms: set[str] | None = None,
        tolerance: float = 2.0,
        max_replans: int = 5,
        sniffers: Sequence[Sniffer] = (),
        tracer: Tracer | None = None,
        cancel_check: Callable[[], None] | None = None,
    ) -> ProgressiveReport:
        """Run with progressive optimization; reports the re-plan count."""
        return execute_progressively(
            plan,
            make_optimizer=lambda overrides: self.optimizer(
                allowed_platforms, overrides, tracer=tracer),
            executor=self.executor(tracer=tracer, cancel_check=cancel_check),
            tolerance=tolerance,
            max_replans=max_replans,
            sniffers=list(sniffers),
        )

    def execute_paused(self, plan: RheemPlan, break_after: set[int],
                       allowed_platforms: set[str] | None = None):
        """Exploratory mode: run until the given operators have produced
        output, then pause (returns a
        :class:`~repro.core.progressive.PausedJob`); finishes normally if
        the breakpoint never splits the plan."""
        break_after = set(break_after)
        return run_to_checkpoint(
            PausedJob(plan),
            make_optimizer=lambda overrides: self.optimizer(
                allowed_platforms, overrides),
            executor=self.executor(),
            checkpoint=lambda monitor, completed: break_after <= completed,
            stage_breaks=break_after,
        )

    def resume(self, paused: PausedJob,
               allowed_platforms: set[str] | None = None) -> ExecutionResult:
        """Resume a paused exploratory job to completion: what is left of
        its plan is re-optimized with the cardinalities measured before
        the pause pinned as exact, so resuming doubles as one progressive
        re-optimization round."""
        return run_to_checkpoint(
            paused,
            make_optimizer=lambda overrides: self.optimizer(
                allowed_platforms, overrides),
            executor=self.executor(),
        )

    # ------------------------------------------------------------ fluent API
    def read_text_file(self, path: str) -> "DataQuanta":
        """Start a plan from a (virtual) text file."""
        return DataQuanta(self, ops.TextFileSource(path))

    def load_collection(self, data: Iterable[Any], sim_factor: float = 1.0,
                        bytes_per_record: float = 100.0) -> "DataQuanta":
        """Start a plan from a driver-side collection."""
        return DataQuanta(self, ops.CollectionSource(
            data, sim_factor, bytes_per_record))

    def read_table(self, table: str,
                   projection: list[str] | None = None) -> "DataQuanta":
        """Start a plan from a relation living in the Pgres catalog."""
        return DataQuanta(self, ops.TableSource(table, projection))


class DataQuanta:
    """A fluent handle on one operator output within a plan under
    construction (the paper's Scala/Java API analog)."""

    def __init__(self, ctx: RheemContext, op: Operator) -> None:
        self.ctx = ctx
        self.op = op

    # --------------------------------------------------------- unary steps
    def _chain(self, op: Operator,
               broadcasts: Sequence["DataQuanta"] = ()) -> "DataQuanta":
        op.connect(0, self.op)
        for dq in broadcasts:
            op.broadcast(dq.op)
        return DataQuanta(self.ctx, op)

    def map(self, fn: Callable, name: str = "map",
            broadcasts: Sequence["DataQuanta"] = (),
            bytes_per_record: float | None = None,
            batch_udf: Callable | None = None) -> "DataQuanta":
        """Transform each quantum with ``fn`` (1-to-1).

        ``batch_udf`` optionally declares a columnar twin operating on a
        whole :class:`~repro.core.batch.RecordBatch` (must be record-wise
        equivalent to ``fn``); when declared, every engine runs it instead
        of ``fn`` and hands a batch downstream.
        """
        return self._chain(ops.Map(fn, name, bytes_per_record,
                                   batch_udf=batch_udf), broadcasts)

    def flat_map(self, fn: Callable, name: str = "flatmap",
                 broadcasts: Sequence["DataQuanta"] = (),
                 bytes_per_record: float | None = None,
                 batch_udf: Callable | None = None) -> "DataQuanta":
        """Transform each quantum into zero or more quanta."""
        return self._chain(ops.FlatMap(fn, name, bytes_per_record,
                                       batch_udf=batch_udf), broadcasts)

    def filter(self, fn: Callable, name: str = "filter",
               broadcasts: Sequence["DataQuanta"] = (),
               batch_udf: Callable | None = None) -> "DataQuanta":
        """Keep only quanta satisfying the predicate.

        ``batch_udf`` optionally computes the keep-mask for a whole record
        batch in one call.
        """
        return self._chain(ops.Filter(fn, name, batch_udf=batch_udf),
                           broadcasts)

    def map_partitions(self, fn: Callable, name: str = "map-partitions",
                       broadcasts: Sequence["DataQuanta"] = (),
                       bytes_per_record: float | None = None) -> "DataQuanta":
        """Transform whole partitions with ``fn`` (``list -> list``)."""
        return self._chain(ops.MapPartitions(fn, name, bytes_per_record),
                           broadcasts)

    def zip_with_id(self) -> "DataQuanta":
        """Attach a unique id to each quantum: ``(id, quantum)``."""
        return self._chain(ops.ZipWithId())

    def filter_range(self, column: str, low: Any = None, high: Any = None,
                     selectivity: float | None = None) -> "DataQuanta":
        """Keep dict-shaped quanta with ``column`` in ``[low, high]``."""
        return self._chain(ops.Filter.from_range(column, low, high,
                                                 selectivity))

    def sample(self, size: int | None = None, fraction: float | None = None,
               method: str = "random",
               broadcasts: Sequence["DataQuanta"] = ()) -> "DataQuanta":
        """Draw a sample (fixed ``size`` or ``fraction``; see ``Sample``)."""
        return self._chain(ops.Sample(size, fraction, method), broadcasts)

    def distinct(self, key: Callable | None = None) -> "DataQuanta":
        """Drop duplicate quanta (optionally by key)."""
        return self._chain(ops.Distinct(key))

    def sort(self, key: Callable | None = None,
             descending: bool = False,
             batch_key: Callable | None = None) -> "DataQuanta":
        """Sort quanta by ``key`` (``batch_key``: its columnar twin)."""
        return self._chain(ops.Sort(key, descending, batch_key=batch_key))

    def group_by(self, key: Callable,
                 sim_groups: float | None = None) -> "DataQuanta":
        """Group quanta by key into ``(key, [members])`` pairs."""
        return self._chain(ops.GroupBy(key, sim_groups=sim_groups))

    def reduce_by_key(self, key: Callable, reducer: Callable,
                      sim_groups: float | None = None,
                      batch_impl: Callable | None = None) -> "DataQuanta":
        """Aggregate quanta per key with an associative ``reducer``.

        ``batch_impl`` optionally folds a whole record batch per key in one
        call (see :class:`~repro.core.operators.ReduceBy`).
        """
        return self._chain(ops.ReduceBy(key, reducer,
                                        sim_groups=sim_groups,
                                        batch_impl=batch_impl))

    def reduce(self, reducer: Callable) -> "DataQuanta":
        """Fold ALL quanta into one with an associative ``reducer``."""
        return self._chain(ops.GlobalReduce(reducer))

    def count(self) -> "DataQuanta":
        """Emit a single quantum: the number of input quanta."""
        return self._chain(ops.Count())

    def cache(self) -> "DataQuanta":
        """Mark this dataset for reuse (loop-invariant inputs)."""
        return self._chain(ops.Cache())

    def pagerank(self, iterations: int = 10,
                 damping: float = 0.85) -> "DataQuanta":
        """Rank ``(src, dst)`` edge quanta; emits ``(vertex, rank)``."""
        return self._chain(ops.PageRank(iterations, damping))

    # -------------------------------------------------------- binary steps
    def _chain2(self, op: Operator, other: "DataQuanta") -> "DataQuanta":
        op.connect(0, self.op)
        op.connect(1, other.op)
        return DataQuanta(self.ctx, op)

    def union(self, other: "DataQuanta") -> "DataQuanta":
        """Bag union with another dataset."""
        return self._chain2(ops.Union(), other)

    def intersect(self, other: "DataQuanta") -> "DataQuanta":
        """Set intersection with another dataset."""
        return self._chain2(ops.Intersect(), other)

    def join(self, other: "DataQuanta", left_key: Callable,
             right_key: Callable, selectivity: float | None = None,
             sim_mode: str = "linear",
             left_key_column: Any = None,
             right_key_column: Any = None) -> "DataQuanta":
        """Equi-join with another dataset; emits ``(left, right)`` pairs.

        Declaring the column each key UDF projects (``left_key_column`` /
        ``right_key_column``) lets a join whose input already is a record
        batch run columnarly.
        """
        return self._chain2(
            ops.Join(left_key, right_key, selectivity, sim_mode=sim_mode,
                     left_key_column=left_key_column,
                     right_key_column=right_key_column),
            other)

    def cartesian(self, other: "DataQuanta") -> "DataQuanta":
        """Cross product with another dataset."""
        return self._chain2(ops.CartesianProduct(), other)

    def ie_join(self, other: "DataQuanta",
                conditions: Sequence[InequalityCondition],
                selectivity: float | None = None) -> "DataQuanta":
        """Inequality join (the plugged-in fast IEJoin operator)."""
        return self._chain2(ops.IEJoin(conditions, selectivity), other)

    # --------------------------------------------------------------- loops
    def repeat(self, iterations: int,
               body: Callable[..., "DataQuanta"],
               invariants: Sequence["DataQuanta"] = ()) -> "DataQuanta":
        """Iterate ``body`` a fixed number of times.

        ``body`` receives the loop variable plus one handle per invariant
        input (all as body-scoped :class:`DataQuanta`) and returns the next
        loop variable.
        """
        loop_inputs = [ops.LoopInput(i) for i in range(1 + len(invariants))]
        handles = [DataQuanta(self.ctx, li) for li in loop_inputs]
        out = body(*handles)
        subplan = ops.SubPlan(loop_inputs, [ops.InputRef(out.op, 0)])
        loop = ops.RepeatLoop(iterations, subplan,
                              num_invariant_inputs=len(invariants))
        loop.connect(0, self.op)
        for i, dq in enumerate(invariants):
            loop.connect(1 + i, dq.op)
        return DataQuanta(self.ctx, loop)

    def do_while(self, condition: Callable[[list], bool],
                 body: Callable[..., "DataQuanta"],
                 invariants: Sequence["DataQuanta"] = (),
                 expected: int = 10,
                 max_iterations: int = 10_000) -> "DataQuanta":
        """Iterate ``body`` while ``condition(loop_var_records)`` holds.

        A two-argument ``condition(previous, loop_var_records)`` also gets
        the records of the loop run's previous check (None at its first).
        """
        loop_inputs = [ops.LoopInput(i) for i in range(1 + len(invariants))]
        handles = [DataQuanta(self.ctx, li) for li in loop_inputs]
        out = body(*handles)
        subplan = ops.SubPlan(loop_inputs, [ops.InputRef(out.op, 0)])
        loop = ops.DoWhileLoop(condition, subplan,
                               num_invariant_inputs=len(invariants),
                               expected=expected,
                               max_iterations=max_iterations)
        loop.connect(0, self.op)
        for i, dq in enumerate(invariants):
            loop.connect(1 + i, dq.op)
        return DataQuanta(self.ctx, loop)

    # ---------------------------------------------------------------- misc
    def with_target_platform(self, platform: str) -> "DataQuanta":
        """Pin the most recent operator to one platform."""
        self.op.with_target_platform(platform)
        return self

    def custom_operator(self, op: Operator,
                        execution_factory: Callable,
                        broadcasts: Sequence["DataQuanta"] = ()
                        ) -> "DataQuanta":
        """Apply a user-defined operator with a user-supplied execution
        operator (the paper's ``customOperator``: employ custom operators
        without extending the API).

        Args:
            op: The logical operator instance (its inputs are wired here).
            execution_factory: ``op -> [ExecutionOperator, ...]`` building
                the execution chain; registered as a mapping matching ONLY
                this operator instance.
        """
        from .mappings import OperatorMapping

        self.ctx.registry.register(OperatorMapping(
            type(op), execution_factory,
            guard=lambda candidate, __op=op: candidate is __op,
            name=f"custom<{op.name}>"))
        op.connect(0, self.op)
        for dq in broadcasts:
            op.broadcast(dq.op)
        return DataQuanta(self.ctx, op)

    # --------------------------------------------------------------- sinks
    def to_plan(self, sink: Operator | None = None) -> RheemPlan:
        """Close the branch with a sink and build a validated plan."""
        sink = sink or ops.CollectionSink()
        sink.connect(0, self.op)
        return RheemPlan([sink])

    def collect(self, **execute_kwargs) -> list[Any]:
        """Execute and return the result collection."""
        return self.execute(**execute_kwargs).output

    def execute(self, **execute_kwargs) -> ExecutionResult:
        """Execute with a collection sink; returns the full result object."""
        return self.ctx.execute(self.to_plan(), **execute_kwargs)

    def write_text_file(self, path: str, **execute_kwargs) -> ExecutionResult:
        """Execute, writing the result to a (virtual) text file."""
        plan = self.to_plan(ops.TextFileSink(path))
        return self.ctx.execute(plan, **execute_kwargs)
