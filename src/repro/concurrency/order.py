"""The lock registry: the machine-readable lock hierarchy of the runtime.

``DESIGN.md`` used to carry the lock order as prose only; this module is
now the **single source of truth**.  Every lock the runtime shares across
threads is declared here as a :class:`LockSpec` — its registry name, its
rank in the acquisition order (a lock may only be acquired while holding
locks of strictly *lower* rank), the attribute or local that owns it, and
the shared attributes it guards.

Three consumers keep the declaration honest:

* :mod:`repro.concurrency.runtime` — ``OrderedLock``/``OrderedRLock``
  resolve their rank here and assert the order per thread under the
  debug flag (on in tests);
* :mod:`repro.analysis.locks` — the static checker resolves lock
  attributes in the source tree to these specs and reports rank
  inversions, undeclared locks, blocking calls under a lock and
  unguarded writes to the declared ``guards`` attributes;
* ``DESIGN.md`` — the prose now *describes* the hierarchy and points
  here for the definition.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LockSpec:
    """One declared lock of the runtime.

    Attributes:
        name: Registry name, the key ``OrderedLock`` is constructed with.
        rank: Position in the acquisition order.  A thread may acquire a
            lock only while every lock it already holds has a strictly
            lower rank (re-entrant acquisition of the same ``rlock`` is
            exempt).  Ranks are spaced by 10 so future locks can slot in
            between without renumbering.
        kind: ``"lock"`` or ``"rlock"`` — whether re-entrant acquisition
            is legal.
        owners: Attribute paths (``module:Class.attr`` — or
            ``module:NAME`` for a module-level binding) where instances
            of this lock live.  Locals created inside a function are
            resolved by the static checker from their
            ``OrderedLock("<name>", ...)`` construction site instead.
        guards: Shared attributes (``Class.attr``, in the owner module;
            dotted tails allowed) that must only be *written* while this
            lock is held.  The static checker enforces it; methods named
            ``*_locked`` and ``__init__`` are exempt by convention
            (caller holds the lock / pre-publication construction).
        doc: One-line description, mirrored into DESIGN.md.
    """

    name: str
    rank: int
    kind: str
    owners: tuple[str, ...]
    guards: tuple[str, ...] = ()
    doc: str = ""

    @property
    def reentrant(self) -> bool:
        return self.kind == "rlock"


#: The lock hierarchy, outermost (lowest rank) first.
LOCK_ORDER: tuple[LockSpec, ...] = (
    LockSpec(
        name="server.jobs",
        rank=10,
        kind="lock",
        owners=("repro.server.server:JobServer._lock",),
        guards=("JobServer._jobs", "JobServer._terminal",
                "JobServer._queued",
                "JobServer._running", "JobServer._accepting",
                "JobServer._pending", "JobServer._tenant_running",
                "JobServer._run_ewma", "JobServer._cancelled"),
        doc="job table, pending queue, per-tenant running counts, the "
            "service-time EWMA and the accepting/cancelled flags; never "
            "held while a job executes",
    ),
    LockSpec(
        name="server.pool",
        rank=12,
        kind="lock",
        owners=("repro.server.shards:ShardPool._lock",),
        guards=("ShardPool._slots", "ShardPool._published",
                "ShardPool._last_metrics", "ProcessShard.inflight"),
        doc="shard-pool slot table, per-shard in-flight counts, the "
            "replayed cost-parameter publication and last-known shard "
            "metrics; held only for routing decisions and slot swaps, "
            "never while a shard executes a job",
    ),
    LockSpec(
        name="server.shard",
        rank=15,
        kind="lock",
        owners=("repro.server.shards:ProcessShard._lock",),
        guards=("ProcessShard._requests",),
        doc="one worker shard's IPC pipe: serializes request/response "
            "pairs on the connection (held across the child's execution "
            "of the request — the shard process is the critical section)",
    ),
    LockSpec(
        name="calibration.corpus",
        rank=18,
        kind="lock",
        owners=("repro.learn.calibration:CostCalibrator._lock",),
        guards=("CostCalibrator.params", "CostCalibrator._pending",
                "CostCalibrator._drift", "CostCalibrator._refits",
                "CostCalibrator._fitting"),
        doc="online-calibration corpus and refit bookkeeping: sample "
            "buckets, drift EWMA and the single-refit-in-flight flag; "
            "released while the genetic fit runs and while the merged "
            "parameters are published (the process-backend broadcast "
            "takes server.pool, rank 12)",
    ),
    LockSpec(
        name="context.publish",
        rank=20,
        kind="lock",
        owners=("repro.core.context:RheemContext._publish_lock",),
        guards=("RheemContext.cost_model.params",
                "RheemContext.cost_model.version"),
        doc="cost-parameter publication: atomic param swap, version bump "
            "and plan-cache flush",
    ),
    LockSpec(
        name="plan_cache",
        rank=30,
        kind="rlock",
        owners=("repro.core.plancache:ExecutionPlanCache._lock",),
        guards=("ExecutionPlanCache._entries", "ExecutionPlanCache.stats"),
        doc="execution-plan cache entries and statistics; never held "
            "while calling into the conversion graph",
    ),
    LockSpec(
        name="conversion_graph",
        rank=40,
        kind="rlock",
        owners=("repro.core.channels:ChannelConversionGraph._lock",),
        guards=("ChannelConversionGraph._descriptors",
                "ChannelConversionGraph._edges"),
        doc="channel registry: registration against the searches reading "
            "it; never calls back into the plan cache",
    ),
    LockSpec(
        name="intermediate_store",
        rank=55,
        kind="rlock",
        owners=("repro.core.resultstore:IntermediateResultStore._lock",),
        guards=("IntermediateResultStore._entries",
                "IntermediateResultStore.stats",
                "IntermediateResultStore.bytes_mb",
                "IntermediateResultStore._tick"),
        doc="cross-job intermediate-result store: entries, byte budget "
            "and statistics; taken at a stage commit (publication) and "
            "under the publish lock (flush), never while executing "
            "platform code",
    ),
    LockSpec(
        name="tracer.spans",
        rank=70,
        kind="lock",
        owners=("repro.trace.spans:Tracer._lock",),
        guards=("Tracer.roots",),
        doc="span-tree mutation (span stacks are thread-local and "
            "unlocked)",
    ),
    LockSpec(
        name="metrics",
        rank=80,
        kind="lock",
        owners=("repro.trace.metrics:_METRICS_LOCK",),
        guards=("Counter.value",
                "Gauge.value",
                "Histogram.count", "Histogram.total", "Histogram.min",
                "Histogram.max", "Histogram.samples",
                "MetricsRegistry._counters", "MetricsRegistry._gauges",
                "MetricsRegistry._histograms"),
        doc="innermost lock: instrument mutation and the registry's "
            "instrument tables; no code path may acquire another lock "
            "while holding it",
    ),
)

_BY_NAME: dict[str, LockSpec] = {spec.name: spec for spec in LOCK_ORDER}

#: Attribute names whose receiver the static checker may resolve to a
#: class scanned elsewhere in the tree (cross-class call edges: e.g. the
#: publish path calling ``self.plan_cache.flush()``).
ATTR_TYPES: dict[str, str] = {
    "calibrator": "repro.learn.calibration:CostCalibrator",
    "plan_cache": "repro.core.plancache:ExecutionPlanCache",
    "result_store": "repro.core.resultstore:IntermediateResultStore",
    "graph": "repro.core.channels:ChannelConversionGraph",
    "metrics": "repro.trace.metrics:MetricsRegistry",
    "tracer": "repro.trace.spans:Tracer",
}

#: Modules allowed to construct raw ``threading.Lock``/``RLock`` objects
#: (the wrapper implementation itself).
RAW_LOCK_OK: frozenset[str] = frozenset({"repro.concurrency.runtime"})

#: Method names that may block indefinitely; holding any declared lock
#: across such a call risks deadlock (RC003).  ``Queue.get`` is matched
#: by receiver-name heuristics in the checker to avoid flagging
#: ``dict.get``.
BLOCKING_ATTRS: frozenset[str] = frozenset(
    {"result", "submit", "shutdown", "wait", "sleep"})


class UnknownLockError(KeyError):
    """Raised when a lock name is not declared in :data:`LOCK_ORDER`."""


def lock_spec(name: str) -> LockSpec:
    """The :class:`LockSpec` registered under ``name``.

    Raises:
        UnknownLockError: If the name is not in the registry.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise UnknownLockError(
            f"lock {name!r} is not declared in repro.concurrency.order."
            f"LOCK_ORDER (known: {known})") from None


def lock_rank(name: str) -> int:
    """The rank of the lock registered under ``name``."""
    return lock_spec(name).rank


def validate_order(order: tuple[LockSpec, ...] = LOCK_ORDER) -> None:
    """Sanity-check a registry: unique names/ranks, ascending ranks.

    Raises:
        ValueError: On duplicate names, duplicate ranks or an unsorted
            declaration (the declaration order *is* the hierarchy and
            must read top-down).
    """
    names = [spec.name for spec in order]
    ranks = [spec.rank for spec in order]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate lock names in registry: {names}")
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate lock ranks in registry: {ranks}")
    if ranks != sorted(ranks):
        raise ValueError("LOCK_ORDER must be declared outermost-first "
                         f"(ranks {ranks} are not ascending)")
    for spec in order:
        if spec.kind not in ("lock", "rlock"):
            raise ValueError(f"{spec.name}: kind must be 'lock' or 'rlock', "
                             f"got {spec.kind!r}")


validate_order()


def render_order() -> str:
    """A human-readable table of the hierarchy (used by docs and tests)."""
    lines = ["rank  kind   name                 owner"]
    for spec in LOCK_ORDER:
        owner = spec.owners[0] if spec.owners else "(function local)"
        lines.append(f"{spec.rank:>4}  {spec.kind:<5}  {spec.name:<19}  "
                     f"{owner}")
    return "\n".join(lines)


__all__ = [
    "ATTR_TYPES", "BLOCKING_ATTRS", "LOCK_ORDER", "LockSpec", "RAW_LOCK_OK",
    "UnknownLockError", "lock_rank", "lock_spec", "render_order",
    "validate_order",
]
