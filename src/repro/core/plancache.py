"""The signature-keyed execution-plan cache (optimizer fast path, layer 3).

Repeated submissions of structurally identical jobs — the REST service's
bread and butter — re-enumerate the same plan space from scratch.  This
cache short-circuits that: a completed optimization is stored under

``(plan fingerprint, source-cardinality bands, cost-model version,
allowed platforms, objective)``

and replayed for matching resubmissions.  Each component guards one way
the "same" plan could legitimately optimize differently:

* the **fingerprint** (:func:`~repro.core.fingerprint.plan_fingerprint`)
  pins structure and every parameter including UDF code — unstable plans
  fingerprint as ``None`` and are never cached;
* **source-cardinality bands** (quarter-octave, shared with the result
  store's keys) re-key the cache when the underlying data grows enough to
  change plan choice;
* the **cost-model version** is bumped whenever the genetic cost learner
  publishes new parameters (:meth:`RheemContext.publish_cost_params`),
  which also flushes the cache outright;
* **allowed platforms** and the **objective** capture per-request optimizer
  configuration.

Entries are LRU-bounded.  Hit/miss/eviction/flush counts feed the shared
:class:`~repro.trace.MetricsRegistry` under ``plan_cache.*`` and surface in
``--profile`` output and the REST ``trace`` block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from ..concurrency import OrderedRLock
from .channels import volume_band

if TYPE_CHECKING:
    from ..trace import MetricsRegistry
    from .cardinality import CardinalityEstimate
    from .execution import ExecutionPlan
    from .fingerprint import PlanFingerprints
    from .objectives import Objective
    from .operators import EstimationContext
    from .plan import RheemPlan

#: Statistic names mirrored into the metrics registry as ``plan_cache.<n>``.
PLAN_CACHE_STAT_NAMES = ("hits", "misses", "evictions", "flushes")


class ExecutionPlanCache:
    """LRU cache of completed optimizations.

    Values are ``(execution plan, cardinality estimates)`` pairs: the
    estimates are keyed by the *cached* plan's operator ids, so a hit
    replays both together (the executor's monitor consumes them).

    The cache is shared by every worker thread of the job server, so all
    entry/stat mutation happens under one re-entrant lock (rank 30 in
    the lock registry, :data:`repro.concurrency.order.LOCK_ORDER`): above
    the metrics lock, below the server's job-table lock, and never held
    while calling into the conversion graph.
    """

    def __init__(self, capacity: int = 64,
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.capacity = capacity
        self.metrics = metrics
        self.enabled = True
        self.stats: dict[str, int] = dict.fromkeys(PLAN_CACHE_STAT_NAMES, 0)
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = OrderedRLock("plan_cache", metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _stat(self, name: str) -> None:
        with self._lock:
            self.stats[name] += 1
        if self.metrics is not None:
            self.metrics.counter(f"plan_cache.{name}").inc()

    # ------------------------------------------------------------- keying
    def key_for(self, plan: RheemPlan, estimation_ctx: EstimationContext,
                cost_model_version: int, allowed_platforms: set[str] | None,
                objective: Objective,
                fingerprints: PlanFingerprints | None = None) -> tuple | None:
        """Cache key for ``plan`` under the given optimizer configuration.

        ``fingerprints`` is the caller's tokenization pass over ``plan``,
        if it has one.  Returns ``None`` — meaning "do not cache" — when
        caching is disabled or the plan cannot be fingerprinted stably.
        """
        from .fingerprint import plan_fingerprint

        if not self.enabled or self.capacity <= 0:
            return None
        fingerprint = (fingerprints.digest if fingerprints is not None
                       else plan_fingerprint(plan))
        if fingerprint is None:
            # An unstable attribute (object addresses, open handles, ...)
            # defeated fingerprinting; surface it so a cache that silently
            # never hits is diagnosable (lint rule RP014 names the culprit).
            if self.metrics is not None:
                self.metrics.counter("fingerprint.unstable").inc()
            return None
        bands = tuple(
            volume_band(op.estimate_cardinality([],
                                                estimation_ctx).geometric_mean)
            for op in plan.operators() if op.is_source)
        platforms = (tuple(sorted(allowed_platforms))
                     if allowed_platforms is not None else None)
        objective_key = (objective.name,
                         tuple(sorted(objective.platform_weights.items())))
        return (fingerprint, bands, cost_model_version, platforms,
                objective_key)

    # ------------------------------------------------------------- access
    def get(self, key: tuple) -> "tuple[ExecutionPlan, dict] | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stat("misses")
                return None
            self._entries.move_to_end(key)
            self._stat("hits")
            return entry

    def put(self, key: tuple, exec_plan: "ExecutionPlan",
            cards: "dict[int, CardinalityEstimate]") -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (exec_plan, dict(cards))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stat("evictions")

    def flush(self) -> None:
        """Drop every entry (cost-model parameters changed)."""
        with self._lock:
            if self._entries:
                self._stat("flushes")
                self._entries.clear()

    def snapshot(self) -> dict[str, Any]:
        """Stats plus current size, for profile/REST surfaces."""
        with self._lock:
            return {**self.stats, "size": len(self._entries)}
