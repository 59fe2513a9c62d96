"""The cross-job intermediate-result store (result reuse, ROADMAP item 3).

Many submitted plans share sources and cleaning/join prefixes; past
per-plan optimization (the plan cache replays *decisions*) the remaining
win is skipping the *work*.  This store keeps committed stage outputs of
finished jobs and offers them to the optimizer as zero-cost source
alternatives: a hit prunes the whole upstream cone from enumeration AND
from execution.

Entries are keyed by

``(subplan fingerprint, source-cardinality bands, cost-model version)``

* the **subplan fingerprint**
  (:attr:`~repro.core.fingerprint.PlanFingerprints.subplans`) is a Merkle
  digest of the computation rooted at the operator — structure, every
  parameter including UDF bytecode, and the whole upstream cone; unstable
  attributes poison the digest transitively, so an unkeyable subplan can
  only miss, never collide;
* the **source-cardinality bands** (quarter-octave, one per source in the
  cone, tagged by the source's own digest) re-key the store when the
  underlying data grows;
* the **cost-model version** ties an entry to the parameters it was
  produced under; :meth:`RheemContext.publish_cost_params` additionally
  flushes the store outright, exactly like the plan cache.

Admission is cost-aware: an output is materialized only when its
*benefit* — simulated recompute seconds per simulated megabyte — clears
``min_benefit`` (cheap-to-recompute or enormous outputs are not worth
the memory), and the store evicts the lowest-benefit entry (LRU within
equal benefit) whenever the configured byte budget overflows.

The store belongs to one context, and a context runs one job at a time
(a job server's shard holds its context for the whole job), so it takes
no lock.  Stats mirror into the context's metrics registry as
``intermediate.*``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..trace import MetricsRegistry
    from .channels import Channel

#: Statistic names mirrored into the registry as ``intermediate.<name>``.
INTERMEDIATE_STAT_NAMES = (
    "hits", "misses", "admissions", "rejections", "evictions", "flushes")


class StoredResult:
    """One admitted intermediate: a detached channel plus its economics."""

    __slots__ = ("key", "channel", "recompute_s", "mb", "benefit", "last_use")

    def __init__(self, key: tuple, channel: "Channel", recompute_s: float,
                 mb: float, benefit: float, last_use: int) -> None:
        self.key = key
        self.channel = channel
        self.recompute_s = recompute_s
        self.mb = mb
        self.benefit = benefit
        self.last_use = last_use


class IntermediateResultStore:
    """Bounded, benefit-ranked store of committed stage outputs.

    Args:
        budget_mb: Total simulated megabytes the store may hold; the
            lowest-benefit entries are evicted past it.
        min_benefit: Admission threshold in simulated recompute seconds
            per simulated megabyte — outputs cheaper to recompute than to
            hold are rejected.
        metrics: The context's registry, receiving ``intermediate.*`` counters
            and the ``intermediate.bytes`` gauge.
    """

    def __init__(self, budget_mb: float = 256.0,
                 min_benefit: float = 0.005,
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.budget_mb = budget_mb
        self.min_benefit = min_benefit
        self.metrics = metrics
        self.enabled = True
        self.stats: dict[str, int] = dict.fromkeys(
            INTERMEDIATE_STAT_NAMES, 0)
        self.bytes_mb = 0.0
        self._entries: dict[tuple, StoredResult] = {}
        self._tick = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _stat(self, name: str) -> None:
        self.stats[name] += 1
        if self.metrics is not None:
            self.metrics.counter(f"intermediate.{name}").inc()

    def _publish_bytes(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("intermediate.bytes").set(
                self.bytes_mb * 1e6)

    # ------------------------------------------------------------- access
    def get(self, key: tuple) -> StoredResult | None:
        """Look up one subplan key; counts a hit or a miss."""
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self._stat("misses")
            return None
        self._tick += 1
        entry.last_use = self._tick
        self._stat("hits")
        return entry

    def offer(self, key: tuple, channel: "Channel",
              recompute_s: float) -> bool:
        """Offer a committed stage output for admission.

        Returns ``True`` when the output was materialized into the store.
        Already-present keys only refresh their recency (the resident
        entry was produced by an identical computation).  Admission
        requires a known cardinality, a benefit ratio of at least
        ``min_benefit`` simulated seconds per simulated MB, and fitting
        the byte budget at all (single outputs larger than the whole
        budget are rejected, not admitted-then-evicted).
        """
        if not self.enabled:
            return False
        if channel.actual_count is None:
            return False
        mb = channel.sim_mb
        benefit = recompute_s / max(mb, 1e-9)
        resident = self._entries.get(key)
        if resident is not None:
            self._tick += 1
            resident.last_use = self._tick
            return False
        if benefit < self.min_benefit or mb > self.budget_mb:
            self._stat("rejections")
            return False
        self._tick += 1
        self._entries[key] = StoredResult(
            key, channel.detached(), recompute_s, mb, benefit, self._tick)
        self.bytes_mb += mb
        self._stat("admissions")
        while self.bytes_mb > self.budget_mb and len(self._entries) > 1:
            victim = min(self._entries.values(),
                         key=lambda e: (e.benefit, e.last_use))
            del self._entries[victim.key]
            self.bytes_mb -= victim.mb
            self._stat("evictions")
        self._publish_bytes()
        return True

    def flush(self) -> None:
        """Drop every entry (cost-model parameters changed)."""
        if self._entries:
            self._stat("flushes")
            self._entries.clear()
            self.bytes_mb = 0.0
            self._publish_bytes()

    def snapshot(self) -> dict[str, Any]:
        """Stats plus current size/bytes, for profile/REST surfaces."""
        return {**self.stats, "size": len(self._entries),
                "bytes_mb": self.bytes_mb}
