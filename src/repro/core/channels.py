"""Communication channels and the channel conversion graph (Section 3).

Data flows between execution operators via typed *channels* (an in-memory
collection, an RDD, a relation, a file...).  When adjacent operators run on
different platforms, *conversion operators* translate one channel into
another.  The space of conversions forms the **channel conversion graph**:
channels are vertices, conversions are directed edges.  The optimizer finds
minimum-cost conversion paths (and multicast trees, when one producer feeds
consumers on several platforms) over this graph — the paper proves the
multicast variant NP-hard and solves it exactly on the small graph via a
Steiner-tree style dynamic program, which we implement here
(Dreyfus-Wagner with a reusability constraint on branching nodes).

Adding a platform only requires conversions to/from ONE existing channel;
the graph supplies the rest.  This is the paper's O(n) vs O(n*m)
extensibility argument, exercised by an ablation benchmark.

Because every enumeration, on every thread, asks for conversion paths
(once per distinct channel pair and producer), the graph memoizes its
searches: path *structure* is cached per ``(source, target, volume band)``
— where a band is a quarter-octave of the simulated data volume — while
costs are always recomputed exactly for the requested volume.  One full
single-source Dijkstra fills the whole cache row for that band, and
``multicast_tree`` reuses the same rows as its Steiner all-pairs table.
Registering a channel or conversion invalidates everything.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from ..concurrency import OrderedRLock

if TYPE_CHECKING:  # pragma: no cover
    from ..trace import MetricsRegistry
    from .execution import ExecutionContext


def volume_band(value: float) -> int:
    """Quantize a positive magnitude into a quarter-octave log2 band.

    Conversion costs are linear in data volume, so the cheapest path can
    only flip where cost lines cross; within a ~19%-wide band the winner is
    stable for every realistic conversion graph, which makes the band a
    safe memo key (costs themselves are never taken from the cache).
    """
    if value <= 1.0:
        return 0
    return int(round(math.log2(value) * 4))


class ChannelConversionError(RuntimeError):
    """Raised when no conversion path/tree connects the requested channels."""


@dataclass(frozen=True)
class ChannelDescriptor:
    """A channel *type*.

    Attributes:
        name: Unique key, e.g. ``"sparklite.rdd"``.
        platform: Owning platform name, or ``None`` for platform-neutral
            channels (files).
        reusable: Whether the channel can feed several consumers without
            being re-materialized (paper: RDDs are not, collections and
            files are).
        in_memory: Whether the channel occupies the platform's memory
            (files and disk-backed relations do not; the executor's memory
            checks skip them).
    """

    name: str
    platform: str | None
    reusable: bool
    in_memory: bool = True

    def __str__(self) -> str:
        return self.name


# Platform-neutral channels.
HDFS_FILE = ChannelDescriptor("vfs.hdfs", None, True, in_memory=False)
LOCAL_FILE = ChannelDescriptor("vfs.local", None, True, in_memory=False)


@dataclass
class Channel:
    """A channel *instance*: a descriptor plus a concrete payload.

    Attributes:
        descriptor: The channel type.
        payload: Engine-specific data (list, RDD, relation name, path...).
        sim_factor: Simulated records per actual record (see
            :mod:`repro.simulation.vfs`).
        bytes_per_record: Simulated bytes per simulated record.
        actual_count: Number of actual records, when known (lazy payloads
            may not know until materialized).
    """

    descriptor: ChannelDescriptor
    payload: Any
    sim_factor: float = 1.0
    bytes_per_record: float = 100.0
    actual_count: int | None = None

    @property
    def sim_cardinality(self) -> float:
        """Simulated record count, if the actual count is known."""
        if self.actual_count is None:
            raise ValueError(f"cardinality of {self.descriptor} not yet measured")
        return self.actual_count * self.sim_factor

    @property
    def sim_mb(self) -> float:
        """Simulated payload size in MB."""
        return self.sim_cardinality * self.bytes_per_record / 1e6

    def with_payload(self, payload: Any, descriptor: ChannelDescriptor | None = None,
                     actual_count: int | None = None) -> "Channel":
        """A sibling channel carrying ``payload`` (metadata preserved)."""
        return Channel(
            descriptor or self.descriptor,
            payload,
            self.sim_factor,
            self.bytes_per_record,
            actual_count,
        )

    def detached(self) -> "Channel":
        """A defensive copy for fan-out points (copy-on-write semantics).

        No-op operators (caches, sinks) that would otherwise return their
        *input* channel object alias the payload container into every
        sibling branch; a downstream operator mutating that container in
        place (e.g. a ``map_partitions`` UDF sorting its partition) would
        silently corrupt the cached/sunk data.  Mutable containers are
        shallow-copied; immutable payloads (a
        :class:`~repro.core.batch.RecordBatch`, tuples, path strings) are
        shared as-is.
        """
        payload = self.payload
        if isinstance(payload, list):
            payload = list(payload)
        elif isinstance(payload, dict):
            payload = dict(payload)
        return Channel(self.descriptor, payload, self.sim_factor,
                      self.bytes_per_record, self.actual_count)


class Conversion:
    """A directed edge of the channel conversion graph.

    Concrete conversions supply a payload translation plus a cost model.
    They are "regular execution operators" in the paper's terms; the
    executor interleaves them with platform operators.
    """

    def __init__(
        self,
        source: ChannelDescriptor,
        target: ChannelDescriptor,
        convert_payload: Callable[[Channel, "ExecutionContext"], Channel],
        mb_per_s: float,
        overhead_s: float = 0.0,
        name: str | None = None,
    ) -> None:
        self.source = source
        self.target = target
        self._convert_payload = convert_payload
        self.mb_per_s = mb_per_s
        self.overhead_s = overhead_s
        self.name = name or f"{source.name}->{target.name}"

    def estimate_cost(self, sim_records: float, bytes_per_record: float) -> float:
        """Estimated simulated seconds to move the given data volume."""
        mb = sim_records * bytes_per_record / 1e6
        return self.overhead_s + mb / self.mb_per_s

    def apply(self, channel: Channel, ctx: "ExecutionContext") -> Channel:
        """Execute the conversion, charging the stage meter."""
        if channel.descriptor != self.source:
            raise ChannelConversionError(
                f"{self.name} cannot convert a {channel.descriptor} channel")
        out = self._convert_payload(channel, ctx)
        if out.actual_count is not None:
            ctx.meter.charge(
                self.estimate_cost(out.sim_cardinality, out.bytes_per_record),
                f"convert:{self.name}",
                category="net",
            )
        else:
            ctx.meter.charge(self.overhead_s, f"convert:{self.name}", category="net")
        return out

    def __repr__(self) -> str:
        return f"Conversion({self.name})"


@dataclass
class ConversionPath:
    """A source-to-target chain of conversions."""

    steps: list[Conversion]
    cost: float

    @property
    def target(self) -> ChannelDescriptor | None:
        return self.steps[-1].target if self.steps else None

    def apply(self, channel: Channel, ctx: "ExecutionContext") -> Channel:
        for step in self.steps:
            channel = step.apply(channel, ctx)
        return channel


@dataclass
class ConversionTree:
    """A multicast conversion tree rooted at the produced channel.

    ``paths`` maps each requested target descriptor to the conversion chain
    reaching it; shared prefixes are stored once in ``shared_steps`` order
    so execution does not repeat work.
    """

    root: ChannelDescriptor
    paths: dict[str, ConversionPath]
    cost: float

    def apply(self, channel: Channel, ctx: "ExecutionContext") -> dict[str, Channel]:
        """Convert ``channel`` once per shared edge; return per-target channels."""
        produced: dict[str, Channel] = {self.root.name: channel}
        out: dict[str, Channel] = {}
        for target_name, path in self.paths.items():
            current = channel
            key = self.root.name
            for step in path.steps:
                key = key + "|" + step.target.name
                if key in produced:
                    current = produced[key]
                else:
                    current = step.apply(current, ctx)
                    produced[key] = current
            out[target_name] = current
        return out


#: Sentinel distinguishing "never solved" from "solved: unreachable".
_UNSOLVED = object()

#: Counter names tracked in :attr:`ChannelConversionGraph.cache_stats`.
CACHE_STAT_NAMES = ("path_hits", "path_misses", "tree_hits", "tree_misses",
                    "dijkstra_runs", "invalidations")


class ChannelConversionGraph:
    """Registry of channels and conversions with memoized path/tree search.

    The graph (edges + memo tables) is shared read-mostly across the job
    server's worker threads; one re-entrant lock serializes registration,
    invalidation and memo-table fills.  Rank 40 in the lock registry
    (:data:`repro.concurrency.order.LOCK_ORDER`): above the metrics lock
    (``_stat`` mirrors counters while holding it), never held while
    calling into the plan cache or the server's job table.

    Args:
        metrics: Optional shared registry mirroring the graph's
            ``conversion_cache.*`` hit/miss counters (see
            :mod:`repro.trace.metrics`).
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self._descriptors: dict[str, ChannelDescriptor] = {}
        self._edges: dict[str, list[Conversion]] = {}
        self.metrics = metrics
        #: Set False to disable memoization (ablations / lossless tests).
        self.caching = True
        #: Bumped on every mutation; external caches key off it.
        self.version = 0
        #: Monotonic counters of cache behaviour (cheap test access).
        self.cache_stats: dict[str, int] = dict.fromkeys(CACHE_STAT_NAMES, 0)
        # (source, target, rec_band, bpr_band) -> tuple[Conversion] | None
        # (None = proven unreachable; costs are recomputed on every hit).
        self._path_cache: dict[tuple[str, str, int, int], Any] = {}
        # Rows already filled by a full single-source Dijkstra.
        self._solved_rows: set[tuple[str, int, int]] = set()
        # source -> frozenset of reachable descriptor names.
        self._reachable: dict[str, frozenset[str]] = {}
        # (source, targets, rec_band, bpr_band) -> {target: tuple[Conversion]}
        self._tree_cache: dict[tuple, dict[str, tuple[Conversion, ...]]] = {}
        #: Serializes registration and memo-table mutation (see class doc).
        self._lock = OrderedRLock("conversion_graph", metrics)
        self.register_channel(HDFS_FILE)
        self.register_channel(LOCAL_FILE)

    # ------------------------------------------------------------- registry
    def register_channel(self, desc: ChannelDescriptor) -> None:
        with self._lock:
            existing = self._descriptors.get(desc.name)
            if existing is not None and existing != desc:
                raise ValueError(
                    f"conflicting descriptor registration for {desc.name}")
            if existing is None:
                self._invalidate()
            self._descriptors[desc.name] = desc
            self._edges.setdefault(desc.name, [])

    def register_conversion(self, conv: Conversion) -> None:
        with self._lock:
            self.register_channel(conv.source)
            self.register_channel(conv.target)
            self._edges[conv.source.name].append(conv)
            self._invalidate()

    def _invalidate(self) -> None:
        """Drop every memoized search result (the graph changed)."""
        with self._lock:
            self.version += 1
            if self._path_cache or self._solved_rows or self._tree_cache \
                    or self._reachable:
                self._stat("invalidations")
            self._path_cache.clear()
            self._solved_rows.clear()
            self._reachable.clear()
            self._tree_cache.clear()

    def _stat(self, name: str) -> None:
        with self._lock:
            self.cache_stats[name] += 1
        if self.metrics is not None:
            self.metrics.counter(f"conversion_cache.{name}").inc()

    def descriptor(self, name: str) -> ChannelDescriptor:
        try:
            return self._descriptors[name]
        except KeyError:
            raise ChannelConversionError(f"unknown channel {name!r}") from None

    def descriptors(self) -> list[ChannelDescriptor]:
        return list(self._descriptors.values())

    def conversions_from(self, name: str) -> list[Conversion]:
        return list(self._edges.get(name, []))

    # ------------------------------------------------------------ searching
    def cheapest_path(
        self,
        source: ChannelDescriptor,
        target: ChannelDescriptor,
        sim_records: float,
        bytes_per_record: float = 100.0,
    ) -> ConversionPath:
        """Minimum-cost conversion chain for a single consumer.

        Memoized: one full Dijkstra per (source, volume band) caches the
        path structure to EVERY reachable channel; the returned cost is
        always recomputed exactly for the requested volume.

        Raises:
            ChannelConversionError: If the target is unreachable.
        """
        if source.name == target.name:
            return ConversionPath([], 0.0)
        steps = self._path_steps(source, target, sim_records, bytes_per_record)
        if steps is None:
            raise ChannelConversionError(
                f"no conversion path from {source.name} to {target.name}")
        return ConversionPath(list(steps), sum(
            conv.estimate_cost(sim_records, bytes_per_record)
            for conv in steps))

    def _path_steps(
        self,
        source: ChannelDescriptor,
        target: ChannelDescriptor,
        sim_records: float,
        bytes_per_record: float,
    ) -> tuple[Conversion, ...] | None:
        """Cached conversion chain ``source -> target`` (None: unreachable)."""
        if not self.caching:
            row = self._solve_row(source.name, sim_records, bytes_per_record)
            return row.get(target.name)
        band = (volume_band(sim_records), volume_band(bytes_per_record))
        key = (source.name, target.name, *band)
        with self._lock:
            steps = self._path_cache.get(key, _UNSOLVED)
            if steps is not _UNSOLVED:
                self._stat("path_hits")
                return steps
            self._stat("path_misses")
            row_key = (source.name, *band)
            if row_key not in self._solved_rows:
                row = self._solve_row(source.name, sim_records,
                                      bytes_per_record)
                for name in self._descriptors:
                    self._path_cache[(source.name, name, *band)] = \
                        row.get(name)
                self._solved_rows.add(row_key)
            return self._path_cache[key]

    def _solve_row(self, source_name: str, sim_records: float,
                   bytes_per_record: float) -> dict[str, tuple[Conversion, ...]]:
        """One single-source Dijkstra: cheapest chains to ALL reachable nodes."""
        self._stat("dijkstra_runs")
        dist: dict[str, float] = {source_name: 0.0}
        back: dict[str, tuple[str, Conversion]] = {}
        heap: list[tuple[float, str]] = [(0.0, source_name)]
        visited: set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for conv in self._edges.get(node, []):
                weight = conv.estimate_cost(sim_records, bytes_per_record)
                nd = d + weight
                if nd < dist.get(conv.target.name, float("inf")):
                    dist[conv.target.name] = nd
                    back[conv.target.name] = (node, conv)
                    heapq.heappush(heap, (nd, conv.target.name))
        row: dict[str, tuple[Conversion, ...]] = {}
        for name in visited:
            steps: list[Conversion] = []
            node = name
            while node != source_name:
                prev, conv = back[node]
                steps.append(conv)
                node = prev
            steps.reverse()
            row[name] = tuple(steps)
        return row

    def reachable_from(self, name: str) -> frozenset[str]:
        """Descriptor names reachable from ``name`` (BFS, memoized)."""
        with self._lock:
            cached = self._reachable.get(name) if self.caching else None
            if cached is None:
                seen = {name}
                frontier = [name]
                while frontier:
                    node = frontier.pop()
                    for conv in self._edges.get(node, []):
                        if conv.target.name not in seen:
                            seen.add(conv.target.name)
                            frontier.append(conv.target.name)
                cached = frozenset(seen)
                if self.caching:
                    self._reachable[name] = cached
            return cached

    def multicast_tree(
        self,
        source: ChannelDescriptor,
        targets: list[ChannelDescriptor],
        sim_records: float,
        bytes_per_record: float = 100.0,
    ) -> ConversionTree:
        """Minimum-cost conversion tree reaching all ``targets``.

        Exact Steiner-tree dynamic program (Dreyfus-Wagner) over the small
        conversion graph, with the constraint that branching may only happen
        at *reusable* channels.  Single-target requests reduce to
        :meth:`cheapest_path`.

        Raises:
            ChannelConversionError: If some target is unreachable.
        """
        unique = {t.name: t for t in targets}
        names = sorted(unique)
        if not names:
            return ConversionTree(source, {}, 0.0)
        if len(names) == 1:
            path = self.cheapest_path(source, unique[names[0]], sim_records,
                                      bytes_per_record)
            return ConversionTree(source, {names[0]: path}, path.cost)

        # Nodes the source cannot reach can never join the tree: prune them
        # from the Steiner DP up front, and fail fast on unreachable targets
        # instead of silently iterating them through the DP tables.
        reachable = self.reachable_from(source.name)
        missing = [n for n in names if n not in reachable]
        if missing:
            raise ChannelConversionError(
                f"no conversion tree from {source.name} to {names}"
                f" (unreachable: {missing})")

        with self._lock:
            return self._multicast_tree_locked(
                source, unique, names, reachable, sim_records,
                bytes_per_record)

    def _multicast_tree_locked(
        self,
        source: ChannelDescriptor,
        unique: dict[str, ChannelDescriptor],
        names: list[str],
        reachable: frozenset[str],
        sim_records: float,
        bytes_per_record: float,
    ) -> ConversionTree:
        """The Steiner solve, run under the graph lock (memo-table fills)."""
        band = (volume_band(sim_records), volume_band(bytes_per_record))
        tree_key = (source.name, tuple(names), *band)
        if self.caching:
            cached = self._tree_cache.get(tree_key)
            if cached is not None:
                self._stat("tree_hits")
                return self._tree_from_segments(source, cached, sim_records,
                                                bytes_per_record)
            self._stat("tree_misses")

        # The Steiner all-pairs table reuses the memoized Dijkstra rows (one
        # per (node, band), shared with cheapest_path and later calls)
        # instead of recomputing |V|^2 searches per invocation.
        nodes = [n for n in self._descriptors if n in reachable]
        paths: dict[str, dict[str, ConversionPath]] = {}
        for start in nodes:
            start_desc = self._descriptors[start]
            paths[start] = {}
            for end in nodes:
                if start == end:
                    paths[start][end] = ConversionPath([], 0.0)
                    continue
                steps = self._path_steps(start_desc, self._descriptors[end],
                                         sim_records, bytes_per_record)
                if steps is not None:
                    paths[start][end] = ConversionPath(list(steps), sum(
                        conv.estimate_cost(sim_records, bytes_per_record)
                        for conv in steps))

        full = (1 << len(names)) - 1
        index = {name: i for i, name in enumerate(names)}
        inf = float("inf")
        # dp[mask][node] = min cost of a tree rooted at node covering mask.
        dp: list[dict[str, float]] = [dict() for _ in range(full + 1)]
        choice: list[dict[str, tuple]] = [dict() for _ in range(full + 1)]
        for name in names:
            mask = 1 << index[name]
            for node in nodes:
                if name in paths.get(node, {}):
                    dp[mask][node] = paths[node][name].cost
                    choice[mask][node] = ("path", name)
        for mask in range(1, full + 1):
            if mask & (mask - 1) == 0:
                continue  # singletons done above
            # Merge two sub-trees at a reusable node.
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if sub < rest:  # avoid symmetric duplicates
                    for node in nodes:
                        if not self._descriptors[node].reusable:
                            continue
                        a = dp[sub].get(node, inf)
                        b = dp[rest].get(node, inf)
                        if a + b < dp[mask].get(node, inf):
                            dp[mask][node] = a + b
                            choice[mask][node] = ("merge", sub, rest)
                sub = (sub - 1) & mask
            # Extend: reach the merge node from elsewhere.
            for node in nodes:
                base = dp[mask].get(node)
                if base is None:
                    continue
                for start in nodes:
                    if node in paths.get(start, {}):
                        cost = paths[start][node].cost + base
                        if cost < dp[mask].get(start, inf):
                            dp[mask][start] = cost
                            choice[mask][start] = ("via", node)
        total = dp[full].get(source.name)
        if total is None:
            raise ChannelConversionError(
                f"no conversion tree from {source.name} to {names}"
                " (no reusable branching channel connects them)")

        # Reconstruct per-target conversion chains.  Each chain is kept as a
        # list of *segments*: a shared "via"/merge prefix carries the same
        # segment id across every target below it, so a cached tree can be
        # re-costed later charging each shared segment exactly once (the
        # same accounting as the DP total).
        segments_by_target: dict[str, tuple[tuple[int, tuple[Conversion, ...]],
                                            ...]] = {}
        next_segment = itertools.count().__next__

        def build(mask: int, node: str,
                  prefix: tuple[tuple[int, tuple[Conversion, ...]], ...]
                  ) -> None:
            what = choice[mask][node]
            if what[0] == "path":
                name = what[1]
                segments_by_target[name] = prefix + (
                    (next_segment(), tuple(paths[node][name].steps)),)
            elif what[0] == "merge":
                __, sub, rest = what
                build(sub, node, prefix)
                build(rest, node, prefix)
            else:  # via
                mid = what[1]
                build(mask, mid, prefix + (
                    (next_segment(), tuple(paths[node][mid].steps)),))

        build(full, source.name, ())
        if self.caching:
            self._tree_cache[tree_key] = segments_by_target
        tree = self._tree_from_segments(source, segments_by_target,
                                        sim_records, bytes_per_record)
        assert abs(tree.cost - total) <= 1e-9 + 1e-9 * abs(total)
        return tree

    def _tree_from_segments(
        self,
        source: ChannelDescriptor,
        segments_by_target: dict[str, tuple],
        sim_records: float,
        bytes_per_record: float,
    ) -> ConversionTree:
        """Re-cost a (possibly cached) tree structure for the given volume.

        Segments shared between targets (same segment id) are charged once
        in the tree total, matching the Steiner DP's accounting; per-target
        path costs sum their own full chains, matching ``cheapest_path``.
        """
        target_paths: dict[str, ConversionPath] = {}
        charged: set[int] = set()
        total = 0.0
        for name, segments in segments_by_target.items():
            steps: list[Conversion] = []
            cost = 0.0
            for segment_id, segment_steps in segments:
                segment_cost = sum(
                    conv.estimate_cost(sim_records, bytes_per_record)
                    for conv in segment_steps)
                steps.extend(segment_steps)
                cost += segment_cost
                if segment_id not in charged:
                    charged.add(segment_id)
                    total += segment_cost
            target_paths[name] = ConversionPath(steps, cost)
        return ConversionTree(source, target_paths, total)
