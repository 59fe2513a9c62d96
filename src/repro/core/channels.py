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

The graph is a registry plus pure searches: it remembers channels and
conversions, never an answer.  One exact single-source search
(:meth:`ChannelConversionGraph.paths_from`) serves ``cheapest_path``,
``multicast_tree``'s all-pairs table and the optimizer, which keeps the
rows it asked for on its enumeration's stack — so the path a job gets
is a function of the graph and the volume alone, not of what was asked
before.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .execution import ExecutionContext


def volume_band(value: float) -> int:
    """Quantize a positive magnitude into a quarter-octave log2 band.

    The coarse volume key of the plan cache, the result store and the
    calibration corpus: inputs within a ~19%-wide band share an entry.
    Conversion searches never band — they take the exact volume.
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

#: A driver-side, in-process materialized collection: a list of records or
#: one immutable :class:`~repro.core.batch.RecordBatch` of them.  Reusable:
#: any number of consumers may iterate it (the paper's Java Collection
#: channel).  Pystreams owns it; job results and every platform's collect
#: conversion meet on it.
PY_COLLECTION = ChannelDescriptor("pystreams.collection", "pystreams", True)


@dataclass(slots=True)
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
        self.label = f"convert:{self.name}"

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
                self.label, "net")
        else:
            ctx.meter.charge(self.overhead_s, self.label, "net")
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


class ChannelConversionGraph:
    """Registry of channels and conversions, searched exactly on demand.

    Channel name -> descriptor and channel name -> outgoing conversions,
    both in registration order.
    """

    def __init__(self) -> None:
        self._descriptors: dict[str, ChannelDescriptor] = {}
        self._edges: dict[str, list[Conversion]] = {}
        self.register_channel(HDFS_FILE)
        self.register_channel(LOCAL_FILE)

    # ------------------------------------------------------------- registry
    def register_channel(self, desc: ChannelDescriptor) -> None:
        existing = self._descriptors.get(desc.name)
        if existing is not None and existing != desc:
            raise ValueError(
                f"conflicting descriptor registration for {desc.name}")
        self._descriptors[desc.name] = desc
        self._edges.setdefault(desc.name, [])

    def register_conversion(self, conv: Conversion) -> None:
        self.register_channel(conv.source)
        self.register_channel(conv.target)
        self._edges[conv.source.name].append(conv)

    def descriptor(self, name: str) -> ChannelDescriptor:
        try:
            return self._descriptors[name]
        except KeyError:
            raise ChannelConversionError(f"unknown channel {name!r}") from None

    def descriptors(self) -> list[ChannelDescriptor]:
        return list(self._descriptors.values())

    def conversions_from(self, name: str) -> list[Conversion]:
        return list(self._edges.get(name, ()))

    # ------------------------------------------------------------ searching
    def paths_from(
        self,
        source: ChannelDescriptor,
        sim_records: float,
        bytes_per_record: float = 100.0,
    ) -> dict[str, ConversionPath]:
        """Cheapest chains from ``source`` to EVERY channel it reaches.

        One exact Dijkstra for the requested volume.  The row is keyed by
        channel name in registration order (never set order) and holds
        ``source`` itself with the empty path; an absent key means
        unreachable.  Equal-cost chains tie-break on the channel name, so
        the answer depends on nothing but the graph and the arguments.
        """
        return self._search(source.name, sim_records, bytes_per_record)

    def _search(self, source: str, sim_records: float,
                bytes_per_record: float) -> dict[str, ConversionPath]:
        """One Dijkstra row from the channel named ``source`` (see
        :meth:`paths_from`)."""
        found: dict[str, ConversionPath] = {}
        dist: dict[str, float] = {source: 0.0}
        back: dict[str, tuple[str, Conversion]] = {}
        heap: list[tuple[float, str]] = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in found:
                continue
            if node in back:  # its predecessor was popped before it
                prev, conv = back[node]
                found[node] = ConversionPath(found[prev].steps + [conv], d)
            else:
                found[node] = ConversionPath([], 0.0)
            for conv in self._edges.get(node, ()):
                nd = d + conv.estimate_cost(sim_records, bytes_per_record)
                if nd < dist.get(conv.target.name, float("inf")):
                    dist[conv.target.name] = nd
                    back[conv.target.name] = (node, conv)
                    heapq.heappush(heap, (nd, conv.target.name))
        # Over a copy of the names, taken in one call: a channel registered
        # meanwhile must not change the dict under the loop.
        return {name: found[name] for name in list(self._descriptors)
                if name in found}

    def cheapest_path(
        self,
        source: ChannelDescriptor,
        target: ChannelDescriptor,
        sim_records: float,
        bytes_per_record: float = 100.0,
    ) -> ConversionPath:
        """Minimum-cost conversion chain for a single consumer.

        Raises:
            ChannelConversionError: If the target is unreachable.
        """
        if source.name == target.name:
            return ConversionPath([], 0.0)
        path = self.paths_from(source, sim_records,
                               bytes_per_record).get(target.name)
        if path is None:
            raise ChannelConversionError(
                f"no conversion path from {source.name} to {target.name}")
        return path

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

        # Channels the source cannot reach can never join the tree: only
        # its row's keys enter the Steiner DP, and an unreachable target
        # fails fast instead of iterating through the tables.
        nodes = list(self._search(source.name, sim_records,
                                  bytes_per_record))
        missing = [n for n in names if n not in nodes]
        if missing:
            raise ChannelConversionError(
                f"no conversion tree from {source.name} to {names}"
                f" (unreachable: {missing})")
        paths = {start: self._search(start, sim_records, bytes_per_record)
                 for start in nodes}
        reusable = [n for n in nodes if self._descriptors[n].reusable]

        full = (1 << len(names)) - 1
        index = {name: i for i, name in enumerate(names)}
        inf = float("inf")
        # dp[mask][node] = min cost of a tree rooted at node covering mask.
        dp: list[dict[str, float]] = [dict() for _ in range(full + 1)]
        choice: list[dict[str, tuple]] = [dict() for _ in range(full + 1)]
        for name in names:
            mask = 1 << index[name]
            for node in nodes:
                if name in paths[node]:
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
                    for node in reusable:
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
                    if node in paths[start]:
                        cost = paths[start][node].cost + base
                        if cost < dp[mask].get(start, inf):
                            dp[mask][start] = cost
                            choice[mask][start] = ("via", node)
        total = dp[full].get(source.name)
        if total is None:
            raise ChannelConversionError(
                f"no conversion tree from {source.name} to {names}"
                " (no reusable branching channel connects them)")

        # Per-target chains: each carries its shared "via"/merge prefix in
        # full (``ConversionTree.apply`` runs a shared step once), while
        # the tree total is the DP's, which charged every edge once.
        target_paths: dict[str, ConversionPath] = {}

        def build(mask: int, node: str, prefix: ConversionPath) -> None:
            what = choice[mask][node]
            if what[0] == "merge":
                build(what[1], node, prefix)
                build(what[2], node, prefix)
                return
            leg = paths[node][what[1]]
            reached = ConversionPath(prefix.steps + leg.steps,
                                     prefix.cost + leg.cost)
            if what[0] == "path":
                target_paths[what[1]] = reached
            else:  # via
                build(mask, what[1], reached)

        build(full, source.name, ConversionPath([], 0.0))
        return ConversionTree(source, target_paths, total)

