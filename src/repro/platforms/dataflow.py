"""Execution operators shared by every dataflow engine.

The JavaStreams analog (pystreams), the Spark analog, the Flink analog, the
Giraph analog, the two in-process graph libraries and the Postgres analog's
relational operators execute the same *logic*; they differ in channel
types, performance profiles, payload layout and a few operators of their
own (Spark's explicit Cache, each graph platform's priced PageRank,
pgres's scans and nested loop).  An engine is therefore a *value* — a
:class:`DataflowEngine` naming the platform, its channels and its payload
layout — that every operator here receives at construction; the engine also
binds the one shared mapping table, so plugging in another engine takes one
:class:`~repro.platforms.base.Platform` declaration: an engine value, a
profile and a conversion (rate/overhead) table.

The layout says how a channel's payload splits into partitions and back.  A
partitioned engine carries a
:class:`~repro.platforms.distributed.PartitionedDataset` of as many
partitions as its profile's parallelism; a :class:`CollectionEngine` carries
its one partition itself (pgres wraps it in a relation).  The operators
read and write a plain list of partitions through the engine, and whatever
differs on one partition depends on the partition count, never on the
engine: a shuffle of one partition into one moves nothing, so it neither
hashes nor copies, ReduceBy then skips its second fold, and Sort does not
chunk its output.

Wide (shuffling) operators really hash-partition the data — co-location is
observable — and charge shuffle time per simulated MB on top of CPU time
(a platform with no shuffle rate, like pystreams, records none).

A partition is a list of records or a
:class:`~repro.core.batch.RecordBatch`; both have a length and iterate as
records.  The operators with a columnar kernel (map, flatmap, filter, sort,
reduce-by, join) pick it per partition through ``core.batch.run_*``, and a
shuffle of batches places rows exactly where ``shuffle_by_key`` places
records; the others read records and emit lists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..algorithms.iejoin import ie_join
from ..algorithms.pagerank import pagerank_edges
from ..core import operators as ops
from ..core.batch import (RecordBatch, batch_keys, records_of, run_filter,
                          run_flat_map, run_join, run_map, run_reduce,
                          run_sort)
from ..core.channels import (Channel, ChannelDescriptor, HDFS_FILE,
                             PY_COLLECTION)
from ..core.kernels import (bind, distinct_records, fold_records,
                            group_by_key, identity, intersect_records)
from ..core.mappings import OperatorMapping
from ..simulation.vfs import HDFS_SCHEME, LOCAL_SCHEME
from .base import (ExecutionOperator, _cin, _group_factor, _sample_seed,
                   charge_operator, union_bytes_per_record)
from .distributed import PartitionedDataset

_tmp_counter = itertools.count(1)


@dataclass(frozen=True)
class DataflowEngine:
    """One partitioned dataflow engine: its platform name and channels.

    ``broadcast`` may equal ``dataset`` (no dedicated broadcast channel) or
    be ``None`` (the engine takes no broadcasts).  The converter methods
    are the payload halves of the engine's conversions, written against
    its layout: the platform's declaration pairs each with a rate and an
    overhead.
    """

    platform: str
    dataset: ChannelDescriptor
    broadcast: ChannelDescriptor | None

    # --------------------------------------------------------------- layout
    def parts(self, payload) -> list:
        """The partitions of one of this engine's payloads."""
        return payload.partitions

    def payload(self, parts: list):
        """The payload holding ``parts``."""
        return PartitionedDataset(parts)

    def width(self, ctx) -> int:
        """How many partitions a source or a shuffle produces."""
        return ctx.profile(self.platform).parallelism

    def split(self, records, ctx) -> list:
        """``records`` dealt round-robin over the engine's width."""
        return PartitionedDataset.from_records(records,
                                               self.width(ctx)).partitions

    # ------------------------------------------------------------- mappings
    def mappings(self, own: Mapping[type, type] | None = None,
                 only: frozenset[type] | None = None) -> list[OperatorMapping]:
        """The shared mapping table bound to this engine.

        ``own`` names the engine's own operator classes per logical type
        (they take the shared one's place); ``only`` restricts the table
        to the logical types the engine supports.
        """
        table = {**_OPERATORS, **(own or {})}
        return [OperatorMapping(logical_type,
                                lambda op, cls=cls: [cls(op, self)])
                for logical_type, cls in table.items()
                if cls is not None and (only is None or logical_type in only)]

    # ----------------------------------------------------- payload converters
    def from_collection(self, channel: Channel, ctx) -> Channel:
        parts = self.split(channel.payload, ctx)
        return channel.with_payload(self.payload(parts), self.dataset,
                                    sum(map(len, parts)))

    def to_collection(self, channel: Channel, ctx) -> Channel:
        records = list(_records(self.parts(channel.payload)))
        return channel.with_payload(records, PY_COLLECTION, len(records))

    def to_broadcast(self, channel: Channel, ctx) -> Channel:
        return channel.with_payload(list(channel.payload), self.broadcast,
                                    len(channel.payload))

    def save_to_file(self, channel: Channel, ctx,
                     file: ChannelDescriptor = HDFS_FILE) -> Channel:
        """Write the records to a fresh temporary file: on HDFS, or on
        the local file system when ``file`` is ``LOCAL_FILE``."""
        scheme = HDFS_SCHEME if file is HDFS_FILE else LOCAL_SCHEME
        path = f"{scheme}://tmp/{self.platform}-{next(_tmp_counter)}"
        records = list(_records(self.parts(channel.payload)))
        ctx.vfs.write(path, records, channel.sim_factor,
                      channel.bytes_per_record)
        return channel.with_payload(path, file, len(records))

    def read_file(self, channel: Channel, ctx) -> Channel:
        vf = ctx.vfs.read(channel.payload)
        parts = self.split(vf.records, ctx)
        return Channel(self.dataset, self.payload(parts), vf.sim_factor,
                       vf.bytes_per_record, len(vf.records))


class CollectionEngine(DataflowEngine):
    """A single-node engine whose payload is its one partition: a list of
    records or a :class:`~repro.core.batch.RecordBatch`."""

    def parts(self, payload) -> list:
        return [payload]

    def payload(self, parts: list):
        if len(parts) == 1:
            return parts[0]
        return list(chain.from_iterable(parts))

    def width(self, ctx) -> int:
        return 1


def _records(parts: list) -> Iterable:
    """Every record of ``parts``: the one partition itself, or a chain."""
    return parts[0] if len(parts) == 1 else chain.from_iterable(parts)


def _record_list(parts: list) -> list:
    """Every record of ``parts`` as a list (one partition's own, if it is
    a list)."""
    if len(parts) == 1:
        return records_of(parts[0])
    return list(chain.from_iterable(parts))


def _shuffle(parts: list, n: int, key_fn, key_col=None) -> list:
    """Hash-partition ``parts`` by key into ``n``; batches stay batches.

    One partition into one moves nothing: ``parts`` itself comes back.
    ``shuffle_by_key`` appends records to ``parts[hash(key) % n]`` while
    scanning partitions in order, so target partition ``t`` holds — in
    source order — every record whose key hashes to ``t``.  Selecting each
    source batch's matching rows (order-preserving) and concatenating over
    source batches reproduces that exactly; ``key_col`` names the column
    holding ``key_fn``'s values, where the batch has it.
    """
    if n == 1 == len(parts):
        return parts
    if not any(isinstance(p, RecordBatch) for p in parts):
        return PartitionedDataset(parts).shuffle_by_key(key_fn, n).partitions
    batches = [RecordBatch.from_records(p) for p in parts]
    assigns = [np.array([hash(k) % n for k in batch_keys(b, key_col, key_fn)],
                        dtype=np.int64) for b in batches]
    return [RecordBatch.concat([b.take(np.flatnonzero(a == t))
                                for b, a in zip(batches, assigns) if len(b)])
            for t in range(n)]


class DataflowOperator(ExecutionOperator):
    """Base for dataflow execution operators, bound to one engine."""

    def __init__(self, logical, engine: DataflowEngine) -> None:
        super().__init__(logical)
        self.engine = engine
        self.platform = engine.platform

    def input_descriptors(self):
        arity = self.logical.num_inputs if self.logical is not None else 1
        return [self.engine.dataset] * arity

    def output_descriptor(self):
        return self.engine.dataset

    def broadcast_descriptor(self):
        return self.engine.broadcast

    # ------------------------------------------------------------- plumbing
    def execute(self, inputs: Sequence[Channel], broadcasts: Sequence[Channel],
                ctx) -> Channel:
        # UDFs take their broadcast values as plain lists.
        return self._run(inputs, [records_of(b.payload) for b in broadcasts],
                         ctx)

    def _run(self, inputs: Sequence[Channel], bvals: list[Any], ctx) -> Channel:
        raise NotImplementedError

    def _parts(self, channel: Channel) -> list:
        return self.engine.parts(channel.payload)

    def _width(self, ctx) -> int:
        return self.engine.width(ctx)

    def _emit(self, template: Channel, parts: list, ctx,
              cin: float,
              sim_factor: float | None = None,
              bytes_per_record: float | None = None) -> Channel:
        # ``cin`` is threaded through the call (not instance state): one
        # operator instance re-executes across loop iterations, retries
        # and, through the plan cache, later jobs on the same context.
        out = Channel(
            self.engine.dataset,
            self.engine.payload(parts),
            template.sim_factor if sim_factor is None else sim_factor,
            (template.bytes_per_record if bytes_per_record is None
             else bytes_per_record),
            sum(map(len, parts)),
        )
        charge_operator(ctx, self, cin, out.sim_cardinality)
        return out

    def _charge_net(self, ctx, mb: float, what: str = "shuffle") -> None:
        """Charge network time for moving ``mb`` simulated MB; a platform
        that prices no shuffle (pystreams, graphlite) records no charge."""
        rate = ctx.profile(self.platform).shuffle_cost_s_per_mb
        if rate:
            ctx.meter.charge(mb * rate, f"{self.name}.{what}", category="net")


class DFTextFileSource(DataflowOperator):
    """File read at the engine's (aggregate) bandwidth."""

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        vf = ctx.vfs.read(self.logical.path)
        ctx.meter.charge(ctx.profile(self.platform).io_seconds(vf.sim_mb),
                         f"{self.name}.read", category="io")
        template = Channel(self.engine.dataset, None, vf.sim_factor,
                           vf.bytes_per_record)
        parts = self.engine.split(vf.records, ctx)
        return self._emit(template, parts, ctx, 0.0)


class DFCollectionSource(DataflowOperator):
    """Parallelize a driver collection into the cluster."""

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        logical = self.logical
        template = Channel(self.engine.dataset, None, logical.sim_factor,
                           logical.bytes_per_record)
        parts = self.engine.split(logical.data, ctx)
        out = self._emit(template, parts, ctx, 0.0)
        ctx.meter.charge(ctx.profile(self.platform).transfer_seconds(out.sim_mb),
                         f"{self.name}.parallelize", category="net")
        return out


class DFMap(DataflowOperator):
    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        parts = [run_map(self.logical, p, bvals) for p in self._parts(inputs[0])]
        return self._emit(inputs[0], parts, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class DFFlatMap(DataflowOperator):
    op_kind = "flatmap"

    def _run(self, inputs, bvals, ctx):
        parts = [run_flat_map(self.logical, p, bvals)
                 for p in self._parts(inputs[0])]
        return self._emit(inputs[0], parts, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class DFMapPartitions(DataflowOperator):
    """A single-node engine's whole collection is one partition."""

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        udf = self.logical.udf
        parts = [list(udf(list(p), *bvals)) for p in self._parts(inputs[0])]
        return self._emit(inputs[0], parts, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class DFZipWithId(DataflowOperator):
    """Unique ids via a per-partition stride (no coordination needed)."""

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        parts = self._parts(inputs[0])
        stride = len(parts)
        parts = [[(pid + i * stride, record) for i, record in enumerate(part)]
                 for pid, part in enumerate(parts)]
        return self._emit(inputs[0], parts, ctx, _cin(inputs))


class DFFilter(DataflowOperator):
    op_kind = "filter"

    def _run(self, inputs, bvals, ctx):
        parts = [run_filter(self.logical, p, bvals)
                 for p in self._parts(inputs[0])]
        return self._emit(inputs[0], parts, ctx, _cin(inputs))


class DFSample(DataflowOperator):
    """Sampling; the method decides whether the engine scans everything.

    ``random`` models a full-scan take-sample (what MLlib does), while
    ``random_jump`` / ``shuffled_partition`` model ML4all's plugged
    IO-efficient samplers that only touch the sample itself.  The draw is
    index-based either way.
    """

    @property
    def op_kind(self):
        if self._is_efficient():
            return "sample"
        return "sample_scan"

    def _is_efficient(self) -> bool:
        return self.logical.method in ("random_jump", "shuffled_partition",
                                       "first")

    def tasks_fraction(self, profile) -> float:
        # The plugged-in samplers touch a single partition, so the engine
        # schedules one task instead of a full wave.
        if self._is_efficient():
            return 1.0 / profile.parallelism
        return 1.0

    def _run(self, inputs, bvals, ctx):
        data = _record_list(self._parts(inputs[0]))
        logical = self.logical
        if logical.size is not None:
            k = min(logical.size, len(data))
        else:
            k = int(len(data) * logical.fraction)
        if logical.method == "first":
            sample = data[:k]
        else:
            rng = random.Random(_sample_seed(ctx, logical))
            sample = [data[rng.randrange(len(data))] for __ in range(k)] if data else []
        return self._emit(inputs[0], [sample], ctx, _cin(inputs),
                          sim_factor=1.0)


class DFDistinct(DataflowOperator):
    op_kind = "distinct"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        key = bind(self.logical.key)
        self._charge_net(ctx, inputs[0].sim_mb)
        shuffled = _shuffle(self._parts(inputs[0]), self._width(ctx),
                            key or identity)
        parts = [distinct_records(p, key) for p in shuffled]
        return self._emit(inputs[0], parts, ctx, _cin(inputs))


class DFSort(DataflowOperator):
    """Global sort via range partitioning (modelled as one shuffle)."""

    op_kind = "sort"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        parts = self._parts(inputs[0])
        if len(parts) == 1:
            merged = parts[0]
        elif self.logical.batch_key is not None:
            merged = RecordBatch.concat([RecordBatch.from_records(p)
                                         for p in parts])
        else:
            merged = list(chain.from_iterable(parts))
        records = run_sort(self.logical, merged)
        self._charge_net(ctx, inputs[0].sim_mb)
        n = self._width(ctx)
        rows = len(records)
        chunk = max(1, (rows + n - 1) // n)
        if n == 1:
            parts = [records]
        elif isinstance(records, RecordBatch):
            parts = [records.take(np.arange(i, min(i + chunk, rows)))
                     for i in range(0, rows, chunk)]
        else:
            parts = [records[i:i + chunk] for i in range(0, rows, chunk)]
        return self._emit(inputs[0], parts, ctx, _cin(inputs))


class DFGroupBy(DataflowOperator):
    """Groups into ``(key, [members])`` quanta.

    Accepts ``GroupBy`` or ``ReduceBy`` logicals (the latter as the first
    half of the 1-to-n Reduce mapping of the paper's Figure 4).
    """

    op_kind = "groupby"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        key = bind(self.logical.key)
        self._charge_net(ctx, inputs[0].sim_mb)
        shuffled = _shuffle(self._parts(inputs[0]), self._width(ctx), key)
        parts = [group_by_key(key, p) for p in shuffled]
        return self._emit(inputs[0], parts, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical,
                                                   sum(map(len, parts)),
                                                   inputs[0].sim_factor))


class DFReduceBy(DataflowOperator):
    """Combine locally, shuffle the partial aggregates, reduce."""

    op_kind = "reduceby"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        partial = min(cins[0], cout * profile.parallelism)
        return partial * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        logical = self.logical
        combined = [run_reduce(logical, p) for p in self._parts(inputs[0])]
        # Only the locally combined partial aggregates cross the network.
        partial_mb = (sum(map(len, combined)) * inputs[0].sim_factor
                      * inputs[0].bytes_per_record / 1e6)
        self._charge_net(ctx, partial_mb)
        shuffled = _shuffle(combined, self._width(ctx), bind(logical.key))
        # When nothing moved, the local aggregates already are the result.
        parts = (combined if shuffled is combined
                 else [run_reduce(logical, p) for p in shuffled])
        return self._emit(inputs[0], parts, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical,
                                                   sum(map(len, parts)),
                                                   inputs[0].sim_factor))


class DFGlobalReduce(DataflowOperator):
    op_kind = "reduce"

    def _run(self, inputs, bvals, ctx):
        out = fold_records(bind(self.logical.reducer),
                           _records(self._parts(inputs[0])))
        return self._emit(inputs[0], [out], ctx, _cin(inputs), sim_factor=1.0)


class DFCount(DataflowOperator):
    op_kind = "count"

    def _run(self, inputs, bvals, ctx):
        n = sum(map(len, self._parts(inputs[0])))
        return self._emit(inputs[0], [[n]], ctx, _cin(inputs), sim_factor=1.0)


class DFUnion(DataflowOperator):
    op_kind = "union"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        parts = self._parts(a) + self._parts(b)
        total_actual = sum(map(len, parts))
        total_sim = a.sim_cardinality + b.sim_cardinality
        factor = total_sim / total_actual if total_actual else 1.0
        return self._emit(a, parts, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=union_bytes_per_record(a, b))


class DFIntersect(DataflowOperator):
    op_kind = "intersect"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return sum(cins) * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        n = self._width(ctx)
        self._charge_net(ctx, a.sim_mb)
        self._charge_net(ctx, b.sim_mb)
        sa = _shuffle(self._parts(a), n, identity)
        sb = _shuffle(self._parts(b), n, identity)
        parts = [intersect_records(pa, pb) for pa, pb in zip(sa, sb)]
        return self._emit(a, parts, ctx, _cin(inputs))


class DFJoin(DataflowOperator):
    """Shuffle hash join: both sides partitioned by key, joined locally."""

    op_kind = "join"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return sum(cins) * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        logical = self.logical
        n = self._width(ctx)
        self._charge_net(ctx, a.sim_mb)
        self._charge_net(ctx, b.sim_mb)
        sa = _shuffle(self._parts(a), n, bind(logical.left_key),
                      logical.left_key_column)
        sb = _shuffle(self._parts(b), n, bind(logical.right_key),
                      logical.right_key_column)
        parts = [run_join(logical, pa, pb) for pa, pb in zip(sa, sb)]
        factor = logical.output_sim_factor(a.sim_factor, b.sim_factor)
        return self._emit(a, parts, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=a.bytes_per_record + b.bytes_per_record)


class DFCartesian(DataflowOperator):
    op_kind = "cartesian"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        replicated = cins[1] if len(cins) > 1 else 0.0
        return replicated * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        right = _record_list(self._parts(b))
        self._charge_net(ctx, b.sim_mb)  # replicate the right side
        parts = [[(l, r) for l in part for r in right]
                 for part in self._parts(a)]
        return self._emit(a, parts, ctx, _cin(inputs),
                          sim_factor=a.sim_factor * b.sim_factor,
                          bytes_per_record=a.bytes_per_record + b.bytes_per_record)


class DFIEJoin(DataflowOperator):
    """Distributed IEJoin: globally sorted merge via the fast algorithm."""

    op_kind = "iejoin"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return sum(cins) * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        conditions = [(c.left_key, c.op, c.right_key)
                      for c in self.logical.conditions]
        self._charge_net(ctx, a.sim_mb)
        self._charge_net(ctx, b.sim_mb)
        pairs = ie_join(_records(self._parts(a)), _records(self._parts(b)),
                        conditions)
        return self._emit(a, self.engine.split(pairs, ctx), ctx, _cin(inputs),
                          sim_factor=max(a.sim_factor, b.sim_factor),
                          bytes_per_record=a.bytes_per_record + b.bytes_per_record)


class DFPageRank(DataflowOperator):
    """PageRank as iterated join/aggregate jobs (the m-to-n mapping target).

    Each iteration is a separate distributed job, so the engine pays one
    stage overhead per iteration — exactly why the paper's CrocoPR prefers
    JGraph for small graphs.  Every platform ranks with the one kernel;
    its subclasses only declare what their platform's ranking costs.
    """

    op_kind = "pagerank"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return self.logical.iterations * cout * bytes_in / 1e6

    def overhead_seconds(self, profile) -> float:
        return self.logical.iterations * profile.stage_overhead_s

    def _emit(self, template, parts, ctx, cin, **kwargs):
        # The one dataflow operator with a fixed overhead charges it after
        # itself, as the cost model adds it after the operator's estimate.
        out = super()._emit(template, parts, ctx, cin, **kwargs)
        extra = self.overhead_seconds(ctx.profile(self.platform))
        if extra:
            ctx.meter.charge(extra, f"{self.name}.overhead",
                             category="overhead")
        return out

    def _ranks(self, edges: Channel, ctx) -> list:
        """The ranked vertices, dealt over the engine's partitions."""
        ranks = pagerank_edges(_records(self._parts(edges)),
                               self.logical.iterations, self.logical.damping)
        return self.engine.split(sorted(ranks.items()), ctx)

    def _run(self, inputs, bvals, ctx):
        parts = self._ranks(inputs[0], ctx)
        # Each iteration shuffles rank contributions (vertex-sized, not
        # edge-sized).
        rank_mb = (sum(map(len, parts)) * inputs[0].sim_factor
                   * inputs[0].bytes_per_record / 1e6)
        self._charge_net(ctx, self.logical.iterations * rank_mb,
                         "rank-shuffles")
        return self._emit(inputs[0], parts, ctx, _cin(inputs))


class DFTextFileSink(DataflowOperator):
    op_kind = "sink"

    def _run(self, inputs, bvals, ctx):
        ch = inputs[0]
        parts = self._parts(ch)
        records = [str(x) for x in _records(parts)]
        ctx.vfs.write(self.logical.path, records, ch.sim_factor,
                      ch.bytes_per_record)
        ctx.meter.charge(ctx.profile(self.platform).io_seconds(ch.sim_mb),
                         f"{self.name}.write", category="io")
        # Detach: the sunk channel must not alias a container a sibling
        # branch may mutate through (partition lists are mutable).
        copied = self.engine.payload([list(p) for p in parts])
        return ch.with_payload(copied, actual_count=ch.actual_count)


class DFCollectionSink(DataflowOperator):
    """Fetches results to the driver via the engine's own iterator action.

    Deliberately dearer per record than the collect *conversion* +
    PyStreams sink (``Rdd.toLocalIterator`` vs ``Rdd.collect`` in the
    paper's WordCount analysis) — the optimizer can discover the cheaper
    route.
    """

    op_kind = "collect_sink"

    def output_descriptor(self):
        return PY_COLLECTION

    def _run(self, inputs, bvals, ctx):
        ch = inputs[0]
        records = list(_records(self._parts(ch)))
        out = Channel(PY_COLLECTION, records, ch.sim_factor,
                      ch.bytes_per_record, len(records))
        charge_operator(ctx, self, ch.sim_cardinality, out.sim_cardinality)
        return out


# --------------------------------------------------------------------------
# The mapping table every engine binds (``DataflowEngine.mappings``), in
# registration order.  ``None`` marks a logical type with no shared
# implementation: an engine maps it with an operator of its own or not at
# all.

_OPERATORS: dict[type, type | None] = {
    ops.TextFileSource: DFTextFileSource,
    ops.CollectionSource: DFCollectionSource,
    ops.Map: DFMap,
    ops.FlatMap: DFFlatMap,
    ops.Filter: DFFilter,
    ops.MapPartitions: DFMapPartitions,
    ops.ZipWithId: DFZipWithId,
    ops.Sample: DFSample,
    ops.Distinct: DFDistinct,
    ops.Sort: DFSort,
    ops.GroupBy: DFGroupBy,
    ops.ReduceBy: DFReduceBy,
    ops.GlobalReduce: DFGlobalReduce,
    ops.Count: DFCount,
    ops.Cache: None,
    ops.Union: DFUnion,
    ops.Intersect: DFIntersect,
    ops.Join: DFJoin,
    ops.CartesianProduct: DFCartesian,
    ops.IEJoin: DFIEJoin,
    ops.PageRank: DFPageRank,
    ops.CollectionSink: DFCollectionSink,
    ops.TextFileSink: DFTextFileSink,
}
