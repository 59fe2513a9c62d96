"""Generic execution operators shared by the distributed dataflow engines.

The Spark analog, the Flink analog and the Giraph analog execute the same
*logic* over :class:`~repro.platforms.distributed.PartitionedDataset`
payloads; they differ in channel types, performance profiles and a few
operators of their own (Spark's explicit Cache, the Pregel PageRank).  An
engine is therefore a *value* — a :class:`DataflowEngine` naming the
platform and its channels — that every operator here receives at
construction; the engine also binds the one shared mapping table and the
one set of payload converters, so plugging in another partitioned engine
takes an engine value plus a conversion (rate/overhead) table.

Wide (shuffling) operators really hash-partition the data — co-location is
observable — and charge shuffle time per simulated MB on top of CPU time.

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
from typing import Any, Mapping, Sequence

import numpy as np

from ..algorithms.iejoin import ie_join
from ..algorithms.pagerank import pagerank_edges
from ..core import operators as ops
from ..core.batch import (RecordBatch, batch_keys, run_filter, run_flat_map,
                          run_join, run_map, run_reduce, run_sort)
from ..core.channels import Channel, ChannelDescriptor, HDFS_FILE
from ..core.kernels import (bind, distinct_records, fold_records,
                            group_by_key, identity, intersect_records)
from ..core.mappings import OperatorMapping
from .base import (ExecutionOperator, _cin, _group_factor, _sample_seed,
                   charge_operator, union_bytes_per_record)
from .distributed import PartitionedDataset
from .pystreams.channels import PY_COLLECTION

_tmp_counter = itertools.count(1)


@dataclass(frozen=True)
class DataflowEngine:
    """One partitioned dataflow engine: its platform name and channels.

    ``broadcast`` may equal ``dataset`` (no dedicated broadcast channel).
    The converter methods are the payload halves of the engine's
    conversions: the platform pairs each with its own rate and overhead.
    """

    platform: str
    dataset: ChannelDescriptor
    broadcast: ChannelDescriptor

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
        n = ctx.profile(self.platform).parallelism
        dataset = PartitionedDataset.from_records(channel.payload, n)
        return channel.with_payload(dataset, self.dataset, dataset.count())

    def to_collection(self, channel: Channel, ctx) -> Channel:
        records = channel.payload.to_list()
        return channel.with_payload(records, PY_COLLECTION, len(records))

    def to_broadcast(self, channel: Channel, ctx) -> Channel:
        return channel.with_payload(list(channel.payload), self.broadcast,
                                    len(channel.payload))

    def save_to_hdfs(self, channel: Channel, ctx) -> Channel:
        path = f"hdfs://tmp/{self.platform}-{next(_tmp_counter)}"
        records = channel.payload.to_list()
        ctx.vfs.write(path, records, channel.sim_factor,
                      channel.bytes_per_record)
        return channel.with_payload(path, HDFS_FILE, len(records))

    def read_from_hdfs(self, channel: Channel, ctx) -> Channel:
        vf = ctx.vfs.read(channel.payload)
        n = ctx.profile(self.platform).parallelism
        dataset = PartitionedDataset.from_records(vf.records, n)
        return Channel(self.dataset, dataset, vf.sim_factor,
                       vf.bytes_per_record, dataset.count())


def _shuffle(dataset: PartitionedDataset, n: int, key_fn,
             key_col=None) -> PartitionedDataset:
    """Hash-partition ``dataset`` by key; batch partitions stay batches.

    ``shuffle_by_key`` appends records to ``parts[hash(key) % n]`` while
    scanning partitions in order, so target partition ``t`` holds — in
    source order — every record whose key hashes to ``t``.  Selecting each
    source batch's matching rows (order-preserving) and concatenating over
    source batches reproduces that exactly; ``key_col`` names the column
    holding ``key_fn``'s values, where the batch has it.
    """
    if not any(isinstance(p, RecordBatch) for p in dataset.partitions):
        return dataset.shuffle_by_key(key_fn, n)
    batches = [RecordBatch.from_records(p) for p in dataset.partitions]
    assigns = [np.array([hash(k) % n for k in batch_keys(b, key_col, key_fn)],
                        dtype=np.int64) for b in batches]
    return PartitionedDataset([
        RecordBatch.concat([b.take(np.flatnonzero(a == t))
                            for b, a in zip(batches, assigns) if len(b)])
        for t in range(n)])


class DataflowOperator(ExecutionOperator):
    """Base for distributed execution operators, bound to one engine."""

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
        return self._run(inputs, [b.payload for b in broadcasts], ctx)

    def _run(self, inputs: Sequence[Channel], bvals: list[Any], ctx) -> Channel:
        raise NotImplementedError

    def _parallelism(self, ctx) -> int:
        return ctx.profile(self.platform).parallelism

    def _emit(self, template: Channel, dataset: PartitionedDataset, ctx,
              cin: float,
              sim_factor: float | None = None,
              bytes_per_record: float | None = None) -> Channel:
        # ``cin`` is threaded through the call (not instance state): shared
        # operator instances re-execute across loop iterations and, through
        # cached plans, concurrent jobs.
        out = Channel(
            self.engine.dataset,
            dataset,
            template.sim_factor if sim_factor is None else sim_factor,
            (template.bytes_per_record if bytes_per_record is None
             else bytes_per_record),
            dataset.count(),
        )
        charge_operator(ctx, self, cin, out.sim_cardinality)
        extra = self.overhead_seconds(ctx.profile(self.platform))
        if extra:
            ctx.meter.charge(extra, f"{self.name}.overhead", category="overhead")
        return out

    def _charge_shuffle(self, ctx, channel: Channel) -> None:
        """Charge network time for shuffling one input's simulated volume."""
        profile = ctx.profile(self.platform)
        mb = channel.sim_cardinality * channel.bytes_per_record / 1e6
        ctx.meter.charge(mb * profile.shuffle_cost_s_per_mb,
                         f"{self.name}.shuffle", category="net")


class DFTextFileSource(DataflowOperator):
    """Parallel file read at the engine's aggregate bandwidth."""

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        vf = ctx.vfs.read(self.logical.path)
        ctx.meter.charge(ctx.profile(self.platform).io_seconds(vf.sim_mb),
                         f"{self.name}.read", category="io")
        dataset = PartitionedDataset.from_records(vf.records,
                                                  self._parallelism(ctx))
        template = Channel(self.engine.dataset, None, vf.sim_factor,
                           vf.bytes_per_record)
        return self._emit(template, dataset, ctx, 0.0)


class DFCollectionSource(DataflowOperator):
    """Parallelize a driver collection into the cluster."""

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        logical = self.logical
        dataset = PartitionedDataset.from_records(logical.data,
                                                  self._parallelism(ctx))
        template = Channel(self.engine.dataset, None, logical.sim_factor,
                           logical.bytes_per_record)
        out = self._emit(template, dataset, ctx, 0.0)
        ctx.meter.charge(ctx.profile(self.platform).transfer_seconds(out.sim_mb),
                         f"{self.name}.parallelize", category="net")
        return out


class DFMap(DataflowOperator):
    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        logical = self.logical
        out = inputs[0].payload.map_partitions(
            lambda part: run_map(logical, part, bvals))
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class DFFlatMap(DataflowOperator):
    op_kind = "flatmap"

    def _run(self, inputs, bvals, ctx):
        logical = self.logical
        out = inputs[0].payload.map_partitions(
            lambda part: run_flat_map(logical, part, bvals))
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class DFMapPartitions(DataflowOperator):
    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        udf = self.logical.udf
        out = inputs[0].payload.map_partitions(
            lambda part: list(udf(list(part), *bvals)))
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class DFZipWithId(DataflowOperator):
    """Unique ids via a per-partition stride (no coordination needed)."""

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        dataset = inputs[0].payload
        stride = dataset.num_partitions
        parts = [
            [(pid + i * stride, record) for i, record in enumerate(part)]
            for pid, part in enumerate(dataset.partitions)
        ]
        return self._emit(inputs[0], PartitionedDataset(parts), ctx,
                          _cin(inputs))


class DFFilter(DataflowOperator):
    op_kind = "filter"

    def _run(self, inputs, bvals, ctx):
        logical = self.logical
        out = inputs[0].payload.map_partitions(
            lambda part: run_filter(logical, part, bvals))
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class DFSample(DataflowOperator):
    """Sampling; the method decides whether the engine scans everything.

    ``random`` models a full-scan take-sample (what MLlib does), while
    ``random_jump`` / ``shuffled_partition`` model ML4all's plugged
    IO-efficient samplers that only touch the sample itself.
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
        data = inputs[0].payload.to_list()
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
        out = PartitionedDataset([sample])
        return self._emit(inputs[0], out, ctx, _cin(inputs), sim_factor=1.0)


class DFDistinct(DataflowOperator):
    op_kind = "distinct"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        key = bind(self.logical.key)
        self._charge_shuffle(ctx, inputs[0])
        shuffled = inputs[0].payload.shuffle_by_key(key or identity,
                                                    self._parallelism(ctx))
        out = shuffled.map_partitions(
            lambda part: distinct_records(part, key))
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class DFSort(DataflowOperator):
    """Global sort via range partitioning (modelled as one shuffle)."""

    op_kind = "sort"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        dataset = inputs[0].payload
        if self.logical.batch_key is not None:
            merged = RecordBatch.concat([RecordBatch.from_records(p)
                                         for p in dataset.partitions])
        else:
            merged = dataset.to_list()
        records = run_sort(self.logical, merged)
        self._charge_shuffle(ctx, inputs[0])
        n = self._parallelism(ctx)
        rows = len(records)
        chunk = max(1, (rows + n - 1) // n)
        if isinstance(records, RecordBatch):
            parts = [records.take(np.arange(i, min(i + chunk, rows)))
                     for i in range(0, rows, chunk)]
        else:
            parts = [records[i:i + chunk] for i in range(0, rows, chunk)]
        return self._emit(inputs[0], PartitionedDataset(parts), ctx,
                          _cin(inputs))


class DFGroupBy(DataflowOperator):
    op_kind = "groupby"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        key = bind(self.logical.key)
        self._charge_shuffle(ctx, inputs[0])
        shuffled = inputs[0].payload.shuffle_by_key(key, self._parallelism(ctx))
        out = shuffled.map_partitions(lambda part: group_by_key(key, part))
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, out.count(),
                                                   inputs[0].sim_factor))


class DFReduceBy(DataflowOperator):
    """Combine locally, shuffle the partial aggregates, reduce."""

    op_kind = "reduceby"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        partial = min(cins[0], cout * profile.parallelism)
        return partial * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        logical = self.logical

        def fold(part):
            return run_reduce(logical, part)

        combined = inputs[0].payload.map_partitions(fold)
        # Only the locally combined partial aggregates cross the network.
        partial_mb = (combined.count() * inputs[0].sim_factor
                      * inputs[0].bytes_per_record / 1e6)
        profile = ctx.profile(self.platform)
        ctx.meter.charge(partial_mb * profile.shuffle_cost_s_per_mb,
                         f"{self.name}.shuffle", category="net")
        shuffled = _shuffle(combined, self._parallelism(ctx),
                            bind(logical.key))
        out = shuffled.map_partitions(fold)
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, out.count(),
                                                   inputs[0].sim_factor))


class DFGlobalReduce(DataflowOperator):
    op_kind = "reduce"

    def _run(self, inputs, bvals, ctx):
        out = fold_records(bind(self.logical.reducer),
                           inputs[0].payload.records())
        return self._emit(inputs[0], PartitionedDataset([out]), ctx,
                          _cin(inputs), sim_factor=1.0)


class DFCount(DataflowOperator):
    op_kind = "count"

    def _run(self, inputs, bvals, ctx):
        n = inputs[0].payload.count()
        return self._emit(inputs[0], PartitionedDataset([[n]]), ctx,
                          _cin(inputs), sim_factor=1.0)


class DFUnion(DataflowOperator):
    op_kind = "union"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        parts = list(a.payload.partitions) + list(b.payload.partitions)
        total_actual = a.payload.count() + b.payload.count()
        total_sim = a.sim_cardinality + b.sim_cardinality
        factor = total_sim / total_actual if total_actual else 1.0
        return self._emit(a, PartitionedDataset(parts), ctx, _cin(inputs),
                          sim_factor=factor,
                          bytes_per_record=union_bytes_per_record(a, b))


class DFIntersect(DataflowOperator):
    op_kind = "intersect"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return sum(cins) * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        n = self._parallelism(ctx)
        self._charge_shuffle(ctx, a)
        self._charge_shuffle(ctx, b)
        sa = a.payload.shuffle_by_key(identity, n)
        sb = b.payload.shuffle_by_key(identity, n)
        return self._emit(a, sa.zip_partitions(sb, intersect_records), ctx,
                          _cin(inputs))


class DFJoin(DataflowOperator):
    """Shuffle hash join: both sides partitioned by key, joined locally."""

    op_kind = "join"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return sum(cins) * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        logical = self.logical
        n = self._parallelism(ctx)
        self._charge_shuffle(ctx, a)
        self._charge_shuffle(ctx, b)
        sa = _shuffle(a.payload, n, bind(logical.left_key),
                      logical.left_key_column)
        sb = _shuffle(b.payload, n, bind(logical.right_key),
                      logical.right_key_column)
        out = sa.zip_partitions(
            sb, lambda pa, pb: run_join(logical, pa, pb))
        factor = logical.output_sim_factor(a.sim_factor, b.sim_factor)
        return self._emit(a, out, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=a.bytes_per_record + b.bytes_per_record)


class DFCartesian(DataflowOperator):
    op_kind = "cartesian"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        replicated = cins[1] if len(cins) > 1 else 0.0
        return replicated * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        right = b.payload.to_list()
        self._charge_shuffle(ctx, b)  # replicate the right side
        out = a.payload.map_partitions(
            lambda part: [(l, r) for l in part for r in right])
        return self._emit(a, out, ctx, _cin(inputs),
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
        self._charge_shuffle(ctx, a)
        self._charge_shuffle(ctx, b)
        pairs = ie_join(a.payload.to_list(), b.payload.to_list(), conditions)
        out = PartitionedDataset.from_records(pairs, self._parallelism(ctx))
        return self._emit(a, out, ctx, _cin(inputs),
                          sim_factor=max(a.sim_factor, b.sim_factor),
                          bytes_per_record=a.bytes_per_record + b.bytes_per_record)


class DFPageRank(DataflowOperator):
    """PageRank as iterated join/aggregate jobs (the m-to-n mapping target).

    Each iteration is a separate distributed job, so the engine pays one
    stage overhead per iteration — exactly why the paper's CrocoPR prefers
    JGraph for small graphs.
    """

    op_kind = "pagerank"

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        return self.logical.iterations * cout * bytes_in / 1e6

    def overhead_seconds(self, profile) -> float:
        return self.logical.iterations * profile.stage_overhead_s

    def _run(self, inputs, bvals, ctx):
        ranks = pagerank_edges(inputs[0].payload.records(),
                               self.logical.iterations, self.logical.damping)
        out = PartitionedDataset.from_records(sorted(ranks.items()),
                                              self._parallelism(ctx))
        # Each iteration shuffles rank contributions (vertex-sized, not
        # edge-sized).
        profile = ctx.profile(self.platform)
        rank_mb = (len(ranks) * inputs[0].sim_factor
                   * inputs[0].bytes_per_record / 1e6)
        ctx.meter.charge(
            self.logical.iterations * rank_mb * profile.shuffle_cost_s_per_mb,
            f"{self.name}.rank-shuffles", category="net")
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class DFTextFileSink(DataflowOperator):
    op_kind = "sink"

    def _run(self, inputs, bvals, ctx):
        ch = inputs[0]
        records = [str(x) for x in ch.payload.records()]
        ctx.vfs.write(self.logical.path, records, ch.sim_factor,
                      ch.bytes_per_record)
        ctx.meter.charge(ctx.profile(self.platform).io_seconds(ch.sim_mb),
                         f"{self.name}.write", category="io")
        # Detach: the sunk channel must not alias a dataset a sibling
        # branch may mutate through (partition lists are mutable).
        copied = PartitionedDataset([list(p) for p in ch.payload.partitions])
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
        records = ch.payload.to_list()
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
