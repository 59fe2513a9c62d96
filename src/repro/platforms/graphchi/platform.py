"""GraphChi: the out-of-core single-machine graph platform.

Slots between JGraph and Giraph in the paper's platform spectrum: one
machine like JGraph (no cluster start-up) but disk-streaming like nothing
else — so it survives graphs that out-grow JGraph's heap, at the price of
sequential-disk speed per iteration.  It ranks with the shared kernel;
its cost declarations (shard seeks, per-iteration disk streaming) are what
make it GraphChi.
"""

from __future__ import annotations

from ...algorithms.pagerank import pagerank_edges
from ...core import operators as ops
from ...core.channels import Channel
from ...core.mappings import OperatorMapping
from ..base import ExecutionOperator, Platform, charge_operator
from ..pystreams.channels import PY_COLLECTION


class GraphChiPageRank(ExecutionOperator):
    """PageRank priced as parallel-sliding-windows shard streaming."""

    platform = "graphchi"
    op_kind = "pagerank"

    def work(self) -> float:
        # Each iteration streams every edge once from disk; the profile's
        # tuple cost models the sequential-read path.
        return 1.0 * self.logical.iterations

    def overhead_seconds(self, profile) -> float:
        # Shard (re)load seeks, per iteration.
        return self.logical.iterations * profile.stage_overhead_s

    def input_descriptors(self):
        return [PY_COLLECTION]

    def output_descriptor(self):
        return PY_COLLECTION

    def execute(self, inputs, broadcasts, ctx):
        edges_channel = inputs[0]
        ranks = sorted(pagerank_edges(edges_channel.payload,
                                      self.logical.iterations,
                                      self.logical.damping).items())
        out = Channel(PY_COLLECTION, ranks, edges_channel.sim_factor,
                      edges_channel.bytes_per_record, len(ranks))
        charge_operator(ctx, self, edges_channel.sim_cardinality,
                        out.sim_cardinality)
        extra = self.overhead_seconds(ctx.profile(self.platform))
        ctx.meter.charge(extra, f"{self.name}.shard-seeks",
                         category="overhead")
        # Streaming the graph from disk each iteration is the defining cost.
        profile = ctx.profile(self.platform)
        ctx.meter.charge(
            self.logical.iterations * profile.io_seconds(edges_channel.sim_mb),
            f"{self.name}.shard-streaming", category="io")
        return out

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        # For the optimizer: the per-iteration disk streaming, expressed as
        # "moved MB" priced at the profile's shuffle rate (set to the
        # reciprocal of disk bandwidth).
        return self.logical.iterations * cins[0] * bytes_in / 1e6


class GraphChiPlatform(Platform):
    """The GraphChi analog: in-process like JGraph, disk-bound like no one."""

    name = "graphchi"

    def channels(self):
        return []  # consumes/produces driver collections, like JGraph

    def conversions(self):
        return []

    def mappings(self):
        return [OperatorMapping(ops.PageRank,
                                lambda op: [GraphChiPageRank(op)])]
