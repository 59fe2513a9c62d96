"""JGraph: the in-process graph-library platform.

Like the paper's JGraph, it lives inside the driver process: it consumes
and produces plain PyStreams collections, has no start-up cost and no
parallelism, and fails with a simulated out-of-memory beyond its small
heap — which is why Rheem only picks it for modest graphs.  It ranks with
the shared kernel; its cost declarations are what make it JGraph.
"""

from __future__ import annotations

from ...algorithms.pagerank import pagerank_edges
from ...core import operators as ops
from ...core.channels import Channel
from ...core.mappings import OperatorMapping
from ..base import ExecutionOperator, Platform, charge_operator
from ..pystreams.channels import PY_COLLECTION


class JGraphPageRank(ExecutionOperator):
    """PageRank priced as an in-heap adjacency-list traversal."""

    platform = "jgraph"
    op_kind = "pagerank"

    #: In-heap adjacency objects cost several times the wire size per edge
    #: (boxed vertices, list headers) — this is what makes the library die
    #: on graphs the distributed platforms still handle.
    OBJECT_OVERHEAD = 6.0

    def work(self) -> float:
        # Adjacency-list traversal beats generic record processing, but is
        # still single-threaded (the profile's parallelism is 1).
        return 0.15 * self.logical.iterations

    def memory_demand_mb(self, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in * self.OBJECT_OVERHEAD / 1e6

    def input_descriptors(self):
        return [PY_COLLECTION]

    def output_descriptor(self):
        return PY_COLLECTION

    def execute(self, inputs, broadcasts, ctx):
        edges_channel = inputs[0]
        # Building the whole graph in the driver heap is the library's
        # weak spot: enforce the simulated memory ceiling on the input.
        ctx.cluster.check_memory(self.platform,
                                 edges_channel.sim_mb * self.OBJECT_OVERHEAD)
        ranks = sorted(pagerank_edges(edges_channel.payload,
                                      self.logical.iterations,
                                      self.logical.damping).items())
        out = Channel(PY_COLLECTION, ranks, edges_channel.sim_factor,
                      edges_channel.bytes_per_record, len(ranks))
        charge_operator(ctx, self, edges_channel.sim_cardinality,
                        out.sim_cardinality)
        return out


class JGraphPlatform(Platform):
    """The JGraph analog: no channels of its own, one graph operator."""

    name = "jgraph"

    def channels(self):
        return []

    def conversions(self):
        return []

    def mappings(self):
        return [OperatorMapping(ops.PageRank, lambda op: [JGraphPageRank(op)])]
