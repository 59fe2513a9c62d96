"""GraphChi: the out-of-core single-machine graph platform.

Slots between JGraph and Giraph in the paper's platform spectrum: one
machine like JGraph (no cluster start-up) but disk-streaming like nothing
else — so it survives graphs that out-grow JGraph's heap, at the price of
sequential-disk speed per iteration.  It is a one-partition engine value
that ranks with the shared kernel; its cost declarations (shard seeks,
per-iteration disk streaming) are what make it GraphChi.
"""

from __future__ import annotations

from ...core import operators as ops
from ..base import Platform, _cin
from ..dataflow import CollectionEngine, DFPageRank
from ..pystreams.channels import PY_COLLECTION

#: The engine value (no broadcast channel).
GRAPHCHI = CollectionEngine("graphchi", PY_COLLECTION, None)


class GraphChiPageRank(DFPageRank):
    """PageRank priced as parallel-sliding-windows shard streaming.

    The inherited per-iteration overhead is the shard (re)load seeks.
    """

    def work(self) -> float:
        # Each iteration streams every edge once from disk; the profile's
        # tuple cost models the sequential-read path.
        return 1.0 * self.logical.iterations

    def shuffled_mb(self, profile, cins, cout, bytes_in, bytes_out):
        # For the optimizer: the per-iteration disk streaming, expressed as
        # "moved MB" priced at the profile's shuffle rate (set to the
        # reciprocal of disk bandwidth).
        return self.logical.iterations * cins[0] * bytes_in / 1e6

    def _run(self, inputs, bvals, ctx):
        # No rank shuffles: the shuffle rate prices the disk streaming,
        # which is charged after the operator itself.
        edges = inputs[0]
        out = self._emit(edges, self._ranks(edges, ctx), ctx, _cin(inputs))
        # Streaming the graph from disk each iteration is the defining cost.
        profile = ctx.profile(self.platform)
        ctx.meter.charge(
            self.logical.iterations * profile.io_seconds(edges.sim_mb),
            f"{self.name}.shard-streaming", category="io")
        return out


class GraphChiPlatform(Platform):
    """The GraphChi analog: in-process like JGraph, disk-bound like no one."""

    name = "graphchi"

    def channels(self):
        return []  # consumes/produces driver collections, like JGraph

    def conversions(self):
        return []

    def mappings(self):
        return GRAPHCHI.mappings(own={ops.PageRank: GraphChiPageRank},
                                 only=frozenset({ops.PageRank}))
