"""GraphChi: the out-of-core single-machine graph platform, declared once.

Slots between JGraph and Giraph in the paper's platform spectrum: one
machine like JGraph (no cluster start-up) but disk-streaming like nothing
else — so it survives graphs that out-grow JGraph's heap, at the price of
sequential-disk speed per iteration.  It is a one-partition engine value
that ranks with the shared kernel; its cost declarations (shard seeks,
per-iteration disk streaming) are what make it GraphChi.  Like JGraph it
consumes and produces driver collections: no channel, no conversion.
"""

from __future__ import annotations

from ..core import operators as ops
from ..core.channels import PY_COLLECTION
from ..simulation.profiles import HardwareProfile, PlatformProfile
from .base import Platform, _cin
from .dataflow import CollectionEngine, DFPageRank

_HW = HardwareProfile()

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


#: The GraphChi analog: ONE machine, out-of-core shard streaming.  The CPU
#: side uses the few local cores; the defining cost is re-reading the edge
#: shards from disk every iteration (priced via shuffle rate = 1/disk
#: bandwidth for the optimizer's estimate).
PLATFORM = Platform(
    profile=PlatformProfile(
        name="graphchi",
        startup_s=1.0,
        stage_overhead_s=0.1,
        parallelism=4,
        tuple_cost_s=4.0e-7,
        io_mb_per_s=_HW.disk_mb_per_s,
        net_mb_per_s=500.0,
        memory_cap_mb=1_000_000.0,  # out-of-core: disk is the limit
        shuffle_cost_s_per_mb=1.0 / _HW.disk_mb_per_s,
    ),
    mappings=GRAPHCHI.mappings(own={ops.PageRank: GraphChiPageRank},
                               only=frozenset({ops.PageRank})),
)
