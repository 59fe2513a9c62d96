"""JGraph: the in-process graph-library platform, declared once.

Like the paper's JGraph, it lives inside the driver process: it consumes
and produces plain PyStreams collections, has no start-up cost and no
parallelism, and fails with a simulated out-of-memory beyond its small
heap — which is why Rheem only picks it for modest graphs.  It is a
one-partition engine value that ranks with the shared kernel; its cost
declarations are what make it JGraph.  It owns no channel and no
conversion.
"""

from __future__ import annotations

from ..core import operators as ops
from ..core.channels import PY_COLLECTION
from ..simulation.profiles import HardwareProfile, PlatformProfile
from .base import Platform
from .dataflow import CollectionEngine, DFPageRank

#: The engine value (no broadcast channel).
JGRAPH = CollectionEngine("jgraph", PY_COLLECTION, None)


class JGraphPageRank(DFPageRank):
    """PageRank priced as an in-heap adjacency-list traversal."""

    #: In-heap adjacency objects cost several times the wire size per edge
    #: (boxed vertices, list headers) — this is what makes the library die
    #: on graphs the distributed platforms still handle.
    OBJECT_OVERHEAD = 6.0

    def work(self) -> float:
        # Adjacency-list traversal beats generic record processing, but is
        # still single-threaded (the profile's parallelism is 1).
        return 0.15 * self.logical.iterations

    def overhead_seconds(self, profile) -> float:
        return 0.0

    def memory_demand_mb(self, cins, cout, bytes_in, bytes_out):
        return cins[0] * bytes_in * self.OBJECT_OVERHEAD / 1e6

    def _run(self, inputs, bvals, ctx):
        # Building the whole graph in the driver heap is the library's
        # weak spot: enforce the simulated memory ceiling on the input.
        ctx.cluster.check_memory(self.platform,
                                 inputs[0].sim_mb * self.OBJECT_OVERHEAD)
        return super()._run(inputs, bvals, ctx)


#: The JGraph analog: in-process graph library, small memory ceiling.
PLATFORM = Platform(
    profile=PlatformProfile(
        name="jgraph",
        startup_s=0.0,
        stage_overhead_s=0.002,
        parallelism=1,
        tuple_cost_s=1.5e-7,
        io_mb_per_s=HardwareProfile().disk_mb_per_s,
        net_mb_per_s=500.0,
        memory_cap_mb=2_048.0,
    ),
    mappings=JGRAPH.mappings(own={ops.PageRank: JGraphPageRank},
                             only=frozenset({ops.PageRank})),
)
