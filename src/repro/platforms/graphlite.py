"""GraphLite: the Giraph-analog vertex-centric platform, declared once.

Heavy start-up, per-superstep synchronisation overhead, wide parallelism.
Only graph-adjacent operators are supported (sources feed the input format,
Map/Filter/Distinct model input-format parsing, Intersect is a
vertex-centric co-grouping of edge sets, PageRank is priced as supersteps);
all but PageRank are the shared :mod:`~repro.platforms.dataflow` operators
bound to :data:`GRAPHLITE`.
"""

from __future__ import annotations

from ..core import operators as ops
from ..core.channels import (ChannelDescriptor, Conversion, HDFS_FILE,
                             PY_COLLECTION)
from ..simulation.profiles import HardwareProfile, PlatformProfile
from .base import Platform
from .dataflow import DataflowEngine, DFPageRank

_HW = HardwareProfile()

#: The in-memory distributed dataset of the graph platform.
GRAPHLITE_DATASET = ChannelDescriptor("graphlite.dataset", "graphlite", True)

#: The engine value (no dedicated broadcast channel).
GRAPHLITE = DataflowEngine("graphlite", GRAPHLITE_DATASET, GRAPHLITE_DATASET)


class GLPageRank(DFPageRank):
    """PageRank priced as Pregel supersteps over the shared kernel.

    The inherited per-iteration overhead is one synchronisation barrier
    per superstep; the inherited rank shuffles record nothing at this
    profile's shuffle rate of zero.
    """

    def work(self) -> float:
        # Vertex-centric message passing is far cheaper per edge-iteration
        # than the generic join/aggregate emulation (the logical default).
        return 0.3 * self.logical.iterations


def _conversions(profile: PlatformProfile) -> list[Conversion]:
    net, io = profile.net_mb_per_s, profile.io_mb_per_s
    return [
        Conversion(PY_COLLECTION, GRAPHLITE_DATASET, GRAPHLITE.from_collection,
                   mb_per_s=net, overhead_s=0.3, name="graphlite-load"),
        Conversion(GRAPHLITE_DATASET, PY_COLLECTION, GRAPHLITE.to_collection,
                   mb_per_s=net, overhead_s=0.3, name="graphlite-collect"),
        Conversion(HDFS_FILE, GRAPHLITE_DATASET, GRAPHLITE.read_file,
                   mb_per_s=io, overhead_s=0.3, name="graphlite-read-hdfs"),
    ]


#: The Giraph analog: very heavy start-up, per-superstep synchronisation.
PLATFORM = Platform(
    profile=PlatformProfile(
        name="graphlite",
        startup_s=20.0,
        stage_overhead_s=0.8,
        parallelism=_HW.total_cores,
        tuple_cost_s=2.4e-6,
        io_mb_per_s=_HW.aggregate_disk_mb_per_s,
        net_mb_per_s=_HW.network_mb_per_s,
        memory_cap_mb=_HW.nodes * 20_480.0,
    ),
    channels=(GRAPHLITE_DATASET,),
    conversions=_conversions,
    # The subset of the shared mapping table this engine supports.
    mappings=GRAPHLITE.mappings(
        own={ops.PageRank: GLPageRank},
        only=frozenset({ops.TextFileSource, ops.CollectionSource, ops.Map,
                        ops.Filter, ops.Distinct, ops.Intersect,
                        ops.PageRank, ops.CollectionSink,
                        ops.TextFileSink})),
)
