"""GraphLite: the Giraph-analog vertex-centric platform.

Heavy start-up, per-superstep synchronisation overhead, wide parallelism.
Only graph-adjacent operators are supported (sources feed the input format,
Map/Filter/Distinct model input-format parsing, Intersect is a
vertex-centric co-grouping of edge sets, PageRank is priced as supersteps);
all but PageRank are the shared :mod:`~repro.platforms.dataflow` operators
bound to :data:`GRAPHLITE`.
"""

from __future__ import annotations

from ...core import operators as ops
from ...core.channels import ChannelDescriptor, Conversion, HDFS_FILE
from ..base import Platform
from ..dataflow import DataflowEngine, DFPageRank
from ..pystreams.channels import PY_COLLECTION

#: The in-memory distributed dataset of the graph platform.
GRAPHLITE_DATASET = ChannelDescriptor("graphlite.dataset", "graphlite", True)

#: The engine value (no dedicated broadcast channel).
GRAPHLITE = DataflowEngine("graphlite", GRAPHLITE_DATASET, GRAPHLITE_DATASET)

#: The subset of the shared dataflow mapping table this engine supports.
_SUPPORTED = frozenset({
    ops.TextFileSource, ops.CollectionSource, ops.Map, ops.Filter,
    ops.Distinct, ops.Intersect, ops.PageRank, ops.CollectionSink,
    ops.TextFileSink,
})


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


class GraphLitePlatform(Platform):
    """The Giraph analog."""

    name = "graphlite"

    def channels(self):
        return [GRAPHLITE_DATASET]

    def conversions(self):
        net = 120.0
        return [
            Conversion(PY_COLLECTION, GRAPHLITE_DATASET,
                       GRAPHLITE.from_collection,
                       mb_per_s=net, overhead_s=0.3, name="graphlite-load"),
            Conversion(GRAPHLITE_DATASET, PY_COLLECTION,
                       GRAPHLITE.to_collection,
                       mb_per_s=net, overhead_s=0.3, name="graphlite-collect"),
            Conversion(HDFS_FILE, GRAPHLITE_DATASET, GRAPHLITE.read_from_hdfs,
                       mb_per_s=1000.0, overhead_s=0.3,
                       name="graphlite-read-hdfs"),
        ]

    def mappings(self):
        return GRAPHLITE.mappings(own={ops.PageRank: GLPageRank},
                                  only=_SUPPORTED)
