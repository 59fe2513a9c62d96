"""GraphLite: the Giraph-analog vertex-centric platform.

Heavy start-up, per-superstep synchronisation overhead, wide parallelism.
Only graph-adjacent operators are supported (sources feed the input format,
Map/Filter/Distinct model input-format parsing, Intersect is a
vertex-centric co-grouping of edge sets, PageRank runs as a real Pregel
program); all but PageRank are the shared
:mod:`~repro.platforms.dataflow` operators bound to :data:`GRAPHLITE`.
"""

from __future__ import annotations

from ...core import operators as ops
from ...core.channels import ChannelDescriptor, Conversion, HDFS_FILE
from ..base import Platform, _cin
from ..dataflow import DataflowEngine, DataflowOperator
from ..distributed import PartitionedDataset
from ..pystreams.channels import PY_COLLECTION
from .engine import PregelEngine

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


class GLPageRank(DataflowOperator):
    """PageRank as supersteps on the Pregel engine."""

    op_kind = "pagerank"

    def work(self) -> float:
        # Vertex-centric message passing is far cheaper per edge-iteration
        # than the generic join/aggregate emulation (the logical default).
        return 0.3 * self.logical.iterations

    def overhead_seconds(self, profile) -> float:
        # One synchronisation barrier per superstep.
        return self.logical.iterations * profile.stage_overhead_s

    def _run(self, inputs, bvals, ctx):
        engine = PregelEngine(num_partitions=self._parallelism(ctx))
        ranks = engine.pagerank(inputs[0].payload.records(),
                                self.logical.iterations, self.logical.damping)
        out = PartitionedDataset.from_records(sorted(ranks.items()),
                                              self._parallelism(ctx))
        return self._emit(inputs[0], out, ctx, _cin(inputs))


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
