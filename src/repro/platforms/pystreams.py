"""PyStreams: the JavaStreams-analog in-process platform, declared once.

No start-up cost, no parallelism; per-record work is charged at the
platform's tuple cost.  PyStreams is the one-partition
:class:`~repro.platforms.dataflow.CollectionEngine` value :data:`PYSTREAMS`:
every operator it maps is a shared :mod:`~repro.platforms.dataflow`
operator whose one partition is the ``pystreams.collection`` payload — a
list of records or a :class:`~repro.core.batch.RecordBatch`, both with a
length and iterating as records.  Its shuffle rate is zero, so the shared
operators' shuffle charges add nothing.

The classes below are the declarations that really differ: a free
collection source, an index-based sample, a no-op cache, an uncharged
sink, a PageRank without per-iteration job overhead, and the second half
of the GroupBy + Map alternative of ReduceBy.
"""

from __future__ import annotations

from functools import partial

from ..core import operators as ops
from ..core.batch import records_of
from ..core.channels import (Channel, Conversion, HDFS_FILE, LOCAL_FILE,
                             PY_COLLECTION)
from ..core.kernels import bind, fold_groups
from ..core.mappings import OperatorMapping
from ..simulation.profiles import HardwareProfile, PlatformProfile
from .base import Platform, _cin
from .dataflow import (CollectionEngine, DataflowOperator,
                       DFCollectionSink, DFCollectionSource, DFGroupBy,
                       DFPageRank, DFSample)

#: The engine value every pystreams operator and mapping is bound to.
PYSTREAMS = CollectionEngine("pystreams", PY_COLLECTION, PY_COLLECTION)


class PyCollectionSource(DFCollectionSource):
    """Wraps a driver-side collection; effectively free."""

    def _run(self, inputs, bvals, ctx):
        data = list(self.logical.data)
        return Channel(PY_COLLECTION, data, self.logical.sim_factor,
                       self.logical.bytes_per_record, len(data))


class PySample(DFSample):
    """Draws a sample; index-based, so cost scales with the sample size
    whatever the method."""

    op_kind = "sample"


class PyCache(DataflowOperator):
    """No-op: collections are already materialized and reusable."""

    op_kind = "cache"

    def _run(self, inputs, bvals, ctx):
        # Detach rather than alias: the cached payload must survive a
        # sibling branch mutating its container in place.
        return inputs[0].detached()


class PyCollectionSink(DFCollectionSink):
    """Terminal operator: the payload is the job result."""

    op_kind = "sink"

    def _run(self, inputs, bvals, ctx):
        # A plain list, whatever layout the producing operator emitted,
        # that does not alias a container a sibling branch may still
        # mutate through.
        ch = inputs[0]
        if isinstance(ch.payload, list):
            return ch.detached()
        return ch.with_payload(records_of(ch.payload),
                               actual_count=ch.actual_count)


class PyPageRank(DFPageRank):
    """PageRank on plain collections (single-threaded, one job)."""

    def overhead_seconds(self, profile) -> float:
        return 0.0


class PyReduceGroups(DataflowOperator):
    """Folds ``(key, [members])`` quanta into ``(key, aggregate)``.

    The second half of the composite ReduceBy alternative.
    """

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        reducer = bind(self.logical.reducer)
        parts = [fold_groups(reducer, p) for p in self._parts(inputs[0])]
        return self._emit(inputs[0], parts, ctx, _cin(inputs))


def _conversions(profile: PlatformProfile) -> list[Conversion]:
    # File hand-offs run at the single node's disk bandwidth.
    io = profile.io_mb_per_s
    return [
        Conversion(PY_COLLECTION, HDFS_FILE, PYSTREAMS.save_to_file,
                   mb_per_s=io, overhead_s=0.05),
        Conversion(PY_COLLECTION, LOCAL_FILE,
                   partial(PYSTREAMS.save_to_file, file=LOCAL_FILE),
                   mb_per_s=io, overhead_s=0.01),
        Conversion(HDFS_FILE, PY_COLLECTION, PYSTREAMS.read_file,
                   mb_per_s=io, overhead_s=0.05),
        Conversion(LOCAL_FILE, PY_COLLECTION, PYSTREAMS.read_file,
                   mb_per_s=io, overhead_s=0.01),
    ]


#: The JavaStreams analog: zero start-up, single-threaded, cheap per record.
PLATFORM = Platform(
    profile=PlatformProfile(
        name="pystreams",
        startup_s=0.0,
        stage_overhead_s=0.001,
        parallelism=1,
        tuple_cost_s=1.0e-6,
        io_mb_per_s=HardwareProfile().disk_mb_per_s,
        net_mb_per_s=500.0,  # in-process hand-off
        memory_cap_mb=20_480.0,
    ),
    channels=(PY_COLLECTION,),
    conversions=_conversions,
    mappings=(
        *PYSTREAMS.mappings(own={
            ops.CollectionSource: PyCollectionSource,
            ops.Sample: PySample,
            ops.Cache: PyCache,
            ops.PageRank: PyPageRank,
            ops.CollectionSink: PyCollectionSink,
        }),
        # The paper's Figure 4: Reduce-style operators also map to a
        # GroupBy + Map chain (a 1-to-n mapping), after the 1-to-1 one.
        OperatorMapping(
            ops.ReduceBy,
            lambda op: [DFGroupBy(op, PYSTREAMS),
                        PyReduceGroups(op, PYSTREAMS)],
            name="mapping<ReduceBy via GroupBy+Map>"),
    ),
)
