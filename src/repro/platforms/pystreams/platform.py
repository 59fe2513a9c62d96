"""Platform registration for PyStreams: channels, conversions, mappings."""

from __future__ import annotations

import itertools

from ...core import operators as ops
from ...core.channels import (
    Channel,
    Conversion,
    HDFS_FILE,
    LOCAL_FILE,
)
from ...core.mappings import OperatorMapping
from ..base import Platform
from . import ops as x
from .channels import PY_COLLECTION

_tmp_counter = itertools.count(1)


def _collection_to_file(scheme: str):
    def convert(channel: Channel, ctx) -> Channel:
        path = f"{scheme}://tmp/pystreams-{next(_tmp_counter)}"
        vf = ctx.vfs.write(path, channel.payload, channel.sim_factor,
                           channel.bytes_per_record)
        out_desc = HDFS_FILE if scheme == "hdfs" else LOCAL_FILE
        return Channel(out_desc, path, vf.sim_factor, vf.bytes_per_record,
                       len(vf.records))

    return convert


def _file_to_collection(channel: Channel, ctx) -> Channel:
    vf = ctx.vfs.read(channel.payload)
    return Channel(PY_COLLECTION, list(vf.records), vf.sim_factor,
                   vf.bytes_per_record, len(vf.records))


class PyStreamsPlatform(Platform):
    """The JavaStreams analog: in-process, single-threaded, zero start-up."""

    name = "pystreams"

    def channels(self):
        return [PY_COLLECTION]

    def conversions(self):
        # Single-node disk bandwidth for file hand-offs.
        disk = 100.0
        return [
            Conversion(PY_COLLECTION, HDFS_FILE, _collection_to_file("hdfs"),
                       mb_per_s=disk, overhead_s=0.05),
            Conversion(PY_COLLECTION, LOCAL_FILE, _collection_to_file("file"),
                       mb_per_s=disk, overhead_s=0.01),
            Conversion(HDFS_FILE, PY_COLLECTION, _file_to_collection,
                       mb_per_s=disk, overhead_s=0.05),
            Conversion(LOCAL_FILE, PY_COLLECTION, _file_to_collection,
                       mb_per_s=disk, overhead_s=0.01),
        ]

    def mappings(self):
        m = OperatorMapping
        return [
            m(ops.TextFileSource, lambda op: [x.PyTextFileSource(op)]),
            m(ops.CollectionSource, lambda op: [x.PyCollectionSource(op)]),
            m(ops.Map, lambda op: [x.PyMap(op)]),
            m(ops.FlatMap, lambda op: [x.PyFlatMap(op)]),
            m(ops.Filter, lambda op: [x.PyFilter(op)]),
            m(ops.MapPartitions, lambda op: [x.PyMapPartitions(op)]),
            m(ops.ZipWithId, lambda op: [x.PyZipWithId(op)]),
            m(ops.Sample, lambda op: [x.PySample(op)]),
            m(ops.Distinct, lambda op: [x.PyDistinct(op)]),
            m(ops.Sort, lambda op: [x.PySort(op)]),
            m(ops.GroupBy, lambda op: [x.PyGroupBy(op)]),
            m(ops.ReduceBy, lambda op: [x.PyReduceBy(op)]),
            # The paper's Figure 4: Reduce-style operators also map to a
            # GroupBy + Map chain (a 1-to-n mapping).
            m(ops.ReduceBy, lambda op: [x.PyGroupBy(op), x.PyReduceGroups(op)],
              name="mapping<ReduceBy via GroupBy+Map>"),
            m(ops.GlobalReduce, lambda op: [x.PyGlobalReduce(op)]),
            m(ops.Count, lambda op: [x.PyCount(op)]),
            m(ops.Cache, lambda op: [x.PyCache(op)]),
            m(ops.Union, lambda op: [x.PyUnion(op)]),
            m(ops.Intersect, lambda op: [x.PyIntersect(op)]),
            m(ops.Join, lambda op: [x.PyJoin(op)]),
            m(ops.CartesianProduct, lambda op: [x.PyCartesian(op)]),
            m(ops.IEJoin, lambda op: [x.PyIEJoin(op)]),
            m(ops.PageRank, lambda op: [x.PyPageRank(op)]),
            m(ops.CollectionSink, lambda op: [x.PyCollectionSink(op)]),
            m(ops.TextFileSink, lambda op: [x.PyTextFileSink(op)]),
        ]
