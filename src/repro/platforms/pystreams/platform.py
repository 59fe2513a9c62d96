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
        # Imported here: the shared operators' module reads this package's
        # channel while the package initializes.
        from ..dataflow import DFGroupBy
        from .ops import (PYSTREAMS, PyCache, PyCollectionSink,
                          PyCollectionSource, PyPageRank, PyReduceGroups,
                          PySample)

        return [
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
        ]
