"""Platform registration for FlinkLite: channels, conversions, mappings."""

from __future__ import annotations

from ...core import operators as ops
from ...core.channels import Conversion, HDFS_FILE
from ..base import Platform
from ..pystreams.channels import PY_COLLECTION
from .channels import FLINK, FLINK_BROADCAST, FLINK_DATASET
from .ops import FlinkCache


class FlinkLitePlatform(Platform):
    """The Flink analog: pipelined dataflow with lighter dispatch."""

    name = "flinklite"

    def channels(self):
        return [FLINK_DATASET, FLINK_BROADCAST]

    def conversions(self):
        net = 120.0
        return [
            Conversion(PY_COLLECTION, FLINK_DATASET, FLINK.from_collection,
                       mb_per_s=net, overhead_s=0.08, name="flink-from-collection"),
            Conversion(FLINK_DATASET, PY_COLLECTION, FLINK.to_collection,
                       mb_per_s=net, overhead_s=0.025, name="flink-collect"),
            Conversion(PY_COLLECTION, FLINK_BROADCAST, FLINK.to_broadcast,
                       mb_per_s=net / 4, overhead_s=0.01, name="flink-broadcast"),
            Conversion(FLINK_DATASET, HDFS_FILE, FLINK.save_to_hdfs,
                       mb_per_s=1000.0, overhead_s=0.15, name="flink-save-hdfs"),
            Conversion(HDFS_FILE, FLINK_DATASET, FLINK.read_from_hdfs,
                       mb_per_s=1000.0, overhead_s=0.15, name="flink-read-hdfs"),
        ]

    def mappings(self):
        return FLINK.mappings(own={ops.Cache: FlinkCache})
