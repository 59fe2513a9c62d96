"""Platform registration for SparkLite: channels, conversions, mappings."""

from __future__ import annotations

from ...core import operators as ops
from ...core.channels import Channel, Conversion, HDFS_FILE
from ..base import Platform
from ..pystreams.channels import PY_COLLECTION
from .channels import SPARK, SPARK_BROADCAST, SPARK_CACHED, SPARK_RDD
from .ops import SparkCache


def _cache(channel: Channel, ctx) -> Channel:
    return channel.with_payload(channel.payload, SPARK_CACHED,
                                channel.payload.count())


def _uncache(channel: Channel, ctx) -> Channel:
    return channel.with_payload(channel.payload, SPARK_RDD,
                                channel.payload.count())


class SparkLitePlatform(Platform):
    """The Spark analog: wide parallelism, heavy job overheads, caching."""

    name = "sparklite"

    def channels(self):
        return [SPARK_RDD, SPARK_CACHED, SPARK_BROADCAST]

    def conversions(self):
        net = 120.0
        return [
            Conversion(PY_COLLECTION, SPARK_RDD, SPARK.from_collection,
                       mb_per_s=net, overhead_s=0.1, name="spark-parallelize"),
            Conversion(SPARK_RDD, PY_COLLECTION, SPARK.to_collection,
                       mb_per_s=net, overhead_s=0.03, name="spark-collect"),
            Conversion(SPARK_CACHED, PY_COLLECTION, SPARK.to_collection,
                       mb_per_s=net, overhead_s=0.03, name="spark-collect-cached"),
            Conversion(SPARK_RDD, SPARK_CACHED, _cache,
                       mb_per_s=2000.0, overhead_s=0.05, name="spark-cache"),
            Conversion(SPARK_CACHED, SPARK_RDD, _uncache,
                       mb_per_s=1e9, overhead_s=0.0, name="spark-cached-as-rdd"),
            Conversion(PY_COLLECTION, SPARK_BROADCAST, SPARK.to_broadcast,
                       mb_per_s=net / 4, overhead_s=0.01, name="spark-broadcast"),
            Conversion(SPARK_RDD, HDFS_FILE, SPARK.save_to_hdfs,
                       mb_per_s=1000.0, overhead_s=0.2, name="spark-save-hdfs"),
            Conversion(SPARK_CACHED, HDFS_FILE, SPARK.save_to_hdfs,
                       mb_per_s=1000.0, overhead_s=0.2,
                       name="spark-save-hdfs-cached"),
            Conversion(HDFS_FILE, SPARK_RDD, SPARK.read_from_hdfs,
                       mb_per_s=1000.0, overhead_s=0.2, name="spark-read-hdfs"),
        ]

    def mappings(self):
        return SPARK.mappings(own={ops.Cache: SparkCache})
