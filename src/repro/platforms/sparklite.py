"""SparkLite: the Spark analog, declared once.

Wide parallelism, heavy job overheads, caching.  Every operator is a
shared :mod:`~repro.platforms.dataflow` implementation bound to the
:data:`SPARK` engine value; only ``Cache`` (RDD -> cached RDD) is
Spark-specific.
"""

from __future__ import annotations

from ..core import operators as ops
from ..core.channels import (Channel, ChannelDescriptor, Conversion,
                             HDFS_FILE, PY_COLLECTION)
from ..simulation.profiles import HardwareProfile, PlatformProfile
from .base import Platform, charge_operator
from .dataflow import DataflowEngine, DataflowOperator
from .distributed import PartitionedDataset

_HW = HardwareProfile()

#: A lazy-ish distributed dataset.  NOT reusable: feeding several consumers
#: requires caching first (the paper's RDD channel).
SPARK_RDD = ChannelDescriptor("sparklite.rdd", "sparklite", False)

#: A cached (materialized, reusable) RDD.
SPARK_CACHED = ChannelDescriptor("sparklite.cached_rdd", "sparklite", True)

#: A broadcast variable replicated to every worker.
SPARK_BROADCAST = ChannelDescriptor("sparklite.broadcast", "sparklite", True)

#: The engine value every shared dataflow operator, mapping and payload
#: converter of this platform is bound to.
SPARK = DataflowEngine("sparklite", SPARK_RDD, SPARK_BROADCAST)

#: Caching an RDD copies it within cluster memory, far above the network.
CACHE_MB_PER_S = 2000.0
#: Reading a cached RDD as a plain one moves nothing: effectively free.
CACHED_AS_RDD_MB_PER_S = 1e9


class SparkCache(DataflowOperator):
    """Materializes an RDD in cluster memory (``RDD.cache()``)."""

    op_kind = "cache"

    def output_descriptor(self):
        return SPARK_CACHED

    def _run(self, inputs, bvals, ctx):
        ch = inputs[0]
        # The cached copy is detached from the upstream RDD: partition
        # lists are mutable, and the cache outlives this stage.
        copied = PartitionedDataset([list(p) for p in ch.payload.partitions])
        out = Channel(SPARK_CACHED, copied, ch.sim_factor,
                      ch.bytes_per_record, copied.count())
        charge_operator(ctx, self, ch.sim_cardinality, out.sim_cardinality)
        return out


def _recast(descriptor: ChannelDescriptor):
    def convert(channel: Channel, ctx) -> Channel:
        return channel.with_payload(channel.payload, descriptor,
                                    channel.payload.count())

    return convert


def _conversions(profile: PlatformProfile) -> list[Conversion]:
    net, io = profile.net_mb_per_s, profile.io_mb_per_s
    return [
        Conversion(PY_COLLECTION, SPARK_RDD, SPARK.from_collection,
                   mb_per_s=net, overhead_s=0.1, name="spark-parallelize"),
        Conversion(SPARK_RDD, PY_COLLECTION, SPARK.to_collection,
                   mb_per_s=net, overhead_s=0.03, name="spark-collect"),
        Conversion(SPARK_CACHED, PY_COLLECTION, SPARK.to_collection,
                   mb_per_s=net, overhead_s=0.03, name="spark-collect-cached"),
        Conversion(SPARK_RDD, SPARK_CACHED, _recast(SPARK_CACHED),
                   mb_per_s=CACHE_MB_PER_S, overhead_s=0.05,
                   name="spark-cache"),
        Conversion(SPARK_CACHED, SPARK_RDD, _recast(SPARK_RDD),
                   mb_per_s=CACHED_AS_RDD_MB_PER_S, overhead_s=0.0,
                   name="spark-cached-as-rdd"),
        Conversion(PY_COLLECTION, SPARK_BROADCAST, SPARK.to_broadcast,
                   mb_per_s=net / 4, overhead_s=0.01, name="spark-broadcast"),
        Conversion(SPARK_RDD, HDFS_FILE, SPARK.save_to_file,
                   mb_per_s=io, overhead_s=0.2, name="spark-save-hdfs"),
        Conversion(SPARK_CACHED, HDFS_FILE, SPARK.save_to_file,
                   mb_per_s=io, overhead_s=0.2, name="spark-save-hdfs-cached"),
        Conversion(HDFS_FILE, SPARK_RDD, SPARK.read_file,
                   mb_per_s=io, overhead_s=0.2, name="spark-read-hdfs"),
    ]


#: The Spark analog: heavy start-up and per-job overhead, wide parallelism.
PLATFORM = Platform(
    profile=PlatformProfile(
        name="sparklite",
        startup_s=6.0,
        stage_overhead_s=0.35,
        parallelism=_HW.total_cores,
        tuple_cost_s=2.0e-6,
        io_mb_per_s=_HW.aggregate_disk_mb_per_s,
        net_mb_per_s=_HW.network_mb_per_s,
        memory_cap_mb=_HW.nodes * 20_480.0,
        shuffle_cost_s_per_mb=0.008,
    ),
    channels=(SPARK_RDD, SPARK_CACHED, SPARK_BROADCAST),
    conversions=_conversions,
    mappings=SPARK.mappings(own={ops.Cache: SparkCache}),
)
