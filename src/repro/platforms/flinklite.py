"""FlinkLite: the Flink analog, declared once.

Pipelined dataflow with lighter dispatch overheads, slightly different
per-record constants, and no cache distinction (datasets are reusable
here).  Every operator but its no-op ``Cache`` is a shared
:mod:`~repro.platforms.dataflow` implementation bound to the :data:`FLINK`
engine value.
"""

from __future__ import annotations

from ..core import operators as ops
from ..core.channels import (ChannelDescriptor, Conversion, HDFS_FILE,
                             PY_COLLECTION)
from ..simulation.profiles import HardwareProfile, PlatformProfile
from .base import Platform
from .dataflow import DataflowEngine, DataflowOperator
from .distributed import PartitionedDataset

_HW = HardwareProfile()

#: A pipelined distributed dataset.  Modelled as reusable: FlinkLite
#: materializes eagerly between our execution stages.
FLINK_DATASET = ChannelDescriptor("flinklite.dataset", "flinklite", True)

#: A broadcast set replicated to every task manager.
FLINK_BROADCAST = ChannelDescriptor("flinklite.broadcast", "flinklite", True)

#: The engine value every shared dataflow operator, mapping and payload
#: converter of this platform is bound to.
FLINK = DataflowEngine("flinklite", FLINK_DATASET, FLINK_BROADCAST)


class FlinkCache(DataflowOperator):
    """No-op: FlinkLite datasets are already reusable."""

    op_kind = "cache"

    def _run(self, inputs, bvals, ctx):
        # Detach rather than alias: the cached dataset must survive a
        # sibling branch mutating partition lists in place.
        ch = inputs[0]
        copied = PartitionedDataset([list(p) for p in ch.payload.partitions])
        return ch.with_payload(copied, actual_count=ch.actual_count)


def _conversions(profile: PlatformProfile) -> list[Conversion]:
    net, io = profile.net_mb_per_s, profile.io_mb_per_s
    return [
        Conversion(PY_COLLECTION, FLINK_DATASET, FLINK.from_collection,
                   mb_per_s=net, overhead_s=0.08,
                   name="flink-from-collection"),
        Conversion(FLINK_DATASET, PY_COLLECTION, FLINK.to_collection,
                   mb_per_s=net, overhead_s=0.025, name="flink-collect"),
        Conversion(PY_COLLECTION, FLINK_BROADCAST, FLINK.to_broadcast,
                   mb_per_s=net / 4, overhead_s=0.01, name="flink-broadcast"),
        Conversion(FLINK_DATASET, HDFS_FILE, FLINK.save_to_file,
                   mb_per_s=io, overhead_s=0.15, name="flink-save-hdfs"),
        Conversion(HDFS_FILE, FLINK_DATASET, FLINK.read_file,
                   mb_per_s=io, overhead_s=0.15, name="flink-read-hdfs"),
    ]


#: The Flink analog: lighter dispatch, pipelined, slightly different
#: constants.
PLATFORM = Platform(
    profile=PlatformProfile(
        name="flinklite",
        startup_s=4.5,
        stage_overhead_s=0.2,
        parallelism=_HW.total_cores,
        tuple_cost_s=1.7e-6,
        io_mb_per_s=_HW.aggregate_disk_mb_per_s,
        net_mb_per_s=_HW.network_mb_per_s,
        memory_cap_mb=_HW.nodes * 20_480.0,
        shuffle_cost_s_per_mb=0.006,
    ),
    channels=(FLINK_DATASET, FLINK_BROADCAST),
    conversions=_conversions,
    mappings=FLINK.mappings(own={ops.Cache: FlinkCache}),
)
