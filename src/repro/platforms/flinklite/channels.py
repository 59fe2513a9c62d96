"""Channel types of the FlinkLite (Flink-analog) platform."""

from ...core.channels import ChannelDescriptor
from ..dataflow import DataflowEngine

#: A pipelined distributed dataset.  Modelled as reusable: FlinkLite
#: materializes eagerly between our execution stages.
FLINK_DATASET = ChannelDescriptor("flinklite.dataset", "flinklite", True)

#: A broadcast set replicated to every task manager.
FLINK_BROADCAST = ChannelDescriptor("flinklite.broadcast", "flinklite", True)

#: The engine value every shared dataflow operator, mapping and payload
#: converter of this platform is bound to.
FLINK = DataflowEngine("flinklite", FLINK_DATASET, FLINK_BROADCAST)
