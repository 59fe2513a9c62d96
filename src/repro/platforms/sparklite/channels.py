"""Channel types of the SparkLite (Spark-analog) platform."""

from ...core.channels import ChannelDescriptor
from ..dataflow import DataflowEngine

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
