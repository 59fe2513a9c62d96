"""SparkLite's own execution operator (Spark analog).

Every other operator is a shared :mod:`~repro.platforms.dataflow`
implementation bound to the :data:`~.channels.SPARK` engine value; only
``Cache`` (RDD -> cached RDD) is Spark-specific.
"""

from __future__ import annotations

from ...core.channels import Channel
from ..base import charge_operator
from ..dataflow import DataflowOperator
from ..distributed import PartitionedDataset
from .channels import SPARK_CACHED


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
