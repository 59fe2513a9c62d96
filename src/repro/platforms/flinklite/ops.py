"""FlinkLite's own execution operator (Flink analog).

Every other operator is a shared :mod:`~repro.platforms.dataflow`
implementation bound to the :data:`~.channels.FLINK` engine value: lighter
dispatch overheads, slightly different per-record constants, and no cache
distinction (datasets are reusable here).
"""

from __future__ import annotations

from ..dataflow import DataflowOperator
from ..distributed import PartitionedDataset


class FlinkCache(DataflowOperator):
    """No-op: FlinkLite datasets are already reusable."""

    op_kind = "cache"

    def _run(self, inputs, bvals, ctx):
        # Detach rather than alias: the cached dataset must survive a
        # sibling branch mutating partition lists in place.
        ch = inputs[0]
        copied = PartitionedDataset([list(p) for p in ch.payload.partitions])
        return ch.with_payload(copied, actual_count=ch.actual_count)
