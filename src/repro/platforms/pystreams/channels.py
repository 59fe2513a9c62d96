"""Channel types of the PyStreams (JavaStreams-analog) platform."""

from ...core.channels import ChannelDescriptor

#: A driver-side, in-process materialized collection: a list of records or
#: one immutable :class:`~repro.core.batch.RecordBatch` of them.  Reusable:
#: any number of consumers may iterate it (the paper's Java Collection
#: channel).
PY_COLLECTION = ChannelDescriptor("pystreams.collection", "pystreams", True)
