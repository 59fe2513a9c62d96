"""Vectorized PyStreams operators: one columnar kernel per record batch.

Registered only when the context is built with ``config={"vectorize":
True}``; they then REPLACE the per-record operators for the batch-capable
logical types.  Every operator charges exactly what its per-record twin
charges (same ``op_kind``, same ``work()``, same cardinalities and record
widths), and every kernel is record-wise equivalent to the per-record
implementation — falling back to the scalar UDF inside the batch when the
logical operator declares no vectorized twin — so results are bit-for-bit
identical to the legacy engine.
"""

from __future__ import annotations

from typing import Any, Sequence

from ...core.batch import (
    RecordBatch,
    apply_distinct,
    apply_filter,
    apply_flatmap,
    apply_join,
    apply_map,
    apply_reduce,
    apply_sort,
)
from ...core.channels import Channel
from ...core.kernels import bind, fold_groups, group_by_key
from ..base import (ExecutionOperator, _cin, _group_factor, charge_operator,
                    union_bytes_per_record)
from .channels import PY_BATCH, PY_COLLECTION


def _columnar(source: Any, records) -> RecordBatch:
    """The cached columnar form of a source payload (built on first use).

    Cached on the source object (a virtual file or a logical collection
    source) itself.  Batches are immutable, so loop re-executions, crash
    retries and repeated runs of the same plan can all share the one batch
    — the engine-side analog of a columnar file format amortizing its
    decode cost.
    """
    batch = getattr(source, "_columnar_batch", None)
    if batch is None:
        batch = RecordBatch.from_records(records)
        source._columnar_batch = batch
    return batch


class PyBatchOperator(ExecutionOperator):
    """Base for the batch operators (record batch in, record batch out)."""

    platform = "pystreams"

    def input_descriptors(self):
        arity = self.logical.num_inputs if self.logical is not None else 1
        return [PY_BATCH] * arity

    def output_descriptor(self):
        return PY_BATCH

    def broadcast_descriptor(self):
        # Broadcast side inputs stay plain collections; batch kernels that
        # take broadcasts receive them as lists, like the scalar ops.
        return PY_COLLECTION

    def _emit(self, template: Channel, batch: RecordBatch, ctx,
              cin: float,
              sim_factor: float | None = None,
              bytes_per_record: float | None = None) -> Channel:
        # Mirrors the per-record ``PyExecutionOperator._emit`` exactly;
        # ``cin`` is threaded through the call, never instance state.
        out = Channel(
            PY_BATCH,
            batch,
            template.sim_factor if sim_factor is None else sim_factor,
            (template.bytes_per_record if bytes_per_record is None
             else bytes_per_record),
            len(batch),
        )
        charge_operator(ctx, self, cin, out.sim_cardinality)
        return out

    def execute(self, inputs: Sequence[Channel], broadcasts: Sequence[Channel],
                ctx) -> Channel:
        return self._run(inputs, [b.payload for b in broadcasts], ctx)

    def _run(self, inputs: Sequence[Channel], bvals: list[Any], ctx) -> Channel:
        raise NotImplementedError


class PyBatchTextFileSource(PyBatchOperator):
    """Reads a virtual file as one columnar batch of lines.

    Lines are columnarized once per virtual file (see ``_columnar``);
    charges are identical to ``PyTextFileSource``.
    """

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        vf = ctx.vfs.read(self.logical.path)
        ctx.meter.charge(ctx.profile(self.platform).io_seconds(vf.sim_mb),
                         "pystreams.read", category="io")
        batch = _columnar(vf, vf.records)
        ch = Channel(PY_BATCH, batch, vf.sim_factor, vf.bytes_per_record,
                     len(batch))
        return self._emit(ch, batch, ctx, 0.0)


class PyBatchCollectionSource(PyBatchOperator):
    """Wraps a driver-side collection as one cached columnar batch.

    The scalar twin copies the collection on every run to guard against
    downstream mutation; the batch is immutable, so sharing it is safe.
    Like ``PyCollectionSource``, it charges nothing.
    """

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        logical = self.logical
        batch = _columnar(logical, logical.data)
        return Channel(PY_BATCH, batch, logical.sim_factor,
                       logical.bytes_per_record, len(batch))


class PyBatchMap(PyBatchOperator):
    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        out = apply_map(self.logical, inputs[0].payload, bvals)
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class PyBatchFlatMap(PyBatchOperator):
    op_kind = "flatmap"

    def _run(self, inputs, bvals, ctx):
        out = apply_flatmap(self.logical, inputs[0].payload, bvals)
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class PyBatchFilter(PyBatchOperator):
    op_kind = "filter"

    def _run(self, inputs, bvals, ctx):
        out = apply_filter(self.logical, inputs[0].payload, bvals)
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PyBatchDistinct(PyBatchOperator):
    op_kind = "distinct"

    def _run(self, inputs, bvals, ctx):
        out = apply_distinct(self.logical, inputs[0].payload)
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PyBatchSort(PyBatchOperator):
    op_kind = "sort"

    def _run(self, inputs, bvals, ctx):
        out = apply_sort(self.logical, inputs[0].payload)
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PyBatchGroupBy(PyBatchOperator):
    """Batch twin of ``PyGroupBy`` (also the first half of the 1-to-n
    ReduceBy alternative)."""

    op_kind = "groupby"

    def _run(self, inputs, bvals, ctx):
        out = RecordBatch.from_records(group_by_key(
            bind(self.logical.key), inputs[0].payload.to_records()))
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, len(out),
                                                   inputs[0].sim_factor))


class PyBatchReduceGroups(PyBatchOperator):
    """Batch twin of ``PyReduceGroups`` (second half of the 1-to-n
    alternative)."""

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        out = fold_groups(bind(self.logical.reducer),
                          inputs[0].payload.to_records())
        return self._emit(inputs[0], RecordBatch.from_records(out), ctx,
                          _cin(inputs))


class PyBatchReduceBy(PyBatchOperator):
    op_kind = "reduceby"

    def _run(self, inputs, bvals, ctx):
        out = apply_reduce(self.logical, inputs[0].payload)
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, len(out),
                                                   inputs[0].sim_factor))


class PyBatchUnion(PyBatchOperator):
    op_kind = "union"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        out = RecordBatch.concat([a.payload, b.payload])
        total_actual = len(out)
        total_sim = a.sim_cardinality + b.sim_cardinality
        factor = total_sim / total_actual if total_actual else 1.0
        return self._emit(a, out, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=union_bytes_per_record(a, b))


class PyBatchJoin(PyBatchOperator):
    op_kind = "join"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        out = apply_join(self.logical, a.payload, b.payload)
        factor = self.logical.output_sim_factor(a.sim_factor, b.sim_factor)
        bpr = a.bytes_per_record + b.bytes_per_record
        return self._emit(a, out, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=bpr)
