"""PyStreams execution operators: single-threaded in-process pipelines.

The JavaStreams analog.  No start-up cost, no parallelism; per-record work
is charged at the platform's tuple cost.  All operators speak the
``pystreams.collection`` channel, whose payload is a list of records or a
:class:`~repro.core.batch.RecordBatch` — both have a length and iterate as
records.  The operators with a columnar kernel (map, flatmap, filter, sort,
reduce-by, join) pick it per run through ``core.batch.run_*``; the others
read records and emit lists.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from ...algorithms.iejoin import ie_join
from ...algorithms.pagerank import pagerank_edges
from ...core.batch import (records_of, run_filter, run_flat_map, run_join,
                           run_map, run_reduce, run_sort)
from ...core.channels import Channel
from ...core.kernels import (bind, distinct_records, fold_groups,
                             fold_records, group_by_key, intersect_records)
from ..base import (ExecutionOperator, _cin, _group_factor, _sample_seed,
                    charge_operator, union_bytes_per_record)
from .channels import PY_COLLECTION


class PyExecutionOperator(ExecutionOperator):
    """Base for all PyStreams operators (collection in, collection out)."""

    platform = "pystreams"

    def input_descriptors(self):
        arity = self.logical.num_inputs if self.logical is not None else 1
        return [PY_COLLECTION] * arity

    def output_descriptor(self):
        return PY_COLLECTION

    def broadcast_descriptor(self):
        return PY_COLLECTION

    def _emit(self, template: Channel, payload, ctx,
              cin: float,
              sim_factor: float | None = None,
              bytes_per_record: float | None = None) -> Channel:
        """Build the output channel and charge this operator's cost.

        ``cin`` is the simulated input cardinality the charge is based on,
        threaded through the call explicitly: a shared operator instance
        re-executed across loop iterations or — through a cached plan —
        by concurrent jobs must never read charge inputs from mutable
        instance state.
        """
        out = Channel(
            PY_COLLECTION,
            payload,
            template.sim_factor if sim_factor is None else sim_factor,
            (template.bytes_per_record if bytes_per_record is None
             else bytes_per_record),
            len(payload),
        )
        charge_operator(ctx, self, cin, out.sim_cardinality)
        return out

    def execute(self, inputs: Sequence[Channel], broadcasts: Sequence[Channel],
                ctx) -> Channel:
        # UDFs take their broadcast values as plain lists.
        return self._run(inputs, [records_of(b.payload) for b in broadcasts],
                         ctx)

    def _run(self, inputs: Sequence[Channel], bvals: list[Any], ctx) -> Channel:
        raise NotImplementedError


class PyTextFileSource(PyExecutionOperator):
    """Reads a virtual file into a collection (single-node bandwidth)."""

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        vf = ctx.vfs.read(self.logical.path)
        ctx.meter.charge(ctx.profile(self.platform).io_seconds(vf.sim_mb),
                         "pystreams.read", category="io")
        ch = Channel(PY_COLLECTION, list(vf.records), vf.sim_factor,
                     vf.bytes_per_record, len(vf.records))
        return self._emit(ch, ch.payload, ctx, 0.0)


class PyCollectionSource(PyExecutionOperator):
    """Wraps a driver-side collection; effectively free."""

    op_kind = "source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, bvals, ctx):
        data = list(self.logical.data)
        return Channel(PY_COLLECTION, data, self.logical.sim_factor,
                       self.logical.bytes_per_record, len(data))


class PyMap(PyExecutionOperator):
    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        out = run_map(self.logical, inputs[0].payload, bvals)
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class PyFlatMap(PyExecutionOperator):
    op_kind = "flatmap"

    def _run(self, inputs, bvals, ctx):
        out = run_flat_map(self.logical, inputs[0].payload, bvals)
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class PyMapPartitions(PyExecutionOperator):
    """The whole collection is one partition on the driver."""

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        out = list(self.logical.udf(list(inputs[0].payload), *bvals))
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          bytes_per_record=self.logical.bytes_per_record)


class PyZipWithId(PyExecutionOperator):
    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        out = list(enumerate(inputs[0].payload))
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PyFilter(PyExecutionOperator):
    op_kind = "filter"

    def _run(self, inputs, bvals, ctx):
        out = run_filter(self.logical, inputs[0].payload, bvals)
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PySample(PyExecutionOperator):
    """Draws a sample; index-based, so cost scales with the sample size."""

    op_kind = "sample"

    def _run(self, inputs, bvals, ctx):
        data = records_of(inputs[0].payload)
        logical = self.logical
        if logical.size is not None:
            k = min(logical.size, len(data))
        else:
            k = int(len(data) * logical.fraction)
        if logical.method == "first":
            out = list(data[:k])
        else:
            rng = random.Random(_sample_seed(ctx, logical))
            out = [data[rng.randrange(len(data))] for __ in range(k)] if data else []
        return self._emit(inputs[0], out, ctx, _cin(inputs), sim_factor=1.0)


class PyDistinct(PyExecutionOperator):
    op_kind = "distinct"

    def _run(self, inputs, bvals, ctx):
        out = distinct_records(inputs[0].payload, bind(self.logical.key))
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PySort(PyExecutionOperator):
    op_kind = "sort"

    def _run(self, inputs, bvals, ctx):
        out = run_sort(self.logical, inputs[0].payload)
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PyGroupBy(PyExecutionOperator):
    """Groups into ``(key, [members])`` quanta.

    Accepts ``GroupBy`` or ``ReduceBy`` logicals (the latter as the first
    half of the 1-to-n Reduce mapping of the paper's Figure 4).
    """

    op_kind = "groupby"

    def _run(self, inputs, bvals, ctx):
        groups = group_by_key(bind(self.logical.key), inputs[0].payload)
        return self._emit(inputs[0], groups, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, len(groups),
                                                   inputs[0].sim_factor))


class PyReduceGroups(PyExecutionOperator):
    """Folds ``(key, [members])`` quanta into ``(key, aggregate)``.

    The second half of the composite ReduceBy alternative.
    """

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        out = fold_groups(bind(self.logical.reducer), inputs[0].payload)
        return self._emit(inputs[0], out, ctx, _cin(inputs))


class PyReduceBy(PyExecutionOperator):
    op_kind = "reduceby"

    def _run(self, inputs, bvals, ctx):
        out = run_reduce(self.logical, inputs[0].payload)
        return self._emit(inputs[0], out, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, len(out),
                                                   inputs[0].sim_factor))


class PyGlobalReduce(PyExecutionOperator):
    op_kind = "reduce"

    def _run(self, inputs, bvals, ctx):
        out = fold_records(bind(self.logical.reducer), inputs[0].payload)
        return self._emit(inputs[0], out, ctx, _cin(inputs), sim_factor=1.0)


class PyCount(PyExecutionOperator):
    op_kind = "count"

    def _run(self, inputs, bvals, ctx):
        return self._emit(inputs[0], [len(inputs[0].payload)], ctx,
                          _cin(inputs), sim_factor=1.0)


class PyCache(PyExecutionOperator):
    """No-op: collections are already materialized and reusable."""

    op_kind = "cache"

    def _run(self, inputs, bvals, ctx):
        # Detach rather than alias: the cached payload must survive a
        # sibling branch mutating its container in place.
        return inputs[0].detached()


class PyUnion(PyExecutionOperator):
    op_kind = "union"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        payload = list(a.payload) + list(b.payload)
        total_actual = len(payload)
        total_sim = (a.sim_cardinality + b.sim_cardinality)
        factor = total_sim / total_actual if total_actual else 1.0
        return self._emit(a, payload, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=union_bytes_per_record(a, b))


class PyIntersect(PyExecutionOperator):
    op_kind = "intersect"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        out = intersect_records(a.payload, b.payload)
        return self._emit(a, out, ctx, _cin(inputs))


class PyJoin(PyExecutionOperator):
    """Hash equi-join producing ``(left, right)`` pairs."""

    op_kind = "join"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        out = run_join(self.logical, a.payload, b.payload)
        factor = self.logical.output_sim_factor(a.sim_factor, b.sim_factor)
        bpr = a.bytes_per_record + b.bytes_per_record
        return self._emit(a, out, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=bpr)


class PyCartesian(PyExecutionOperator):
    op_kind = "cartesian"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        right = records_of(b.payload)
        out = [(l, r) for l in a.payload for r in right]
        factor = a.sim_factor * b.sim_factor
        bpr = a.bytes_per_record + b.bytes_per_record
        return self._emit(a, out, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=bpr)


class PyIEJoin(PyExecutionOperator):
    """The plugged-in fast inequality join (see :mod:`repro.algorithms.iejoin`)."""

    op_kind = "iejoin"

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        conditions = [(c.left_key, c.op, c.right_key)
                      for c in self.logical.conditions]
        out = ie_join(a.payload, b.payload, conditions)
        factor = max(a.sim_factor, b.sim_factor)
        bpr = a.bytes_per_record + b.bytes_per_record
        return self._emit(a, out, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=bpr)


class PyPageRank(PyExecutionOperator):
    """PageRank on plain collections (single-threaded)."""

    op_kind = "pagerank"

    def _run(self, inputs, bvals, ctx):
        ranks = pagerank_edges(inputs[0].payload,
                               self.logical.iterations, self.logical.damping)
        out = sorted(ranks.items())
        return self._emit(inputs[0], out, ctx, _cin(inputs))


def _sunk(ch: Channel) -> Channel:
    """The channel a sink hands out: a plain list, whatever layout the
    producing operator emitted, that does not alias a container a sibling
    branch may still mutate through."""
    if isinstance(ch.payload, list):
        return ch.detached()
    return ch.with_payload(records_of(ch.payload),
                           actual_count=ch.actual_count)


class PyCollectionSink(PyExecutionOperator):
    """Terminal operator: the payload is the job result."""

    op_kind = "sink"

    def _run(self, inputs, bvals, ctx):
        return _sunk(inputs[0])


class PyTextFileSink(PyExecutionOperator):
    """Writes quanta to a virtual file, one per line."""

    op_kind = "sink"

    def _run(self, inputs, bvals, ctx):
        ch = inputs[0]
        ctx.vfs.write(self.logical.path, [str(x) for x in ch.payload],
                      ch.sim_factor, ch.bytes_per_record)
        ctx.meter.charge(ctx.profile(self.platform).io_seconds(ch.sim_mb),
                         "pystreams.write", category="io")
        return _sunk(ch)
