"""Pgres execution operators: single-node relational query processing.

Selections use ordered indexes when the logical filter declares a column
range and the relation is an unmodified base table; joins are hash joins;
inequality joins fall back to a nested loop whose cost is the product of the
input cardinalities — the weakness BigDansing's plugged IEJoin works around
on the other platforms.

A relation's rows are a list or a :class:`~repro.core.batch.RecordBatch`;
the operators with a columnar kernel (projection, selection, join, sort,
group-by aggregate) pick it per run through ``core.batch.run_*``.
"""

from __future__ import annotations

from typing import Sequence

from ...core.channels import Channel
from ...core.cost import CostEstimate
from ...core.batch import (records_of, run_filter, run_join, run_map,
                           run_reduce, run_sort)
from ...core.kernels import (bind, distinct_records, fold_records,
                             group_by_key, intersect_records)
from ..base import (ExecutionOperator, _cin, _group_factor, charge_operator,
                    union_bytes_per_record)
from ..pystreams.channels import PY_COLLECTION
from .channels import PG_RELATION, Relation


class PgExecutionOperator(ExecutionOperator):
    """Base for Pgres operators (relation in, relation out)."""

    platform = "pgres"

    def input_descriptors(self):
        arity = self.logical.num_inputs if self.logical is not None else 1
        return [PG_RELATION] * arity

    def output_descriptor(self):
        return PG_RELATION

    def _emit(self, template: Channel, rows, ctx,
              cin: float,
              base_table: str | None = None,
              sim_factor: float | None = None,
              bytes_per_record: float | None = None,
              charge: bool = True,
              op_kind: str | None = None) -> Channel:
        # ``cin`` is threaded through the call (not instance state): shared
        # operator instances re-execute across loop iterations and, through
        # cached plans, concurrent jobs.  ``op_kind`` overrides the charged
        # kind when the run resolved it dynamically (index vs sequential
        # scan).
        out = Channel(
            PG_RELATION,
            Relation(rows, base_table),
            template.sim_factor if sim_factor is None else sim_factor,
            (template.bytes_per_record if bytes_per_record is None
             else bytes_per_record),
            len(rows),
        )
        if charge:
            charge_operator(ctx, self, cin, out.sim_cardinality, kind=op_kind)
        return out

    def execute(self, inputs: Sequence[Channel], broadcasts: Sequence[Channel],
                ctx) -> Channel:
        if broadcasts:
            raise ValueError("pgres operators do not accept broadcast inputs")
        return self._run(inputs, ctx)

    def _run(self, inputs: Sequence[Channel], ctx) -> Channel:
        raise NotImplementedError


class PgTableSource(PgExecutionOperator):
    """Scans (and optionally projects) a catalog table.

    Projection pushdown shrinks the per-row bytes — which is exactly what
    makes "project in Postgres, ship less data" win Figure 10(a).
    """

    op_kind = "table_source"

    def input_descriptors(self):
        return []

    def _run(self, inputs, ctx):
        table = ctx.pgres.table(self.logical.table)
        projection = self.logical.projection
        if projection:
            rows = [{c: r[c] for c in projection} for r in table.rows]
            base = None  # projected rows are derived
        else:
            rows = list(table.rows)
            base = table.name
        template = Channel(PG_RELATION, None, table.sim_factor,
                           table.bytes_per_row)
        return self._emit(template, rows, ctx, 0.0, base_table=base,
                          bytes_per_record=table.bytes_for_projection(projection))


class PgFilter(PgExecutionOperator):
    """WHERE clause: index scan when possible, else parallel seq scan.

    Whether the index applies is a pure function of the inputs and the
    catalog — resolved per run and threaded into the charge, never stored
    on the (shared, possibly concurrently executing) operator instance.
    """

    op_kind = "filter"

    def observed_op_kind(self, inputs, ctx) -> str:
        relation: Relation = inputs[0].payload
        if self._index(relation, ctx) is not None:
            return "filter_index"
        return "filter"

    def _index(self, relation: Relation, ctx):
        logical = self.logical
        if logical.column is None or relation.base_table is None:
            return None
        if ctx.pgres is None or not ctx.pgres.has_table(relation.base_table):
            return None
        return ctx.pgres.index_for(relation.base_table, logical.column)

    def _run(self, inputs, ctx):
        relation: Relation = inputs[0].payload
        index = self._index(relation, ctx)
        logical = self.logical
        if index is not None:
            table = ctx.pgres.table(relation.base_table)
            row_ids = index.range_row_ids(logical.low, logical.high)
            rows = [table.rows[i] for i in row_ids]
            kind = "filter_index"
        else:
            rows = run_filter(logical, relation.rows)
            kind = "filter"
        return self._emit(inputs[0], rows, ctx, _cin(inputs), op_kind=kind)


class PgProjection(PgExecutionOperator):
    """SELECT-list expressions (the Map operator on Pgres)."""

    op_kind = "map"

    def _run(self, inputs, ctx):
        rows = run_map(self.logical, inputs[0].payload.rows)
        return self._emit(inputs[0], rows, ctx, _cin(inputs))


class PgJoin(PgExecutionOperator):
    """Hash equi-join producing ``(left, right)`` pairs."""

    op_kind = "join"

    def _run(self, inputs, ctx):
        a, b = inputs
        rows = run_join(self.logical, a.payload.rows, b.payload.rows)
        factor = self.logical.output_sim_factor(a.sim_factor, b.sim_factor)
        return self._emit(a, rows, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=a.bytes_per_record + b.bytes_per_record)


class PgIEJoin(PgExecutionOperator):
    """Inequality join as a nested loop — cost is |L| x |R|."""

    op_kind = "nested_loop"

    def cost_estimate(self, model, cins, cout):
        product = cins[0].times(cins[1])
        profile = model.cluster.profile(self.platform)
        return CostEstimate(
            profile.cpu_seconds(product.lower),
            profile.cpu_seconds(product.upper),
            product.confidence,
        )

    def _run(self, inputs, ctx):
        a, b = inputs
        conditions = self.logical.conditions
        right = records_of(b.payload.rows)
        rows = [(l, r)
                for l in a.payload.rows
                for r in right
                if all(c.holds(l, r) for c in conditions)]
        out = self._emit(a, rows, ctx, _cin(inputs),
                         sim_factor=max(a.sim_factor, b.sim_factor),
                         bytes_per_record=a.bytes_per_record + b.bytes_per_record,
                         charge=False)
        product = a.sim_cardinality * b.sim_cardinality
        profile = ctx.profile(self.platform)
        ctx.meter.charge(profile.cpu_seconds(product), self.name, category="cpu")
        return out


class PgSort(PgExecutionOperator):
    op_kind = "sort"

    def _run(self, inputs, ctx):
        rows = run_sort(self.logical, inputs[0].payload.rows)
        return self._emit(inputs[0], rows, ctx, _cin(inputs))


class PgDistinct(PgExecutionOperator):
    op_kind = "distinct"

    def _run(self, inputs, ctx):
        rows = distinct_records(inputs[0].payload.rows,
                                bind(self.logical.key))
        return self._emit(inputs[0], rows, ctx, _cin(inputs))


class PgGroupBy(PgExecutionOperator):
    op_kind = "groupby"

    def _run(self, inputs, ctx):
        groups = group_by_key(bind(self.logical.key), inputs[0].payload.rows)
        return self._emit(inputs[0], groups, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, len(groups),
                                                   inputs[0].sim_factor))


class PgReduceBy(PgExecutionOperator):
    """GROUP BY with an aggregate."""

    op_kind = "reduceby"

    def _run(self, inputs, ctx):
        rows = run_reduce(self.logical, inputs[0].payload.rows)
        return self._emit(inputs[0], rows, ctx, _cin(inputs),
                          sim_factor=_group_factor(self.logical, len(rows),
                                                   inputs[0].sim_factor))


class PgGlobalReduce(PgExecutionOperator):
    op_kind = "reduce"

    def _run(self, inputs, ctx):
        out = fold_records(bind(self.logical.reducer),
                           inputs[0].payload.rows)
        return self._emit(inputs[0], out, ctx, _cin(inputs), sim_factor=1.0)


class PgCount(PgExecutionOperator):
    op_kind = "count"

    def _run(self, inputs, ctx):
        return self._emit(inputs[0], [len(inputs[0].payload.rows)], ctx,
                          _cin(inputs), sim_factor=1.0)


class PgUnion(PgExecutionOperator):
    """UNION ALL."""

    op_kind = "union"

    def _run(self, inputs, ctx):
        a, b = inputs
        rows = list(a.payload.rows) + list(b.payload.rows)
        total_sim = a.sim_cardinality + b.sim_cardinality
        factor = total_sim / len(rows) if rows else 1.0
        # Width is the cardinality-weighted mix of both branches, not the
        # left branch's alone (branches can have very different row widths).
        return self._emit(a, rows, ctx, _cin(inputs), sim_factor=factor,
                          bytes_per_record=union_bytes_per_record(a, b))


class PgIntersect(PgExecutionOperator):
    op_kind = "intersect"

    def _run(self, inputs, ctx):
        a, b = inputs
        rows = intersect_records(a.payload.rows, b.payload.rows)
        return self._emit(a, rows, ctx, _cin(inputs))


class PgCollectionSink(PgExecutionOperator):
    """Ships the result to the driver over the single client connection."""

    op_kind = "collect_sink"

    def output_descriptor(self):
        return PY_COLLECTION

    def _run(self, inputs, ctx):
        ch = inputs[0]
        rows = list(ch.payload.rows)
        out = Channel(PY_COLLECTION, rows, ch.sim_factor, ch.bytes_per_record,
                      len(rows))
        charge_operator(ctx, self, ch.sim_cardinality, out.sim_cardinality)
        return out
