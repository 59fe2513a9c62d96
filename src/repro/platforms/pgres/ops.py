"""Pgres's physical operators: the ones a relational engine runs its own way.

Every other relational operator — sort, distinct, grouping and aggregates,
union, intersect, the hash equi-join, the collect — is the shared
:mod:`~repro.platforms.dataflow` implementation bound to the one-partition
relation layout :data:`~repro.platforms.pgres.PGRES`.  What stays here is
what only a DBMS does:

* a heap scan that pushes the projection down into the table read;
* a selection that uses an ordered index when the logical filter declares
  a column range and the relation is an unmodified base table;
* an inequality join that falls back to a nested loop whose cost is the
  product of the input cardinalities — the weakness BigDansing's plugged
  IEJoin works around on the other platforms;

plus the projection, whose output width differs from the shared Map's.
"""

from __future__ import annotations

from ...core.batch import records_of, run_filter, run_map
from ...core.channels import Channel
from ...core.cost import CostEstimate
from ..base import _cin, charge_operator
from ..dataflow import DataflowOperator
from .engine import Relation


class PgTableSource(DataflowOperator):
    """Scans (and optionally projects) a catalog table.

    Projection pushdown shrinks the per-row bytes — which is exactly what
    makes "project in Postgres, ship less data" win Figure 10(a).
    """

    op_kind = "table_source"

    def _run(self, inputs, bvals, ctx):
        table = ctx.pgres.table(self.logical.table)
        projection = self.logical.projection
        if projection:
            rows = [{c: r[c] for c in projection} for r in table.rows]
            base = None  # projected rows are derived
        else:
            rows = list(table.rows)
            base = table.name
        out = Channel(self.engine.dataset, Relation(rows, base),
                      table.sim_factor,
                      table.bytes_for_projection(projection), len(rows))
        charge_operator(ctx, self, 0.0, out.sim_cardinality)
        return out


class PgFilter(DataflowOperator):
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

    def _run(self, inputs, bvals, ctx):
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
        out = inputs[0].with_payload(Relation(rows), actual_count=len(rows))
        charge_operator(ctx, self, _cin(inputs), out.sim_cardinality,
                        kind=kind)
        return out


class PgProjection(DataflowOperator):
    """SELECT-list expressions (the Map operator on Pgres).

    Its output keeps the input's row width, where the shared ``DFMap``
    takes a Map's declared ``bytes_per_record``.  Binding Map to ``DFMap``
    would move Figure 2(c)'s xDB@Rheem cells (200 MB: 3.6547 s ->
    2.2854 s): CrocoPR's ``rows-a`` / ``rows-b`` maps declare 16-byte
    edges over 140-byte table rows, and the export out of Pgres would
    then ship the narrower records.
    """

    op_kind = "map"

    def _run(self, inputs, bvals, ctx):
        rows = run_map(self.logical, inputs[0].payload.rows)
        return self._emit(inputs[0], [rows], ctx, _cin(inputs))


class PgIEJoin(DataflowOperator):
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

    def _run(self, inputs, bvals, ctx):
        a, b = inputs
        conditions = self.logical.conditions
        right = records_of(b.payload.rows)
        rows = [(l, r)
                for l in a.payload.rows
                for r in right
                if all(c.holds(l, r) for c in conditions)]
        out = Channel(self.engine.dataset, Relation(rows),
                      max(a.sim_factor, b.sim_factor),
                      a.bytes_per_record + b.bytes_per_record, len(rows))
        product = a.sim_cardinality * b.sim_cardinality
        profile = ctx.profile(self.platform)
        ctx.meter.charge(profile.cpu_seconds(product), self.name, category="cpu")
        return out
