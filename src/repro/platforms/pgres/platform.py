"""Platform registration for Pgres: channels, conversions, mappings."""

from __future__ import annotations

from ...core import operators as ops
from ...core.channels import Channel, Conversion, LOCAL_FILE
from ...core.mappings import OperatorMapping
from ..base import Platform
from ..pystreams.channels import PY_COLLECTION
from . import ops as x
from .channels import PG_RELATION, Relation

#: Bulk-load bandwidth (INSERT path): deliberately slow — Figure 2(d) finds
#: loading into Postgres ~3x dearer than the whole cross-platform task.
LOAD_MB_PER_S = 12.0
#: Export bandwidth over the single client connection.
EXPORT_MB_PER_S = 40.0


def _export(channel: Channel, ctx) -> Channel:
    rows = list(channel.payload.rows)
    return channel.with_payload(rows, PY_COLLECTION, len(rows))


# A loaded relation registers no catalog table: the operators read its
# rows, and an unindexed temporary table would only grow the catalog whose
# statistics every optimization copies.

def _load(channel: Channel, ctx) -> Channel:
    rows = list(channel.payload)
    return channel.with_payload(Relation(rows), PG_RELATION, len(rows))


def _copy_from_file(channel: Channel, ctx) -> Channel:
    vf = ctx.vfs.read(channel.payload)
    rows = list(vf.records)
    return Channel(PG_RELATION, Relation(rows), vf.sim_factor,
                   vf.bytes_per_record, len(rows))


class PgresPlatform(Platform):
    """The Postgres analog: indexed single-node relational processing."""

    name = "pgres"

    def channels(self):
        return [PG_RELATION]

    def conversions(self):
        return [
            Conversion(PG_RELATION, PY_COLLECTION, _export,
                       mb_per_s=EXPORT_MB_PER_S, overhead_s=0.05,
                       name="pgres-export"),
            Conversion(PY_COLLECTION, PG_RELATION, _load,
                       mb_per_s=LOAD_MB_PER_S, overhead_s=0.2,
                       name="pgres-load"),
            Conversion(LOCAL_FILE, PG_RELATION, _copy_from_file,
                       mb_per_s=LOAD_MB_PER_S * 2, overhead_s=0.2,
                       name="pgres-copy"),
        ]

    def mappings(self):
        m = OperatorMapping
        return [
            m(ops.TableSource, lambda op: [x.PgTableSource(op)]),
            m(ops.Map, lambda op: [x.PgProjection(op)]),
            m(ops.Filter, lambda op: [x.PgFilter(op)]),
            m(ops.Sort, lambda op: [x.PgSort(op)]),
            m(ops.Distinct, lambda op: [x.PgDistinct(op)]),
            m(ops.GroupBy, lambda op: [x.PgGroupBy(op)]),
            m(ops.ReduceBy, lambda op: [x.PgReduceBy(op)]),
            m(ops.GlobalReduce, lambda op: [x.PgGlobalReduce(op)]),
            m(ops.Count, lambda op: [x.PgCount(op)]),
            m(ops.Union, lambda op: [x.PgUnion(op)]),
            m(ops.Intersect, lambda op: [x.PgIntersect(op)]),
            m(ops.Join, lambda op: [x.PgJoin(op)]),
            m(ops.IEJoin, lambda op: [x.PgIEJoin(op)]),
            m(ops.CollectionSink, lambda op: [x.PgCollectionSink(op)]),
        ]
