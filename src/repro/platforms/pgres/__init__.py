"""Pgres: the Postgres-analog single-node relational platform, declared once.

Its storage layer (catalog, heap tables, ordered indexes, the relation
payload) is :mod:`.engine`; its physical operators (heap scan, index or
sequential selection, nested-loop inequality join, projection) are
:mod:`.ops`.  Every other relational operator is a shared
:mod:`~repro.platforms.dataflow` operator bound to :data:`PGRES`, the
one-partition relation layout.
"""

from __future__ import annotations

# Not ``ops``: importing the ``.ops`` submodule rebinds that name here.
from ...core import operators as logical
from ...core.channels import (ChannelDescriptor, Conversion, LOCAL_FILE,
                              PY_COLLECTION)
from ...simulation.profiles import HardwareProfile, PlatformProfile
from ..base import Platform
from ..dataflow import CollectionEngine
from .engine import Relation
from .ops import PgFilter, PgIEJoin, PgProjection, PgTableSource

#: Rows living inside the relational engine.  Reusable (tables and
#: materialized intermediates can be scanned repeatedly) and disk-backed
#: (a relation spilling past RAM is slow, not fatal).
PG_RELATION = ChannelDescriptor("pgres.relation", "pgres", True,
                                in_memory=False)


class RelationEngine(CollectionEngine):
    """A one-partition engine whose payload is a :class:`.engine.Relation`
    of the partition's rows.  A relation an operator derives has no base
    table, so only a scan's unmodified output can use an index."""

    def parts(self, payload) -> list:
        return [payload.rows]

    def payload(self, parts: list):
        return Relation(super().payload(parts))


#: The engine value every pgres operator and mapping is bound to (no
#: broadcast channel).
PGRES = RelationEngine("pgres", PG_RELATION, None)

#: Bulk-load bandwidth (INSERT path): deliberately slow — Figure 2(d) finds
#: loading into Postgres ~3x dearer than the whole cross-platform task.
LOAD_MB_PER_S = 12.0
#: ``COPY`` from a local file skips the per-row INSERT path: twice as fast.
COPY_MB_PER_S = LOAD_MB_PER_S * 2


# A loaded relation registers no catalog table: the operators read its
# rows, and an unindexed temporary table would only grow the catalog whose
# statistics every optimization copies.

def _conversions(profile: PlatformProfile) -> list[Conversion]:
    return [
        # Exports leave over the single client connection.
        Conversion(PG_RELATION, PY_COLLECTION, PGRES.to_collection,
                   mb_per_s=profile.net_mb_per_s, overhead_s=0.05,
                   name="pgres-export"),
        Conversion(PY_COLLECTION, PG_RELATION, PGRES.from_collection,
                   mb_per_s=LOAD_MB_PER_S, overhead_s=0.2,
                   name="pgres-load"),
        Conversion(LOCAL_FILE, PG_RELATION, PGRES.read_file,
                   mb_per_s=COPY_MB_PER_S, overhead_s=0.2,
                   name="pgres-copy"),
    ]


#: The Postgres analog: instant start, 4-way parallel scans, costly loads.
PLATFORM = Platform(
    profile=PlatformProfile(
        name="pgres",
        startup_s=0.05,
        stage_overhead_s=0.01,
        parallelism=4,
        tuple_cost_s=1.2e-6,
        io_mb_per_s=HardwareProfile().disk_mb_per_s,
        net_mb_per_s=40.0,  # single JDBC-ish pipe for exports/loads
        memory_cap_mb=20_480.0,
    ),
    channels=(PG_RELATION,),
    conversions=_conversions,
    mappings=PGRES.mappings(
        own={logical.TableSource: PgTableSource, logical.Map: PgProjection,
             logical.Filter: PgFilter, logical.IEJoin: PgIEJoin},
        only=frozenset({logical.TableSource, logical.Map, logical.Filter,
                        logical.Sort, logical.Distinct, logical.GroupBy,
                        logical.ReduceBy, logical.GlobalReduce,
                        logical.Count, logical.Union, logical.Intersect,
                        logical.Join, logical.IEJoin,
                        logical.CollectionSink})),
)
