"""Channel types of the Pgres (Postgres-analog) platform."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...core.channels import ChannelDescriptor

#: Rows living inside the relational engine.  Reusable (tables and
#: materialized intermediates can be scanned repeatedly) and disk-backed
#: (a relation spilling past RAM is slow, not fatal).
PG_RELATION = ChannelDescriptor("pgres.relation", "pgres", True,
                                in_memory=False)


@dataclass
class Relation:
    """Payload of a ``pgres.relation`` channel.

    Attributes:
        rows: Dict-shaped tuples — a list, or a
            :class:`~repro.core.batch.RecordBatch` of them.
        base_table: The catalog table these rows come from *unmodified*
            (enables index scans); ``None`` for derived intermediates.
    """

    rows: list[dict | Any]
    base_table: str | None = None

    def __len__(self) -> int:
        return len(self.rows)
