"""Partitioned datasets: the storage layer of the distributed engines.

Both the Spark analog (``sparklite``) and the Flink analog (``flinklite``)
process :class:`PartitionedDataset` values — lists of partitions distributed
over the virtual cluster.  Narrow operators transform partitions in place;
wide operators *shuffle*: they hash-partition records by key so each key
lives in exactly one partition (which tests verify, and which the engines
charge network time for).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator


class PartitionedDataset:
    """An immutable list of record partitions.

    A partition is a list of records or a
    :class:`~repro.core.batch.RecordBatch` (same length, same iteration);
    everything here reads partitions through ``len`` and iteration only.
    """

    def __init__(self, partitions: list[list[Any]]) -> None:
        if not partitions:
            partitions = [[]]
        self._partitions = partitions

    @classmethod
    def from_records(cls, records: Iterable[Any],
                     num_partitions: int) -> "PartitionedDataset":
        """Distribute records round-robin over ``num_partitions``."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if not isinstance(records, list):
            records = list(records)
        return cls([records[j::num_partitions]
                    for j in range(num_partitions)])

    @property
    def partitions(self) -> list[list[Any]]:
        """The raw partition lists."""
        return self._partitions

    @property
    def num_partitions(self) -> int:
        """Number of partitions (>= 1)."""
        return len(self._partitions)

    def records(self) -> Iterator[Any]:
        """Iterate all records, partition by partition."""
        return chain.from_iterable(self._partitions)

    def to_list(self) -> list[Any]:
        """Materialize all records as one list."""
        return list(self.records())

    def count(self) -> int:
        """Total number of records across partitions."""
        return sum(len(p) for p in self._partitions)

    def shuffle_by_key(
        self, key_fn: Callable[[Any], Any],
        num_partitions: int | None = None,
    ) -> "PartitionedDataset":
        """Hash-partition records by key (wide dependency).

        After the shuffle, all records sharing a key are co-located in the
        same partition.
        """
        n = num_partitions or self.num_partitions
        parts: list[list[Any]] = [[] for __ in range(n)]
        for rec in self.records():
            parts[hash(key_fn(rec)) % n].append(rec)
        return PartitionedDataset(parts)

    def __repr__(self) -> str:
        return (f"PartitionedDataset({self.num_partitions} partitions, "
                f"{self.count()} records)")
