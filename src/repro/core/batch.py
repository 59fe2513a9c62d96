"""Columnar record batches and the columnar kernels that run on them.

A :class:`RecordBatch` is an immutable, columnar view of a list of records.
It is a legal payload wherever a list of records is (a
``pystreams.collection`` channel, one partition of a
:class:`~repro.platforms.distributed.PartitionedDataset`, a relation's
rows): it has a length, iterates as its records and reads back exactly
with ``to_records``.  The ``run_*`` functions at the bottom pick, per
logical operator and payload, between one numpy kernel over a batch and
the :mod:`~repro.core.kernels` record kernel over the records.

Layout rules (``from_records``):

* all records are dicts with the same key tuple  -> ``dict`` layout,
  one column per key;
* all records are ``(dict, dict)`` 2-tuples      -> ``pair`` layout: a left
  and a right sub-batch with aligned rows (what a join of dict rows
  emits, whichever kernel ran it);
* all records are tuples of the same width       -> ``tuple`` layout,
  one column per position;
* anything else                                  -> ``scalar`` layout,
  the records themselves form the single column.

The columnar join emits the ``pair`` layout for any two sub-batches.

Columns whose values are homogeneously ``int``, ``float`` or ``str`` are
backed by read-only numpy arrays; everything else stays a plain object
list.  ``to_records`` reconstructs the original records exactly (numpy
round-trips int64/float64/str values bit-for-bit), which is what makes a
columnar kernel's output equal the record kernel's.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .kernels import (bind, filter_records, flat_map_records, fold_by_key,
                      hash_join, map_records)


def _make_column(values: list[Any]):
    """A read-only numpy array when the element type allows, else a list."""
    if not values:
        return values
    # ``set(map(type, ...))`` runs the type scan at C speed; ``type`` (not
    # isinstance) keeps bool/int and subclasses off the numpy path.
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            arr = np.array(values, dtype=np.int64)
        except OverflowError:
            return values
    elif kinds == {float}:
        arr = np.array(values, dtype=np.float64)
    elif kinds == {str}:
        arr = np.array(values, dtype=str)
        # numpy's fixed-width unicode dtype drops trailing NULs; if any
        # character went missing, keep the strings on the object path.
        if int(np.strings.str_len(arr).sum()) != sum(map(len, values)):
            return values
    else:
        return values
    arr.flags.writeable = False
    return arr


def _column_values(column) -> list[Any]:
    """Materialize a column back into plain Python values."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


class RecordBatch:
    """An immutable columnar batch of records (see module docstring)."""

    __slots__ = ("_kind", "_names", "_columns", "_rows", "left", "right")

    def __init__(self, kind: str, columns: tuple, rows: int,
                 names: tuple[str, ...] | None = None,
                 left: "RecordBatch | None" = None,
                 right: "RecordBatch | None" = None) -> None:
        self._kind = kind
        self._columns = columns
        self._rows = rows
        self._names = names
        self.left = left
        self.right = right

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_records(cls, records: Iterable[Any]) -> "RecordBatch":
        """Columnarize ``records`` (layout per the module docstring)."""
        if isinstance(records, RecordBatch):
            return records
        rows = list(records)
        if not rows:
            return cls("scalar", ([],), 0)
        first = rows[0]
        if type(first) is dict:
            names = tuple(first)
            if all(type(r) is dict and tuple(r) == names for r in rows):
                columns = tuple(_make_column([r[n] for r in rows])
                                for n in names)
                return cls("dict", columns, len(rows), names)
        elif type(first) is tuple and first:
            width = len(first)
            if width == 2 and all(
                    type(r) is tuple and len(r) == 2 and type(r[0]) is dict
                    and type(r[1]) is dict for r in rows):
                return cls.pair(cls.from_records([r[0] for r in rows]),
                                cls.from_records([r[1] for r in rows]))
            if all(type(r) is tuple and len(r) == width for r in rows):
                columns = tuple(_make_column([r[i] for r in rows])
                                for i in range(width))
                return cls("tuple", columns, len(rows))
        return cls("scalar", (_make_column(rows),), len(rows))

    @classmethod
    def from_columns(cls, names: Sequence[str],
                     columns: Sequence[Any]) -> "RecordBatch":
        """A dict-layout batch from parallel ``columns`` (columnar UDFs)."""
        cols = tuple(_freeze(c) for c in columns)
        rows = len(cols[0]) if cols else 0
        return cls("dict", cols, rows, tuple(names))

    @classmethod
    def from_tuple_columns(cls, columns: Sequence[Any]) -> "RecordBatch":
        """A tuple-layout batch from parallel ``columns``."""
        cols = tuple(_freeze(c) for c in columns)
        rows = len(cols[0]) if cols else 0
        return cls("tuple", cols, rows)

    @classmethod
    def pair(cls, left: "RecordBatch", right: "RecordBatch") -> "RecordBatch":
        """A join-output batch of aligned ``(left, right)`` rows."""
        if len(left) != len(right):
            raise ValueError("pair batch sides must have equal row counts")
        return cls("pair", (), len(left), left=left, right=right)

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches, preserving record order."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls("scalar", ([],), 0)
        if len(batches) == 1:
            return batches[0]
        head = batches[0]
        same_layout = all(
            b._kind == head._kind and b._names == head._names
            and len(b._columns) == len(head._columns) for b in batches)
        if head._kind == "pair" and same_layout:
            return cls.pair(cls.concat([b.left for b in batches]),
                            cls.concat([b.right for b in batches]))
        if same_layout and head._kind in ("dict", "tuple", "scalar"):
            columns = tuple(_concat_columns([b._columns[i] for b in batches])
                            for i in range(len(head._columns)))
            rows = sum(len(b) for b in batches)
            return cls(head._kind, columns, rows, head._names)
        merged: list[Any] = []
        for b in batches:
            merged.extend(b.to_records())
        return cls.from_records(merged)

    # -------------------------------------------------------------- accessors
    @property
    def kind(self) -> str:
        return self._kind

    @property
    def names(self) -> tuple[str, ...] | None:
        return self._names

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_records())

    def __repr__(self) -> str:
        return f"RecordBatch({self._kind}, rows={self._rows})"

    def col(self, key):
        """A column by name (dict layout) or position (tuple layout).

        Raises:
            KeyError: No such column, whatever the layout.
        """
        if self._kind == "dict":
            if key in self._names:
                return self._columns[self._names.index(key)]
        elif self._kind == "tuple":
            if type(key) is int and 0 <= key < len(self._columns):
                return self._columns[key]
        elif self._kind == "scalar" and key in (0, "value"):
            return self._columns[0]
        raise KeyError(f"no column {key!r} in a {self._kind} batch")

    def array(self, key) -> np.ndarray | None:
        """``col(key)`` as a numpy array, or None if it is an object column."""
        try:
            column = self.col(key)
        except KeyError:
            return None
        return column if isinstance(column, np.ndarray) else None

    def to_records(self) -> list[Any]:
        """The original records, reconstructed exactly (a fresh list)."""
        if self._kind == "pair":
            return list(zip(self.left.to_records(), self.right.to_records()))
        if self._kind == "scalar":
            # _column_values, not list(): iterating a numpy column yields
            # numpy scalars (np.str_, np.int64), which would leak into
            # records and downstream results.
            return _column_values(self._columns[0])
        values = [_column_values(c) for c in self._columns]
        if self._kind == "dict":
            names = self._names
            return [dict(zip(names, row)) for row in zip(*values)] \
                if values else []
        return list(zip(*values)) if values else []

    # --------------------------------------------------------------- kernels
    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Rows at ``indices``, in that order (fancy indexing)."""
        if self._kind == "pair":
            return RecordBatch.pair(self.left.take(indices),
                                    self.right.take(indices))
        columns = []
        index_list: list[int] | None = None
        for column in self._columns:
            if isinstance(column, np.ndarray):
                taken = column[indices]
                taken.flags.writeable = False
                columns.append(taken)
            else:
                if index_list is None:
                    index_list = indices.tolist() \
                        if isinstance(indices, np.ndarray) else list(indices)
                columns.append([column[i] for i in index_list])
        rows = len(indices)
        return RecordBatch(self._kind, tuple(columns), rows, self._names)

    def mask(self, keep) -> "RecordBatch":
        """Rows where the boolean array ``keep`` is true (order preserved)."""
        return self.take(np.flatnonzero(np.asarray(keep, dtype=bool)))


def _freeze(column):
    if isinstance(column, np.ndarray):
        if column.flags.writeable:
            column = column.copy()
            column.flags.writeable = False
        return column
    return _make_column(list(column))


def _concat_columns(columns: list):
    if all(isinstance(c, np.ndarray) for c in columns):
        try:
            out = np.concatenate(columns)
        except (ValueError, TypeError):
            out = None
        if out is not None:
            out.flags.writeable = False
            return out
    merged: list[Any] = []
    for c in columns:
        merged.extend(_column_values(c))
    return _make_column(merged)


# ---------------------------------------------------------------- kernels
def range_mask(batch: RecordBatch, column: str, low: Any,
               high: Any) -> np.ndarray | None:
    """Columnar ``low <= batch[column] <= high``; None when not possible."""
    arr = batch.array(column)
    if arr is None:
        return None
    try:
        keep = np.ones(len(batch), dtype=bool)
        if low is not None:
            keep &= arr >= low
        if high is not None:
            keep &= arr <= high
    except (TypeError, ValueError):
        return None
    return keep


def join_indices(left_keys: np.ndarray,
                 right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the hash-join output, in the legacy engines' order.

    The per-record engines emit, for each left row in input order, every
    matching right row in right-input order.  A stable argsort of the right
    keys plus binary search reproduces exactly that order without touching
    Python per row.
    """
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    span = (int(sorted_keys[-1]) - int(sorted_keys[0]) + 1
            if len(sorted_keys) and sorted_keys.dtype.kind in "iu" else -1)
    if 0 <= span <= 4 * (len(left_keys) + len(right_keys)) + 1024:
        # Dense integer keys: a direct-address run table answers every
        # probe with two gathers — much faster than binary-searching each
        # (unsorted) left key.
        lo = int(sorted_keys[0])
        table = np.concatenate(
            ([0], np.bincount(sorted_keys - lo, minlength=span).cumsum()))
        inside = (left_keys >= lo) & (left_keys <= lo + span - 1)
        pos = np.where(inside, left_keys - lo, 0)
        starts = table[pos]
        ends = np.where(inside, table[pos + 1], starts)
    else:
        starts = np.searchsorted(sorted_keys, left_keys, side="left")
        ends = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = ends - starts
    left_idx = np.repeat(np.arange(len(left_keys)), counts)
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    out_offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(out_offsets, counts)
    right_idx = order[np.repeat(starts, counts) + within]
    return left_idx, right_idx


def joinable_keys(left: RecordBatch, left_col,
                  right: RecordBatch, right_col):
    """Numpy key arrays for a columnar join, or None when unavailable.

    Requires comparable numpy dtypes on both sides: equality under sort
    order must coincide with the hash-table equality of the legacy path
    (ints with ints, floats with floats, strings with strings).
    """
    if left_col is None or right_col is None:
        return None
    lk = left.array(left_col)
    rk = right.array(right_col)
    if lk is None or rk is None:
        return None
    if lk.dtype.kind != rk.dtype.kind:
        return None
    if lk.dtype.kind == "f" and (np.isnan(lk).any() or np.isnan(rk).any()):
        return None  # NaN != NaN in a hash join, but sorts adjacently
    return lk, rk


def fold_by_key_columns(batch: RecordBatch, key_col, value_col,
                        fold: Callable[[Any, Any], Any]) -> RecordBatch:
    """Key-wise left fold matching the legacy ``_fold_by_key`` exactly.

    Groups appear in first-occurrence order of their key; each group's
    value is folded left-to-right over the batch's record order — the same
    accumulation (hence bit-identical floats) as the per-record engines.
    Output is a tuple layout of ``(key, aggregate)`` rows.
    """
    keys = _column_values(batch.col(key_col))
    values = _column_values(batch.col(value_col))
    acc: dict[Any, Any] = {}
    for k, v in zip(keys, values):
        if k in acc:
            acc[k] = fold(acc[k], v)
        else:
            acc[k] = v
    return RecordBatch.from_tuple_columns(
        (list(acc.keys()), list(acc.values())))


def pair_sum_reduce(key_col=0, value_col=1) -> Callable[[RecordBatch],
                                                        RecordBatch]:
    """A ``ReduceBy.batch_impl`` summing ``value_col`` per ``key_col``.

    Matches the ubiquitous ``lambda a, b: (a[0], a[1] + b[1])`` reducer
    over ``(key, value)`` tuples.
    """
    def impl(batch: RecordBatch) -> RecordBatch:
        return fold_by_key_columns(batch, key_col, value_col,
                                   lambda a, b: a + b)

    return impl


def sort_order(keys: np.ndarray, descending: bool) -> np.ndarray | None:
    """Stable sort permutation matching ``sorted(records, key=..., reverse=)``.

    Python's sort is stable in both directions (``reverse=True`` does NOT
    reverse ties), so descending is a stable ascending argsort of the
    order-reversed keys: ``~k`` for ints (``-k - 1``, which unlike ``-k``
    cannot overflow at the int64 minimum), ``-k`` for floats.  Returns
    None when the dtype cannot express it, or for NaN keys, which
    ``sorted`` does not order.
    """
    if not isinstance(keys, np.ndarray):
        return None
    if keys.dtype.kind == "f" and np.isnan(keys).any():
        return None
    if descending:
        if keys.dtype.kind == "i":
            keys = ~keys
        elif keys.dtype.kind == "f":
            keys = -keys
        else:
            return None
    try:
        return np.argsort(keys, kind="stable")
    except (TypeError, ValueError):
        return None


def batch_keys(batch: RecordBatch, key_col: Any, key_fn: Any) -> list[Any]:
    """Per-row shuffle keys as plain Python values.

    Prefers the declared key column (one ``tolist`` instead of one UDF call
    per record) and falls back to the key UDF when this batch has no such
    column; key values are identical either way, so ``hash(key) % n``
    partition assignment matches ``shuffle_by_key`` exactly.
    """
    if key_col is not None:
        try:
            return _column_values(batch.col(key_col))
        except KeyError:
            pass
    return map_records(bind(key_fn), batch.to_records())


# ---------------------------------------------------------- kernel selection
# One function per logical type with a columnar kernel, shared by every
# engine (pystreams, the dataflow engines per partition, pgres).  Given the
# LOGICAL operator and a payload — a list of records or a RecordBatch — each
# reads only the operator's declarations and the payload's type:
#
# * an explicit declaration (``batch_udf`` / ``batch_impl`` / ``batch_key``)
#   always runs the columnar kernel and emits a batch;
# * an implicit one (a range filter's ``column``, a join's ``*_key_column``)
#   runs it only when the input already is a batch;
# * everything else runs the record kernel and emits a list.
#
# The record kernels are the parity reference: the same plan with its
# declarations stripped produces equal records in equal order.  An empty
# batch has no layout for a declared kernel to read, so none is called on it.

Payload = list[Any] | RecordBatch


def records_of(payload: Payload) -> list[Any]:
    """The payload's records as a plain list (a batch's, rebuilt once)."""
    if isinstance(payload, RecordBatch):
        return payload.to_records()
    return payload


#: Rows columnarized at a time when a declared row-wise kernel reads a list.
#: A ``batch_udf`` is record-wise equivalent to its UDF, so it may run block
#: by block; the block bounds the numpy buffers alive at once (the input's
#: fixed-width text column above all).  It matters for resident memory:
#: glibc keeps freed buffers in the allocating thread's arena, where no
#: other thread's allocations reuse them.
BLOCK_ROWS = 1 << 14


def _rowwise(kernel: Callable[[RecordBatch], RecordBatch],
             payload: Payload) -> RecordBatch:
    """``kernel`` over ``payload``'s non-empty batches — itself, or a
    list's row blocks — concatenated."""
    if isinstance(payload, RecordBatch):
        return kernel(payload) if len(payload) else payload
    return RecordBatch.concat([
        kernel(RecordBatch.from_records(payload[i:i + BLOCK_ROWS]))
        for i in range(0, len(payload), BLOCK_ROWS)])


def run_map(logical: Any, payload: Payload, bvals: Sequence[Any] = ()
            ) -> Payload:
    batch_udf = logical.batch_udf
    if batch_udf is None:
        return map_records(bind(logical.udf, bvals), payload)
    return _rowwise(
        lambda b: RecordBatch.from_records(batch_udf(b, *bvals)), payload)


def run_flat_map(logical: Any, payload: Payload, bvals: Sequence[Any] = ()
                 ) -> Payload:
    batch_udf = logical.batch_udf
    if batch_udf is None:
        return flat_map_records(bind(logical.udf, bvals), payload)
    return _rowwise(
        lambda b: RecordBatch.from_records(batch_udf(b, *bvals)), payload)


def run_filter(logical: Any, payload: Payload, bvals: Sequence[Any] = ()
               ) -> Payload:
    """``batch_udf`` computes the keep-mask; a ``column`` range over a
    batch is one columnar comparison when the column is numpy-backed."""
    batch_udf = logical.batch_udf
    if batch_udf is not None:
        return _rowwise(
            lambda b: b.mask(np.asarray(batch_udf(b, *bvals), dtype=bool)),
            payload)
    if (isinstance(payload, RecordBatch) and logical.column is not None
            and not bvals):
        keep = range_mask(payload, logical.column, logical.low, logical.high)
        if keep is not None:
            return payload.mask(keep)
    return filter_records(bind(logical.udf, bvals), payload)


def run_join(logical: Any, left: Payload, right: Payload) -> Payload:
    """Hash equi-join, ``(left, right)`` pairs in the record kernel's order.

    Columnar when both key columns are declared, either side already is a
    batch and the key columns compare like hash keys (``joinable_keys``).
    """
    if (logical.left_key_column is not None
            and logical.right_key_column is not None
            and (isinstance(left, RecordBatch)
                 or isinstance(right, RecordBatch))):
        lb = RecordBatch.from_records(left)
        rb = RecordBatch.from_records(right)
        keys = joinable_keys(lb, logical.left_key_column,
                             rb, logical.right_key_column)
        if keys is not None:
            li, ri = join_indices(*keys)
            return RecordBatch.pair(lb.take(li), rb.take(ri))
    return hash_join(bind(logical.left_key), bind(logical.right_key),
                     left, right)


def run_reduce(logical: Any, payload: Payload) -> Payload:
    """Key-wise fold (first-occurrence key order, left fold)."""
    if logical.batch_impl is None:
        return fold_by_key(bind(logical.key), bind(logical.reducer), payload)
    batch = RecordBatch.from_records(payload)
    if not len(batch):
        return batch
    return RecordBatch.from_records(logical.batch_impl(batch))


def run_sort(logical: Any, payload: Payload) -> Payload:
    """Matches ``sorted(records, key=..., reverse=...)``."""
    if logical.batch_key is not None:
        batch = RecordBatch.from_records(payload)
        if not len(batch):
            return batch
        order = sort_order(np.asarray(logical.batch_key(batch)),
                           logical.descending)
        if order is not None:
            return batch.take(order)
    return sorted(payload, key=bind(logical.key), reverse=logical.descending)
