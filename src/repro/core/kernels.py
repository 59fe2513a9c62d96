"""Record kernels: the per-record loops of every engine, written once.

An execution operator *binds* its UDFs once per run (:func:`bind`) and hands
the plain callables to the loops below; no engine applies a
:class:`~repro.core.udf.Udf` — a wrapper frame, an argument splat and a
kwargs dict — per record.  Every engine (pystreams, the dataflow engines
per partition, pgres) runs these same functions wherever the plan declares
no columnar kernel (``core.batch.run_*``), so output order is decided here: first-occurrence key
order for distinct / group / fold, left-major ``(l, r)`` pairs for the join.

Bind on the call's stack, never on an operator instance: instances are
re-executed across loop iterations, retries and — through cached plans —
later jobs, and broadcast values differ per execution.

The loops are comprehensions, not ``map`` / ``filter``: a UDF raising
``StopIteration`` must fail the job, and ``list(map(f, xs))`` would end the
output there without an error (``functools.reduce`` propagates it).
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Callable, Iterable, Sequence, overload

from .udf import Udf

Fn = Callable[[Any], Any]
Reducer = Callable[[Any, Any], Any]


@overload
def bind(udf: None, bvals: Sequence[Any] = ()) -> None: ...
@overload
def bind(udf: Udf | Callable[..., Any],
         bvals: Sequence[Any] = ()) -> Callable[..., Any]: ...


def bind(udf: Udf | Callable[..., Any] | None,
         bvals: Sequence[Any] = ()) -> Callable[..., Any] | None:
    """The plain callable a kernel applies per record.

    ``udf.fn`` for a :class:`Udf`, the object itself otherwise (``None``
    stays ``None``); with broadcast values, a one-argument closure passing
    them after the record.
    """
    fn = udf.fn if isinstance(udf, Udf) else udf
    if fn is None or not bvals:
        return fn
    extra = tuple(bvals)
    return lambda x: fn(x, *extra)


def identity(record: Any) -> Any:
    """What key-less distinct / intersect compare (and shuffle) records by:
    the record itself, a dict-shaped row by its sorted items."""
    if isinstance(record, dict):
        return tuple(sorted(record.items()))
    return record


def map_records(fn: Fn, records: Iterable[Any]) -> list[Any]:
    return [fn(x) for x in records]


def flat_map_records(fn: Fn, records: Iterable[Any]) -> list[Any]:
    """``fn`` may return any iterable."""
    return [y for x in records for y in fn(x)]


def filter_records(fn: Fn, records: Iterable[Any]) -> list[Any]:
    """Keeps the records ``fn`` finds truthy."""
    return [x for x in records if fn(x)]


def distinct_records(records: Sequence[Any], key: Fn | None = None
                     ) -> list[Any]:
    """The first record of each key, in order; without a key, of each
    :func:`identity` — straight off a dict when every record hashes."""
    if key is None:
        try:
            return list(dict.fromkeys(records))
        except TypeError:
            key = identity
    seen: set[Any] = set()
    out = []
    for x in records:
        k = key(x)
        if k not in seen:
            seen.add(k)
            out.append(x)
    return out


def intersect_records(left: Sequence[Any], right: Sequence[Any]
                      ) -> list[Any]:
    """``left``'s distinct records that also occur in ``right``."""
    try:
        keep = set(right)
        return [x for x in dict.fromkeys(left) if x in keep]
    except TypeError:
        keep = {identity(x) for x in right}
        return [x for x in distinct_records(left, identity)
                if identity(x) in keep]


def group_by_key(key: Fn, records: Iterable[Any]
                 ) -> list[tuple[Any, list[Any]]]:
    """``(key, [members])`` groups in first-occurrence key order."""
    groups: dict[Any, list[Any]] = {}
    for x in records:
        groups.setdefault(key(x), []).append(x)
    return list(groups.items())


def fold_by_key(key: Fn, reducer: Reducer, records: Iterable[Any]
                ) -> list[Any]:
    """One left-folded aggregate per key, in first-occurrence key order."""
    acc: dict[Any, Any] = {}
    for x in records:
        k = key(x)
        acc[k] = x if k not in acc else reducer(acc[k], x)
    return list(acc.values())


def fold_groups(reducer: Reducer,
                groups: Iterable[tuple[Any, Sequence[Any]]]) -> list[Any]:
    """Left-fold the (non-empty) members of each ``(key, members)`` group."""
    return [reduce(reducer, members) for __, members in groups]


def fold_records(reducer: Reducer, records: Iterable[Any]) -> list[Any]:
    """The left fold of all records as a one-element list; empty in,
    empty out."""
    it = iter(records)
    for first in it:
        return [reduce(reducer, it, first)]
    return []


def hash_join(left_key: Fn, right_key: Fn, left: Iterable[Any],
              right: Iterable[Any]) -> list[tuple[Any, Any]]:
    """``(l, r)`` pairs with equal keys: left-major, each left record's
    matches in ``right`` order (the right side is the build side)."""
    table: dict[Any, list[Any]] = {}
    for r in right:
        table.setdefault(right_key(r), []).append(r)
    return [(l, r) for l in left for r in table.get(left_key(l), ())]
