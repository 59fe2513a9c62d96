"""The lock registry: the machine-readable lock hierarchy of the runtime.

Every lock the runtime shares across threads is declared here as a
:class:`LockSpec`: its registry name, its rank in the acquisition order
(a lock may only be acquired while holding locks of strictly *lower*
rank) and what it guards.  No lock is re-entrant.  ``DESIGN.md`` describes the
hierarchy and points here for the definition.

Two consumers keep the declaration honest:

* :mod:`repro.concurrency.runtime` — ``OrderedLock`` resolves its rank
  here and asserts the order per thread under the debug flag (on in
  tests), which is where an inversion is caught;
* :mod:`repro.analysis.locks` — the static checker flags a lock the
  registry does not know (raw ``threading`` primitives, undeclared or
  non-literal names, a declared lock never constructed).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LockSpec:
    """One declared lock of the runtime.

    Attributes:
        name: Registry name, the key ``OrderedLock`` is constructed with.
        rank: Position in the acquisition order.  A thread may acquire a
            lock only while every lock it already holds has a strictly
            lower rank.  Ranks are spaced so future locks can slot in
            between without renumbering.
        doc: The owning attribute and what the lock guards.
    """

    name: str
    rank: int
    doc: str = ""


#: The lock hierarchy, outermost (lowest rank) first.
LOCK_ORDER: tuple[LockSpec, ...] = (
    LockSpec(
        "server.jobs", 10,
        doc="JobServer._lock: job table, pending queue, per-tenant running "
            "counts, the service-time EWMA and the accepting/cancelled "
            "flags; never held while a job executes",
    ),
    LockSpec(
        "server.pool", 12,
        doc="ShardPool._lock: slot table, per-shard in-flight counts, the "
            "replayed cost-parameter publication and last-known shard "
            "metrics; held only for routing decisions and slot swaps, "
            "never while a shard executes a job",
    ),
    LockSpec(
        "server.shard", 15,
        doc="One shard's _lock: a context runs one job or publication "
            "at a time.  InProcessShard holds it across run_job and "
            "publish; ProcessShard across each request/response pair on "
            "its pipe (the child's execution of the request included)",
    ),
    LockSpec(
        "calibration.corpus", 18,
        doc="CostCalibrator._lock: sample buckets, drift EWMA and the "
            "single-refit-in-flight flag; released while the genetic fit "
            "runs and while the merged parameters are published (the "
            "broadcast takes server.pool and server.shard, ranks 12 and "
            "15)",
    ),
    LockSpec(
        "metrics", 80,
        doc="trace.metrics._METRICS_LOCK, innermost: instrument mutation "
            "and the registry's instrument tables; takes no other lock",
    ),
)

_BY_NAME: dict[str, LockSpec] = {spec.name: spec for spec in LOCK_ORDER}

#: Modules allowed to construct raw ``threading.Lock`` objects (the
#: wrapper implementation itself).
RAW_LOCK_OK: frozenset[str] = frozenset({"repro.concurrency.runtime"})


class UnknownLockError(KeyError):
    """Raised when a lock name is not declared in :data:`LOCK_ORDER`."""


def lock_spec(name: str) -> LockSpec:
    """The :class:`LockSpec` registered under ``name``.

    Raises:
        UnknownLockError: If the name is not in the registry.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise UnknownLockError(
            f"lock {name!r} is not declared in repro.concurrency.order."
            f"LOCK_ORDER (known: {known})") from None


def validate_order(order: tuple[LockSpec, ...] = LOCK_ORDER) -> None:
    """Sanity-check a registry: unique names/ranks, ascending ranks.

    Raises:
        ValueError: On duplicate names, duplicate ranks or an unsorted
            declaration (the declaration order *is* the hierarchy and
            must read top-down).
    """
    names = [spec.name for spec in order]
    ranks = [spec.rank for spec in order]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate lock names in registry: {names}")
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate lock ranks in registry: {ranks}")
    if ranks != sorted(ranks):
        raise ValueError("LOCK_ORDER must be declared outermost-first "
                         f"(ranks {ranks} are not ascending)")


validate_order()

__all__ = [
    "LOCK_ORDER", "LockSpec", "RAW_LOCK_OK", "UnknownLockError", "lock_spec",
    "validate_order",
]
