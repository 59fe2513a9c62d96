"""User-defined functions with optimizer-facing annotations.

Rheem operators are refined with UDFs (Section 3 of the paper).  Applications
may optionally attach a *selectivity* and a *CPU weight* to a UDF; the
optimizer falls back to per-operator defaults when they are absent.
"""

from __future__ import annotations

from types import CodeType, FunctionType
from typing import Any, Callable, Iterator

#: :func:`reads` descends this many levels of code nested in a function's
#: own; past them, and for an empty closure cell, it yields ``UNREADABLE``,
#: of which no digest can be made.
MAX_NESTING, UNREADABLE = 3, object()


class Udf:
    """A callable plus the metadata the cross-platform optimizer consumes.

    Attributes:
        fn: The wrapped callable.
        selectivity: Output-per-input ratio hint.  For ``Filter`` this is the
            retention fraction; for ``FlatMap`` the expansion factor.  ``None``
            means "use the operator default".
        cpu_weight: Relative per-record CPU work of this UDF (1.0 = a plain
            field access / arithmetic map).
        name: Label used in plans, logs and cost reports.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        selectivity: float | None = None,
        cpu_weight: float = 1.0,
        name: str | None = None,
    ) -> None:
        if selectivity is not None and selectivity < 0:
            raise ValueError(f"selectivity must be >= 0, got {selectivity}")
        if cpu_weight <= 0:
            raise ValueError(f"cpu_weight must be > 0, got {cpu_weight}")
        self.fn = fn
        self.selectivity = selectivity
        self.cpu_weight = cpu_weight
        self.name = name or getattr(fn, "__name__", "udf")

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.fn(*args, **kwargs)

    def __repr__(self) -> str:
        return f"Udf({self.name})"


def as_udf(fn: Callable[..., Any] | Udf) -> Udf:
    """Wrap a plain callable into a :class:`Udf` (idempotent)."""
    if isinstance(fn, Udf):
        return fn
    return Udf(fn)


def reads(fn: Callable[..., Any]) -> Iterator[tuple[str, Any, Any]]:
    """What the Python function ``fn``, or a bound method's function, reads
    besides its arguments (the plan digest and the purity scan both ask),
    as ``(kind, name, value)``: ``defaults`` and ``kwdefaults`` if any, a
    ``closure`` per cell, then for its code and each code object nested
    in it (pre-order) the ``code`` followed by each of its ``co_names``: a
    ``global`` if ``fn.__globals__`` binds it, else ``unbound`` (None).
    ``co_names`` holds attribute names too: a superset of what is loaded."""
    fn = getattr(fn, "__func__", fn)
    if not isinstance(fn, FunctionType):  # a builtin or callable object
        return
    for kind, value in (("defaults", fn.__defaults__),
                        ("kwdefaults", fn.__kwdefaults__)):
        if value is not None:
            yield kind, None, value
    for var, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        try:
            yield "closure", var, cell.cell_contents
        except ValueError:  # not assigned yet
            yield "closure", var, UNREADABLE
    namespace, stack = fn.__globals__, [(fn.__code__, 0)]
    while stack:
        code, level = stack.pop()
        if level > MAX_NESTING:
            yield "code", None, UNREADABLE
            continue
        yield "code", None, code
        for name in code.co_names:
            yield (("global", name, namespace[name]) if name in namespace
                   else ("unbound", name, None))
        stack += [(const, level + 1) for const in reversed(code.co_consts)
                  if isinstance(const, CodeType)]
