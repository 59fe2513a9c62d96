"""Type-flow inference over data-quantum types (analysis pass 1).

Rheem edges carry *data quanta*; the paper leaves their types implicit.
This pass recovers them: sources seed concrete types (text files yield
strings, relations yield records, collections are sampled), operator
signatures transfer them (``GroupBy`` wraps its input into
``(key, [members])`` pairs, joins produce ``(left, right)`` pairs), and UDF
annotations refine them.  The inference is deliberately *optimistic*: the
unknown type ``any`` unifies with everything, so only provably incompatible
edges are flagged — a lint must not cry wolf on untyped lambdas.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core import operators as ops
from ..core.udf import Udf
from .diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class QType:
    """A data-quantum type: a kind plus optional element parameters.

    Kinds: ``any`` (unknown), ``text``, ``number``, ``bool``, ``record``
    (dict-shaped), ``list`` (one element param), ``tuple`` (one param per
    component; a 2-tuple is a pair).
    """

    kind: str
    params: tuple["QType", ...] = ()

    def __str__(self) -> str:
        if self.params:
            inner = ", ".join(str(p) for p in self.params)
            return f"{self.kind}[{inner}]"
        return self.kind


ANY = QType("any")
TEXT = QType("text")
NUMBER = QType("number")
BOOL = QType("bool")
RECORD = QType("record")


def list_of(elem: QType) -> QType:
    return QType("list", (elem,))


def pair_of(left: QType, right: QType) -> QType:
    return QType("tuple", (left, right))


def compatible(have: QType, want: QType) -> bool:
    """Whether a quantum of type ``have`` can flow where ``want`` is needed.

    ``any`` unifies with everything; ``bool`` and ``number`` unify (Python
    bools are ints); parameterized kinds compare element-wise, and an
    unparameterized ``tuple``/``list`` matches any arity.
    """
    if have.kind == "any" or want.kind == "any":
        return True
    if {have.kind, want.kind} <= {"number", "bool"}:
        return True
    if have.kind != want.kind:
        return False
    if not have.params or not want.params:
        return True
    if len(have.params) != len(want.params):
        return False
    return all(compatible(h, w) for h, w in zip(have.params, want.params))


def lub(a: QType, b: QType) -> QType:
    """Least upper bound: the most specific type covering both."""
    if a == b:
        return a
    if a.kind == "any" or b.kind == "any":
        return ANY
    if {a.kind, b.kind} <= {"number", "bool"}:
        return NUMBER
    if a.kind != b.kind:
        return ANY
    if len(a.params) != len(b.params):
        return QType(a.kind)
    return QType(a.kind, tuple(lub(x, y) for x, y in zip(a.params, b.params)))


# --------------------------------------------------------------------------
# Python value / annotation -> QType
# --------------------------------------------------------------------------
def type_of_value(value: Any, depth: int = 2) -> QType:
    """Infer the quantum type of a sample value (bounded recursion)."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, str):
        return TEXT
    if isinstance(value, dict):
        return RECORD
    if isinstance(value, tuple):
        if depth <= 0 or not value:
            return QType("tuple")
        return QType("tuple",
                     tuple(type_of_value(v, depth - 1) for v in value))
    if isinstance(value, list):
        if depth <= 0 or not value:
            return QType("list")
        return list_of(type_of_value(value[0], depth - 1))
    return ANY


def type_of_collection(data: list, sample: int = 8) -> QType:
    """Sampled element type of a driver-side collection."""
    result: Optional[QType] = None
    for value in data[:sample]:
        t = type_of_value(value)
        result = t if result is None else lub(result, t)
    return result if result is not None else ANY


_SIMPLE_ANNOTATIONS = {
    str: TEXT, int: NUMBER, float: NUMBER, bool: BOOL,
    dict: RECORD, list: QType("list"), tuple: QType("tuple"),
    Any: ANY, None: ANY, type(None): ANY,
}

_ITERABLE_ORIGINS = {list, set, frozenset, typing.Iterable, typing.Iterator,
                     typing.Sequence, typing.Generator}


def type_of_annotation(annotation: Any) -> QType:
    """Map a Python type annotation to a quantum type (``any`` fallback)."""
    if annotation in _SIMPLE_ANNOTATIONS:
        return _SIMPLE_ANNOTATIONS[annotation]
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is None:
        return ANY
    if origin is tuple:
        if not args or args[-1] is Ellipsis:
            return QType("tuple")
        return QType("tuple", tuple(type_of_annotation(a) for a in args))
    if origin is dict:
        return RECORD
    if origin in _ITERABLE_ORIGINS or (
            isinstance(origin, type) and issubclass(origin, (list, set))):
        return list_of(type_of_annotation(args[0])) if args else QType("list")
    return ANY


def element_of(t: QType) -> QType:
    """The element type produced by iterating a quantum of type ``t``."""
    if t.kind == "list" and t.params:
        return t.params[0]
    if t.kind == "text":
        return TEXT  # iterating a string yields strings
    return ANY


# --------------------------------------------------------------------------
# UDF signatures
# --------------------------------------------------------------------------
def udf_signature(udf: Udf | None) -> tuple[QType, QType]:
    """(first-parameter type, return type) from a UDF's annotations."""
    if udf is None:
        return ANY, ANY
    fn = udf.fn
    try:
        hints = typing.get_type_hints(fn)
    except Exception:
        return ANY, ANY
    code = getattr(fn, "__code__", None)
    param = ANY
    if code is not None and code.co_argcount:
        first = code.co_varnames[0]
        if first in hints:
            param = type_of_annotation(hints[first])
    ret = type_of_annotation(hints["return"]) if "return" in hints else ANY
    return param, ret


# --------------------------------------------------------------------------
# The inference pass
# --------------------------------------------------------------------------
@dataclass
class TypeFlowResult:
    """Output types per operator id, plus the incompatible-edge findings."""

    types: dict[int, QType] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _mismatch(op: ops.Operator, have: QType, want: QType,
              what: str, hint: str) -> Diagnostic:
    return Diagnostic(
        rule_id="RP002",
        severity=Severity.ERROR,
        message=(f"type mismatch on {what}: produces {have} but "
                 f"{want} is required"),
        op_id=op.id,
        op_name=op.name,
        hint=hint,
    )


def infer_types(ordered: list[ops.Operator],
                seeds: dict[int, QType] | None = None) -> TypeFlowResult:
    """Propagate quantum types through ``ordered`` (producers first).

    Args:
        ordered: Operators in topological order (loop bodies included,
            before their loop operator).
        seeds: Pre-pinned types (e.g. loop inputs bound to the enclosing
            loop's argument types).
    """
    result = TypeFlowResult(types=dict(seeds or {}))
    types = result.types

    for op in ordered:
        if op.id in types:
            continue
        ins = [types.get(ref.op.id, ANY) if ref is not None else ANY
               for ref in op.inputs]
        types[op.id] = _transfer(op, ins, types, result.diagnostics)
    return result


def _check_udf_param(op: ops.Operator, udf: Udf | None, have: QType,
                     what: str, diags: list[Diagnostic]) -> None:
    if udf is None:
        return
    want, __ = udf_signature(udf)
    if not compatible(have, want):
        diags.append(_mismatch(
            op, have, want, what,
            f"change the {what} annotation or the upstream operator"))


def _transfer(op: ops.Operator, ins: list[QType], types: dict[int, QType],
              diags: list[Diagnostic]) -> QType:
    """One operator's output type; appends RP002 diagnostics on conflicts."""
    first = ins[0] if ins else ANY

    # ------------------------------------------------------------- sources
    if isinstance(op, ops.TextFileSource):
        return TEXT
    if isinstance(op, ops.CollectionSource):
        return type_of_collection(op.data)
    if isinstance(op, ops.TableSource):
        return RECORD
    if isinstance(op, ops.LoopInput):
        return ANY

    # --------------------------------------------------------------- unary
    if isinstance(op, ops.Map):
        _check_udf_param(op, op.udf, first, "map UDF input", diags)
        __, ret = udf_signature(op.udf)
        return ret
    if isinstance(op, ops.FlatMap):
        _check_udf_param(op, op.udf, first, "flatmap UDF input", diags)
        __, ret = udf_signature(op.udf)
        return element_of(ret)
    if isinstance(op, ops.MapPartitions):
        __, ret = udf_signature(op.udf)
        return element_of(ret)
    if isinstance(op, ops.Filter):
        if op.column is not None and not compatible(first, RECORD):
            diags.append(_mismatch(
                op, first, RECORD, "range filter input",
                "range filters need dict-shaped quanta"))
        _check_udf_param(op, op.udf, first, "filter predicate input", diags)
        return first
    if isinstance(op, ops.ZipWithId):
        return pair_of(NUMBER, first)
    if isinstance(op, (ops.Sample, ops.Distinct, ops.Sort, ops.Cache)):
        key = getattr(op, "key", None)
        _check_udf_param(op, key, first, f"{op.name} key input", diags)
        return first
    if isinstance(op, ops.GroupBy):
        _check_udf_param(op, op.key, first, "groupby key input", diags)
        return pair_of(ANY, list_of(first))
    if isinstance(op, ops.ReduceBy):
        _check_udf_param(op, op.key, first, "reduceby key input", diags)
        return first  # the reduced quanta keep the input shape
    if isinstance(op, (ops.GlobalReduce,)):
        return first
    if isinstance(op, ops.Count):
        return NUMBER
    if isinstance(op, ops.PageRank):
        # Engines unpack any 2-sequence, so lists (e.g. JSON-submitted
        # edges, where tuples arrive as lists) are as good as tuples.
        if not (compatible(first, QType("tuple", (ANY, ANY)))
                or compatible(first, QType("list", (ANY,)))):
            diags.append(_mismatch(
                op, first, QType("tuple", (ANY, ANY)), "pagerank input",
                "feed (src, dst) edge pairs, e.g. via a map"))
        return pair_of(ANY, NUMBER)

    # -------------------------------------------------------------- binary
    if isinstance(op, (ops.Union, ops.Intersect)):
        return lub(ins[0], ins[1]) if len(ins) == 2 else first
    if isinstance(op, ops.Join):
        _check_udf_param(op, op.left_key, ins[0], "join left key input",
                         diags)
        if len(ins) == 2:
            _check_udf_param(op, op.right_key, ins[1],
                             "join right key input", diags)
        return pair_of(ins[0], ins[1] if len(ins) == 2 else ANY)
    if isinstance(op, (ops.CartesianProduct, ops.IEJoin)):
        return pair_of(ins[0], ins[1] if len(ins) == 2 else ANY)

    # --------------------------------------------------------------- loops
    if isinstance(op, ops.LoopOperator):
        # Pin the body placeholders to the loop arguments and infer the
        # body; the loop's output is the body output's type.
        seeds = {inp.id: t for inp, t in zip(op.body.inputs, ins)}
        body = infer_types(op.body.operators(), seeds)
        types.update(body.types)
        diags.extend(body.diagnostics)
        return body.types.get(op.body.outputs[0].op.id, ANY)

    # --------------------------------------------------------------- sinks
    if isinstance(op, ops.SinkOperator):
        return first
    return ANY
