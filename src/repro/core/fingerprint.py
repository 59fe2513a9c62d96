"""Structural plan fingerprints for the execution-plan cache.

A fingerprint is a SHA-256 digest over a canonical token tree of the plan:
operators in deterministic topological order (loop bodies included), their
wiring expressed as indices into that order, and every semantically relevant
operator attribute.  Two plans share a fingerprint only if they are
structurally identical *and* all their parameters — including UDF code —
agree, so reusing a cached execution plan for a matching fingerprint is
behaviour-preserving.

UDFs are tokenized from their code objects (bytecode, constants, names,
defaults, closure cell contents), never from their memory addresses: the
same ``lambda`` re-created for a resubmitted REST document hashes
identically.  Anything the tokenizer cannot prove stable — objects whose
only identity is their address, exotic callables, over-deep structures —
poisons the fingerprint and :func:`plan_fingerprint` returns ``None``,
which callers must treat as "do not cache".  Unstable input can therefore
never produce a false cache hit, only a conservative miss.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from types import CodeType
from typing import TYPE_CHECKING, Any

from .operators import LoopOperator, Operator
from .udf import Udf

if TYPE_CHECKING:  # pragma: no cover
    from .plan import RheemPlan

#: Operator attributes that do not affect what a plan computes: identity
#: counters, wiring (captured structurally), back-references, and the
#: optimizer's per-run scratch (``pinned_bytes`` is written during record
#: width estimation).
_SKIP_ATTRS = frozenset(
    {"id", "inputs", "side_inputs", "downstream", "body", "pinned_bytes"})

#: Recursion guard for pathological self-referential values.
_MAX_DEPTH = 24


class _Fingerprinter:
    """Turns values into stable, primitive-only token trees."""

    def __init__(self) -> None:
        self.stable = True

    # ------------------------------------------------------------ values
    def token(self, value: Any, depth: int = 0) -> tuple:
        if depth > _MAX_DEPTH:
            self.stable = False
            return ("too-deep",)
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return (type(value).__name__, value)
        if isinstance(value, (list, tuple)):
            return ("seq", type(value).__name__,
                    tuple(self.token(v, depth + 1) for v in value))
        if isinstance(value, (set, frozenset)):
            try:
                items = sorted(value)
            except TypeError:
                items = sorted(value, key=repr)
            return ("set", tuple(self.token(v, depth + 1) for v in items))
        if isinstance(value, dict):
            pairs = sorted(value.items(), key=lambda kv: repr(kv[0]))
            return ("dict", tuple(
                (self.token(k, depth + 1), self.token(v, depth + 1))
                for k, v in pairs))
        if isinstance(value, Udf):
            return ("udf", self.token(value.fn, depth + 1),
                    value.selectivity, value.cpu_weight, value.name)
        if isinstance(value, CodeType):
            return self._code(value, depth)
        if callable(value):
            return self._callable(value, depth)
        self.stable = False
        return ("unstable", id(value))

    # --------------------------------------------------------- callables
    def _callable(self, fn: Any, depth: int) -> tuple:
        if isinstance(fn, functools.partial):
            return ("partial", self.token(fn.func, depth + 1),
                    self.token(list(fn.args), depth + 1),
                    self.token(fn.keywords, depth + 1))
        if inspect.ismethod(fn):
            return ("method", self.token(fn.__func__, depth + 1),
                    self.token(fn.__self__, depth + 1))
        code = getattr(fn, "__code__", None)
        if code is None:
            # Builtins and method descriptors (str.split, operator.add...)
            # are singletons identified by module + qualified name.
            module = getattr(fn, "__module__", None)
            qualname = getattr(fn, "__qualname__", None)
            if qualname is None:
                self.stable = False
                return ("unstable-callable", id(fn))
            return ("builtin", module, qualname)
        cells: tuple = ()
        closure = getattr(fn, "__closure__", None)
        if closure:
            try:
                cells = tuple(self.token(cell.cell_contents, depth + 1)
                              for cell in closure)
            except ValueError:  # empty cell
                self.stable = False
                cells = ("empty-cell",)
        return ("fn", self._code(code, depth),
                self.token(getattr(fn, "__defaults__", None), depth + 1),
                self.token(getattr(fn, "__kwdefaults__", None), depth + 1),
                cells)

    def _code(self, code: CodeType, depth: int) -> tuple:
        consts = tuple(self.token(c, depth + 1) for c in code.co_consts)
        return ("code", code.co_code, consts, code.co_names,
                code.co_varnames, code.co_freevars, code.co_argcount)


def _wiring(op: Operator, address: dict[int, Any]) -> tuple:
    """``op``'s data edges by slot, then its broadcast edges, each producer
    named by what ``address`` holds for it (``KeyError`` if nothing)."""
    return (tuple((address[ref.op.id], ref.output_index)
                  if ref is not None else None for ref in op.inputs),
            tuple((address[ref.op.id], ref.output_index)
                  for ref in op.side_inputs))


def _sha(tree: tuple) -> str:
    return hashlib.sha256(repr(tree).encode()).hexdigest()


class PlanFingerprints:
    """One tokenization pass over ``plan``: every fingerprint fact at once.

    Each operator's attributes (loop bodies included) are tokenized exactly
    once; a subplan digest hashes them with the producers' digests, and the
    whole-plan digest only combines subplan digests with the wiring.

    Attributes:
        plan: The plan the pass was computed from.  Operators are mutable
            between submissions, so a pass is only reused for this very
            object (``is``) and nothing is stored on it or its operators.
        digest: Whole-plan digest, ``None`` when any attribute is unstable
            (combined on first use: a reuse-served submission never asks).
        unstable_op: First top-level operator (topological order) that is,
            or whose loop body is, unstable; ``None`` for a stable plan.
        subplans: Top-level operator id -> Merkle digest of the computation
            rooted there; an unstable upstream cone leaves the id out.
        unstable: Operator id (body operators too) -> its first attribute,
            in sorted order, that did not tokenize stably.
    """

    def __init__(self, plan: "RheemPlan") -> None:
        self.plan = plan
        self.unstable: dict[int, str] = {}
        self.subplans: dict[int, str] = {}
        self.unstable_op: Operator | None = None
        for op in plan.operators():
            own = self._own(op)
            if own is None:
                if self.unstable_op is None:
                    self.unstable_op = op
                continue
            try:
                self.subplans[op.id] = _sha((own, _wiring(op, self.subplans)))
            except KeyError:  # a producer's cone is unstable
                pass

    @functools.cached_property
    def digest(self) -> str | None:
        if self.unstable_op is not None:
            return None
        # Subplan digests say WHAT each operator computes; the indices add
        # which operators share a producer and which are copies of it.
        ops = self.plan.operators()
        index = {op.id: i for i, op in enumerate(ops)}
        return _sha((
            tuple((self.subplans[op.id], _wiring(op, index)) for op in ops),
            tuple(index[sink.id] for sink in self.plan.sinks)))

    def _own(self, op: Operator) -> tuple | None:
        """Token of ``op`` alone — type, attributes, loop body — or
        ``None`` when an attribute of it or of its body is unstable."""
        body: tuple = ()
        if isinstance(op, LoopOperator):
            # A miniature plan, wired by body-local index; a ``LoopInput``
            # carries its slot, which binds it to the loop's outer edge.
            body_ops = op.body.operators()
            index = {o.id: i for i, o in enumerate(body_ops)}
            body = (tuple((self._own(o), _wiring(o, index))
                          for o in body_ops),
                    tuple(index[inp.id] for inp in op.body.inputs),
                    tuple((index[ref.op.id], ref.output_index)
                          for ref in op.body.outputs))
        fp = _Fingerprinter()
        values = op.__dict__
        attrs = []
        for key in sorted(values):
            if key not in _SKIP_ATTRS:
                attrs.append((key, fp.token(values[key])))
                if not fp.stable:  # the first; the rest is moot
                    self.unstable[op.id] = key
                    return None
        if body and any(own is None for own, __ in body[0]):
            return None
        return type(op).__name__, tuple(attrs), body


def plan_fingerprint(plan: "RheemPlan") -> str | None:
    """Digest of ``plan``'s structure and parameters; ``None`` if unstable.

    The digest covers loop bodies, so a loop's fingerprint pins its body
    operators, feedback wiring, and iteration bounds.  ``None`` means some
    operator attribute could not be tokenized reproducibly — the caller
    must skip caching for this plan.
    """
    return PlanFingerprints(plan).digest


def subplan_fingerprints(plan: "RheemPlan") -> dict[int, str]:
    """Merkle digest of the *computation rooted at each operator*.

    Returns ``{operator id -> digest}`` for every top-level operator of
    ``plan`` whose upstream cone tokenizes stably.  An operator's digest
    combines its own token (attributes plus, for loops, the body's
    structure) with the digests of its data and broadcast producers, so
    two operators share a digest exactly when they compute the same
    function of the same fingerprinted sources — across plans and across
    submissions.  Instability poisons transitively: an unstable UDF takes
    its whole downstream chain out of the map (a conservative miss).
    """
    return PlanFingerprints(plan).subplans
