"""Structural plan fingerprints for the execution-plan cache.

A fingerprint is a SHA-256 digest over a canonical token tree of the plan:
operators in deterministic topological order (loop bodies included), their
wiring expressed as indices into that order, and every semantically relevant
operator attribute.  Two plans share a fingerprint only if they are
structurally identical *and* all their parameters — including UDF code —
agree, so reusing a cached execution plan for a matching fingerprint is
behaviour-preserving.

A UDF is tokenized from what :func:`~repro.core.udf.reads` says it reads
(DESIGN.md §"Execution-plan cache"), never from memory addresses: the same
``lambda`` re-created for a resubmitted REST document hashes identically, a
rebound global constant or helper does not.  Anything the tokenizer cannot
prove stable — objects whose only identity is their address, exotic
callables, over-deep structures — poisons the fingerprint and
:func:`plan_fingerprint` returns ``None``, which callers must treat as "do
not cache".  Unstable input can never produce a false hit, only a miss.
"""

from __future__ import annotations

import functools
import hashlib
from types import CodeType, FunctionType, MethodType, ModuleType
from typing import TYPE_CHECKING, Any

import numpy as np

from .operators import LoopOperator, Operator
from .udf import Udf, reads

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
    """Turns values into stable, primitive-only token trees.  One serves a
    :class:`PlanFingerprints` pass: what UDFs read is tokenized once per
    pass (memo by ``id``) unless it holds a recursion."""

    def __init__(self) -> None:
        self.stable = True
        self.culprit: str | None = None  # the first unstable value read
        self._memo: dict[int, tuple] = {}  # id -> (value, token)
        self._walking: list[int] = []  # ids of the functions being walked
        self._backs = 0  # back-references made so far

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
        if isinstance(value, type):  # named, never read
            return ("class", value.__module__, value.__qualname__)
        if isinstance(value, Udf):
            return ("udf", self.token(value.fn, depth + 1),
                    value.selectivity, value.cpu_weight, value.name)
        if isinstance(value, FunctionType):
            return self._function(value, depth)
        if isinstance(value, CodeType):
            token, stable = _code_token(value)
            self.stable = self.stable and stable
            return token
        if isinstance(value, functools.partial):
            return ("partial", self.token(value.func, depth + 1),
                    self.token(list(value.args), depth + 1),
                    self.token(value.keywords, depth + 1))
        if isinstance(value, MethodType):
            return ("method", self.token(value.__func__, depth + 1),
                    self.token(value.__self__, depth + 1))
        if isinstance(value, np.ndarray) and not value.dtype.hasobject:
            return ("ndarray", value.dtype.str, value.shape,
                    hashlib.sha256(value.tobytes()).hexdigest())
        if isinstance(value, ModuleType):
            return ("module", value.__name__)
        if callable(value) and hasattr(value, "__qualname__"):
            # Builtins and method descriptors (len, str.split) are named; a
            # builtin bound to an object ({}.get) adds the object.
            return ("named", getattr(value, "__module__", None),
                    value.__qualname__,
                    self.token(getattr(value, "__self__", None), depth + 1))
        self.stable = False
        return ("unstable", id(value))

    def _function(self, fn: Any, depth: int) -> tuple:
        if id(fn) in self._walking:  # recursion: name it by distance
            self._backs += 1
            return ("back", self._walking[::-1].index(id(fn)))
        self._walking.append(id(fn))
        token = ("fn", tuple(self._read(kind, name, value, depth + 1)
                             for kind, name, value in reads(fn)))
        self._walking.pop()
        return token

    def _read(self, kind: str, name: str | None, value: Any,
              depth: int) -> tuple:
        memo = self._memo.get(id(value))
        if memo is not None:
            return kind, name, memo[1]
        stable, backs, self.stable = self.stable, self._backs, True
        token = self.token(value, depth)
        if token[0] == "fn":  # a helper is repr'd once, not per reader
            token = ("fn", _sha(token))
        if not self.stable:
            self.culprit = self.culprit or name and \
                f"{kind} {name!r} ({type(value).__name__})"
        elif self._backs == backs:  # its token means the same anywhere
            self._memo[id(value)] = (value, token)
        self.stable = stable and self.stable
        return kind, name, token


@functools.lru_cache(maxsize=4096)
def _code_token(code: CodeType) -> tuple[tuple, bool]:
    """A code object's token, and whether its constants tokenize stably:
    shared across passes (code is immutable).  Nested code objects follow
    in the walk; a placeholder stands in for them among the constants."""
    fp = _Fingerprinter()
    return ("code", code.co_code, code.co_varnames, code.co_freevars,
            code.co_argcount, tuple(("code",) if isinstance(c, CodeType)
                                    else fp.token(c, 1)
                                    for c in code.co_consts)), fp.stable


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
            in sorted order, that did not tokenize stably, and what its UDF
            read that did not (``"global 'rng' (Random)"``) or ``None``.
    """

    def __init__(self, plan: "RheemPlan") -> None:
        self.plan = plan
        self.unstable: dict[int, tuple[str, str | None]] = {}
        self._fp = _Fingerprinter()
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
        fp = self._fp
        values = op.__dict__
        attrs = []
        for key in sorted(values):
            if key not in _SKIP_ATTRS:
                fp.stable, fp.culprit = True, None
                attrs.append((key, fp.token(values[key])))
                if not fp.stable:  # the first; the rest is moot
                    self.unstable[op.id] = key, fp.culprit
                    return None
        if body and any(own is None for own, __ in body[0]):
            return None
        return type(op).__name__, tuple(attrs), body


def plan_fingerprint(plan: "RheemPlan") -> str | None:
    """Digest of ``plan``'s structure and parameters, loop bodies included;
    ``None`` if unstable, and the caller must skip caching this plan."""
    return PlanFingerprints(plan).digest
