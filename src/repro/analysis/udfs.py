"""UDF introspection (analysis pass 2).

The optimizer trusts UDF annotations (selectivity, CPU weight) and assumes
UDFs are pure; RHEEMix observes that dishonest hints are the dominant cause
of mis-chosen platforms.  This pass inspects the *code* behind each UDF —
closure cells, referenced globals, bytecode — to detect:

* **mutable-state captures** — a closed-over list/dict/set the UDF can
  mutate between records (breaks re-execution and platform migration);
* **nondeterminism** — calls into ``random``/``time``/``uuid``-style APIs
  (breaks fault-tolerant re-runs and makes measured cardinalities
  unrepeatable);
* **global writes** — ``global``-statement stores inside the UDF.

Findings feed both lint rules (RP009/RP010) and the optimizer's cardinality
confidence: estimates flowing through a flagged UDF are trusted less.
"""

from __future__ import annotations

import dis
from dataclasses import dataclass, field
from types import CodeType, ModuleType

from ..core import operators as ops
from ..core.udf import Udf, reads

#: Modules whose use inside a UDF marks it nondeterministic.
NONDETERMINISTIC_MODULES = {"random", "time", "uuid", "secrets"}

#: Bare names that resolve to nondeterministic calls even without their
#: module prefix (``from random import random``).
NONDETERMINISTIC_NAMES = {
    "random", "randint", "randrange", "uniform", "shuffle", "choice",
    "choices", "sample", "getrandbits", "time", "time_ns", "perf_counter",
    "monotonic", "uuid1", "uuid4", "token_bytes", "token_hex", "urandom",
}

_MUTABLE_TYPES = (list, dict, set, bytearray)

_STORE_GLOBAL = dis.opmap["STORE_GLOBAL"]
_DELETE_GLOBAL = dis.opmap["DELETE_GLOBAL"]


@dataclass
class UdfReport:
    """What introspection found out about one UDF."""

    name: str
    mutable_captures: list[str] = field(default_factory=list)
    nondeterministic_calls: list[str] = field(default_factory=list)
    global_writes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.mutable_captures or self.nondeterministic_calls
                    or self.global_writes)


def _resolves_nondeterministic(name: str, globals_ns: dict) -> bool:
    """Whether ``name`` in the UDF's globals is a nondeterminism source."""
    target = globals_ns.get(name)
    if isinstance(target, ModuleType):
        return target.__name__.split(".")[0] in NONDETERMINISTIC_MODULES
    module = getattr(target, "__module__", None)
    if module and module.split(".")[0] in NONDETERMINISTIC_MODULES:
        return True
    # Unresolvable names (builtins, late-bound) fall back to the name list.
    return target is None and name in NONDETERMINISTIC_NAMES


def introspect_udf(udf) -> UdfReport:
    """Analyze one UDF (a :class:`Udf` or any plain callable); results are
    cached on the instance."""
    cached = getattr(udf, "_introspection", None)
    if cached is not None:
        return cached
    fn = udf.fn if isinstance(udf, Udf) else udf
    name = udf.name if isinstance(udf, Udf) else getattr(
        fn, "__name__", repr(fn))
    report = UdfReport(name=name)
    codes: list[tuple[object, dict]] = []  # each with its names' values
    for kind, var, value in reads(fn):
        if kind == "closure" and isinstance(value, _MUTABLE_TYPES):
            report.mutable_captures.append(var)
        elif kind == "code":
            codes.append((value, {}))
        elif kind in ("global", "unbound"):
            codes[-1][1][var] = value
    # ``dis`` opens only where a finding is possible: a nondeterministic load
    # needs its name among ``names``, a global write its opcode.
    for code, names in codes:
        if not isinstance(code, CodeType):  # UNREADABLE: nested too deep
            continue
        opcodes = code.co_code[::2]
        if not (_STORE_GLOBAL in opcodes or _DELETE_GLOBAL in opcodes or any(
                _resolves_nondeterministic(n, names) for n in names)):
            continue
        for instr in dis.get_instructions(code):
            if instr.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                if _resolves_nondeterministic(instr.argval, names) and \
                        instr.argval not in report.nondeterministic_calls:
                    report.nondeterministic_calls.append(instr.argval)
            elif instr.opname in ("STORE_GLOBAL", "DELETE_GLOBAL"):
                if instr.argval not in report.global_writes:
                    report.global_writes.append(instr.argval)
    try:
        udf._introspection = report
    except AttributeError:  # pragma: no cover - exotic callables
        pass
    return report


#: Operator attributes that may hold UDFs, in reporting order.
_UDF_ATTRS = ("udf", "key", "reducer", "left_key", "right_key", "condition")


def operator_udfs(op: ops.Operator) -> list[tuple[str, Udf]]:
    """All UDFs attached to ``op`` as ``(attribute, udf)`` pairs."""
    out = []
    for attr in _UDF_ATTRS:
        value = getattr(op, attr, None)
        if isinstance(value, Udf):
            out.append((attr, value))
    return out


def introspect_plan_udfs(
        ordered: list[ops.Operator]) -> dict[int, list[tuple[str, UdfReport]]]:
    """Introspect every UDF of every operator; keyed by operator id."""
    out: dict[int, list[tuple[str, UdfReport]]] = {}
    for op in ordered:
        reports = [(attr, introspect_udf(udf))
                   for attr, udf in operator_udfs(op)]
        if reports:
            out[op.id] = reports
    return out
