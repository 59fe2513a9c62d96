"""Static concurrency checker: machine-checked lock order for the tree.

``python -m repro lint --concurrency`` runs this AST pass over
``src/repro/`` and reports:

========  ==========================================================
id        finding
========  ==========================================================
RC001     a lock the registry does not know: raw ``threading.Lock``/
          ``RLock`` construction, an ``OrderedLock`` with a
          non-literal or undeclared name, a binding that contradicts
          the registry's declared owner, or a declared lock that is
          never constructed
RC002     rank inversion: a lock acquired (directly or through a
          resolved call chain) while holding a lock of equal or
          higher rank
RC003     a declared lock held across a potentially blocking call
          (``Future.result``, executor ``submit``/``shutdown``,
          ``Queue.get``-style ``wait``, ``sleep``)
RC004     a write to a registry-guarded shared attribute outside its
          guarding lock
RC005     mutable instance state written inside an execution hot path
          (``execute``/``_run`` of an ``ExecutionOperator`` subclass):
          cached plans share operator instances across loop iterations
          and concurrently executing jobs, so per-run values must be
          threaded through the call, not stored on ``self``
========  ==========================================================

The pass is deliberately conservative where Python's dynamism defeats
static resolution: it resolves ``with`` targets through literal
``OrderedLock("<name>")`` construction sites, the registry's declared
owner attributes and simple aliasing assignments; call edges are
followed for ``self`` methods, module-level functions, enclosing-scope
closures, and receivers whose attribute name has a declared type
(:data:`repro.concurrency.order.ATTR_TYPES`).  Unresolvable expressions
are skipped, never guessed.

Conventions honoured (and relied on by the runtime):

* methods named ``*_locked`` assume the caller holds the lock — writes
  inside them are exempt from RC004 and blocking calls inside them are
  still flagged by RC003;
* ``__init__`` is exempt from RC004 (construction happens-before
  publication);
* a ``# lock-ok:`` comment on (or directly above) the offending line
  waives a finding, with the comment text as the audit trail.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..concurrency.order import (
    ATTR_TYPES,
    BLOCKING_ATTRS,
    LOCK_ORDER,
    RAW_LOCK_OK,
    LockSpec,
)
from .diagnostics import Severity

#: Raw ``threading`` primitives whose direct construction RC001 flags.
_RAW_PRIMITIVES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Barrier"})

#: Method names that mutate their receiver in place (RC004, RC005).
_MUTATORS = frozenset(
    {"append", "add", "clear", "update", "pop", "popitem", "setdefault",
     "move_to_end", "remove", "discard", "extend", "insert"})

#: Methods that run per-execution on shared operator instances (RC005).
_EXEC_METHODS = frozenset({"execute", "_run"})

#: Root of the class hierarchy RC005 applies to.
_EXEC_OPERATOR_ROOT = "ExecutionOperator"

#: Waiver marker: a line (or the line above) containing it is exempt.
WAIVER_MARK = "lock-ok:"


@dataclass(frozen=True)
class ConcurrencyFinding:
    """One checker finding, anchored at a source line."""

    rule_id: str
    message: str
    path: str
    line: int
    severity: Severity = Severity.ERROR

    def render(self) -> str:
        return (f"{self.rule_id} {str(self.severity):<7}"
                f"{self.path}:{self.line}: {self.message}")

    def __str__(self) -> str:
        return self.render()


# ------------------------------------------------------------------ helpers
def _attr_chain(expr: ast.expr) -> Optional[tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for anything fancier."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _self_path(expr: ast.expr) -> Optional[tuple[str, ...]]:
    """The attribute path of an expression rooted at ``self``.

    Subscripts unwrap to the container's path (``self.a[k]`` mutates
    ``self.a``).
    """
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    chain = _attr_chain(node)
    if chain and chain[0] == "self" and len(chain) > 1:
        return chain[1:]
    return None


def _lock_ctor_name(call: ast.Call) -> Optional[str]:
    """``"OrderedLock"``/``"OrderedRLock"`` if ``call`` constructs one."""
    func = call.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name if name in ("OrderedLock", "OrderedRLock") else None


def _raw_lock_name(call: ast.Call) -> Optional[str]:
    """The primitive name if ``call`` constructs a raw threading lock."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "threading" \
            and func.attr in _RAW_PRIMITIVES:
        return func.attr
    if isinstance(func, ast.Name) and func.id in _RAW_PRIMITIVES:
        return func.id
    return None


def _is_metrics_chain(call: ast.Call) -> bool:
    """``<x>.counter(n).inc()`` / ``.gauge(n).set()`` / ``.histogram(n)
    .observe()`` — the canonical instrument-update idiom, which takes the
    innermost metrics lock."""
    func = call.func
    if not (isinstance(func, ast.Attribute)
            and func.attr in ("inc", "set", "observe")):
        return False
    inner = func.value
    return (isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr in ("counter", "gauge", "histogram"))


# --------------------------------------------------------------- model
@dataclass
class _FunctionInfo:
    """Everything the checker learned about one function."""

    key: str
    module: str
    cls: Optional[str]
    name: str
    node: ast.FunctionDef
    local_locks: dict[str, str] = field(default_factory=dict)
    #: Lock names acquired lexically (``with`` blocks) in this function.
    lexical: set[str] = field(default_factory=set)
    #: Unresolved callee descriptors (resolved against the global table).
    callees: set[tuple[str, ...]] = field(default_factory=set)
    #: Calls made while lexically holding locks:
    #: (held lock names, callee descriptor, line).
    held_calls: list[tuple[tuple[str, ...], tuple[str, ...], int]] = field(
        default_factory=list)
    #: Transitive acquisition summary (filled by the fixed point).
    acquires: set[str] = field(default_factory=set)


class _Registry:
    """Resolution tables derived from :data:`LOCK_ORDER`."""

    def __init__(self, order: Sequence[LockSpec]) -> None:
        self.specs = {spec.name: spec for spec in order}
        #: (module, class-or-None, attr) -> lock name, from spec owners.
        self.attr_locks: dict[tuple[str, Optional[str], str], str] = {}
        #: (module, class) -> {guard path tuple -> lock name}
        self.guards: dict[tuple[str, str], dict[tuple[str, ...], str]] = {}
        for spec in order:
            for owner in spec.owners:
                module, _, dotted = owner.partition(":")
                parts = dotted.split(".")
                if len(parts) == 1:
                    self.attr_locks[(module, None, parts[0])] = spec.name
                else:
                    self.attr_locks[(module, parts[0], parts[1])] = spec.name
            for guard in spec.guards:
                cls, *path = guard.split(".")
                for owner in spec.owners:
                    module = owner.partition(":")[0]
                    self.guards.setdefault((module, cls), {})[
                        tuple(path)] = spec.name

    def rank(self, name: str) -> int:
        return self.specs[name].rank

    def reentrant(self, name: str) -> bool:
        return self.specs[name].reentrant


class _Checker:
    """Scans a set of modules, then runs the global analyses."""

    def __init__(self, registry: Optional[_Registry] = None) -> None:
        self.registry = registry or _Registry(LOCK_ORDER)
        self.functions: dict[str, _FunctionInfo] = {}
        self.findings: list[ConcurrencyFinding] = []
        #: Lock names seen at an ``OrderedLock(...)`` construction site.
        self.constructed: set[str] = set()
        self._module = ""
        self._path = ""
        self._lines: list[str] = []
        #: Module-level lock bindings of the current module.
        self._module_locks: dict[str, dict[str, str]] = {}
        self._module_paths: dict[str, str] = {}
        self._module_lines: dict[str, list[str]] = {}
        #: Class simple name -> base simple names, merged across modules
        #: (the tree has no operator-class name collisions).
        self._class_bases: dict[str, set[str]] = {}
        #: Candidate RC005 sites: (module, class, method, line, target).
        self._exec_writes: list[tuple[str, str, str, int, str]] = []

    # ------------------------------------------------------------ intake
    def scan_module(self, module: str, source: str, path: str) -> None:
        self._module = module
        self._path = path
        self._lines = source.splitlines()
        self._module_paths[module] = path
        self._module_lines[module] = self._lines
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:  # pragma: no cover - tree always parses
            self._add("RC001", exc.lineno or 1, f"cannot parse: {exc.msg}")
            return
        module_locks = self._module_locks.setdefault(module, {})
        # Module-level bindings and raw-lock sweep first, so function
        # bodies can resolve module-level names.
        for node in tree.body:
            bound = self._lock_binding(node)
            if bound is not None:
                target, lock_name = bound
                module_locks[target] = lock_name
        self._sweep_raw_locks(tree)
        self._collect_functions(tree.body, cls=None, prefix=f"{module}:",
                                inherited={})

    def _sweep_raw_locks(self, tree: ast.AST) -> None:
        if self._module in RAW_LOCK_OK:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            raw = _raw_lock_name(node)
            if raw is not None and not self._waived(node.lineno):
                self._add(
                    "RC001", node.lineno,
                    f"raw threading.{raw}() construction; shared locks must "
                    f"be OrderedLock/OrderedRLock instances declared in "
                    f"repro.concurrency.order.LOCK_ORDER")

    def _lock_binding(self, stmt: ast.stmt) -> Optional[tuple[str, str]]:
        """``NAME = OrderedLock("x", ...)`` at the current scope."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return None
        name = self._ordered_lock_name(stmt.value)
        return (target.id, name) if name is not None else None

    def _ordered_lock_name(self, expr: ast.expr) -> Optional[str]:
        """The literal registry name if ``expr`` constructs an ordered
        lock; emits RC001 for non-literal or undeclared names."""
        if not isinstance(expr, ast.Call):
            return None
        ctor = _lock_ctor_name(expr)
        if ctor is None:
            return None
        if not expr.args or not isinstance(expr.args[0], ast.Constant) \
                or not isinstance(expr.args[0].value, str):
            self._add("RC001", expr.lineno,
                      f"{ctor} name must be a string literal so the static "
                      f"checker can resolve its rank")
            return None
        name = expr.args[0].value
        if name not in self.registry.specs:
            self._add("RC001", expr.lineno,
                      f"{ctor}({name!r}) is not declared in "
                      f"repro.concurrency.order.LOCK_ORDER")
            return None
        self.constructed.add(name)
        spec = self.registry.specs[name]
        want_rlock = spec.reentrant
        if want_rlock != (ctor == "OrderedRLock"):
            self._add("RC001", expr.lineno,
                      f"{ctor}({name!r}) does not match the registry kind "
                      f"{spec.kind!r}")
        return name

    # --------------------------------------------------- function intake
    def _collect_functions(self, body: Iterable[ast.stmt],
                           cls: Optional[str], prefix: str,
                           inherited: dict[str, str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)
            elif isinstance(stmt, ast.FunctionDef):
                self._collect_one(stmt, cls, prefix, inherited)

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases = self._class_bases.setdefault(node.name, set())
        for base in node.bases:
            chain = _attr_chain(base)
            if chain:
                bases.add(chain[-1])
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                self._collect_one(stmt, node.name,
                                  f"{self._module}:{node.name}.", {})

    def _collect_one(self, node: ast.FunctionDef, cls: Optional[str],
                     prefix: str, inherited: dict[str, str]) -> None:
        key = f"{prefix}{node.name}"
        info = _FunctionInfo(key=key, module=self._module, cls=cls,
                             name=node.name, node=node,
                             local_locks=dict(inherited))
        # Attribute bindings first, then the walk.
        self.functions[key] = info
        self._prebind_locals(node.body, info)
        self._register_attr_bindings(node.body, cls)
        if cls is not None and node.name in _EXEC_METHODS:
            self._collect_exec_writes(node, cls)
        self._walk(node.body, info, held=[])

    def _collect_exec_writes(self, node: ast.FunctionDef, cls: str) -> None:
        """Record ``self.*`` writes in an execution hot path (RC005)."""
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    for leaf in self._flatten_targets(target):
                        path = _self_path(leaf)
                        if path:
                            self._exec_writes.append(
                                (self._module, cls, node.name, leaf.lineno,
                                 ".".join(("self",) + path)))
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                    path = _self_path(func.value)
                    if path:
                        self._exec_writes.append(
                            (self._module, cls, node.name, stmt.lineno,
                             ".".join(("self",) + path) + f".{func.attr}()"))

    def _prebind_locals(self, body: Iterable[ast.stmt],
                        info: _FunctionInfo) -> None:
        """Resolve local lock aliases in statement order (one pass)."""
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign) or \
                        len(node.targets) != 1 or \
                        not isinstance(node.targets[0], ast.Name):
                    continue
                target = node.targets[0].id
                resolved = self._resolve_value(node.value, info)
                if resolved is not None:
                    info.local_locks[target] = resolved

    def _resolve_value(self, expr: ast.expr,
                       info: _FunctionInfo) -> Optional[str]:
        """Lock name an expression evaluates to, if statically known."""
        direct = self._ordered_lock_name(expr) \
            if isinstance(expr, ast.Call) else None
        if direct is not None:
            return direct
        if isinstance(expr, ast.Name):
            if expr.id in info.local_locks:
                return info.local_locks[expr.id]
            return self._module_locks.get(info.module, {}).get(expr.id)
        if isinstance(expr, ast.Attribute):
            chain = _attr_chain(expr)
            if chain and chain[0] == "self" and len(chain) == 2:
                return self.registry.attr_locks.get(
                    (info.module, info.cls, chain[1]))
            if chain and len(chain) == 1:
                return self._module_locks.get(info.module, {}).get(chain[0])
            return None
        if isinstance(expr, ast.IfExp):
            a = self._resolve_value(expr.body, info)
            b = self._resolve_value(expr.orelse, info)
            return a if a is not None and a == b else (a or b)
        return None

    def _register_attr_bindings(self, body: Iterable[ast.stmt],
                                cls: Optional[str]) -> None:
        """``self.X = OrderedLock("n")`` — record and cross-check."""
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign) or \
                        len(node.targets) != 1:
                    continue
                target = node.targets[0]
                chain = _attr_chain(target) \
                    if isinstance(target, ast.Attribute) else None
                if not chain or chain[0] != "self" or len(chain) != 2:
                    continue
                name = self._ordered_lock_name(node.value) \
                    if isinstance(node.value, ast.Call) else None
                if name is None:
                    continue
                lock_key = (self._module, cls, chain[1])
                declared = self.registry.attr_locks.get(lock_key)
                if declared is not None and declared != name:
                    self._add(
                        "RC001", node.lineno,
                        f"self.{chain[1]} is declared as lock {declared!r} "
                        f"in the registry but bound to {name!r} here")
                self.registry.attr_locks[lock_key] = name

    # ----------------------------------------------------------- walking
    def _walk(self, body: Iterable[ast.stmt], info: _FunctionInfo,
              held: list[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                # A nested def: analyzed as its own function against the
                # enclosing lock scope; it does not run here.
                self._collect_one(stmt, info.cls, f"{info.key}.",
                                  info.local_locks)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            if isinstance(stmt, ast.With):
                self._walk_with(stmt, info, held)
                continue
            self._scan_exprs(stmt, info, held)
            self._check_write(stmt, info, held)
            for child_body in self._inner_bodies(stmt):
                self._walk(child_body, info, held)

    @staticmethod
    def _inner_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        bodies = []
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if block:
                bodies.append(block)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    def _walk_with(self, stmt: ast.With, info: _FunctionInfo,
                   held: list[str]) -> None:
        acquired: list[str] = []
        for item in stmt.items:
            self._scan_expr(item.context_expr, info, held)
            name = self._resolve_value(item.context_expr, info)
            if name is None:
                continue
            info.lexical.add(name)
            self._check_acquire(name, held, stmt.lineno)
            held.append(name)
            acquired.append(name)
        self._walk(stmt.body, info, held)
        for _ in acquired:
            held.pop()

    def _check_acquire(self, name: str, held: list[str], line: int) -> None:
        if not held:
            return
        reg = self.registry
        max_rank = max(reg.rank(h) for h in held)
        if reg.rank(name) > max_rank:
            return
        if reg.reentrant(name) and name in held:
            return
        if self._waived(line):
            return
        chain = " -> ".join(f"{h}({reg.rank(h)})" for h in held)
        self._add("RC002", line,
                  f"acquires {name!r} (rank {reg.rank(name)}) while "
                  f"holding {chain}; ranks must strictly increase")

    # ------------------------------------------------------- expressions
    def _scan_exprs(self, stmt: ast.stmt, info: _FunctionInfo,
                    held: list[str]) -> None:
        """Scan the statement's own expressions (not nested blocks)."""
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._scan_expr(node, info, held)

    def _scan_expr(self, expr: ast.expr, info: _FunctionInfo,
                   held: list[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda,)):
                continue  # deferred execution
            if not isinstance(node, ast.Call):
                continue
            self._scan_call(node, info, held)

    def _scan_call(self, call: ast.Call, info: _FunctionInfo,
                   held: list[str]) -> None:
        in_locked_helper = info.name.endswith("_locked")
        if _is_metrics_chain(call):
            if held:
                info.held_calls.append(
                    (tuple(held), ("lock", "metrics"), call.lineno))
            info.callees.add(("lock", "metrics"))
            return
        callee = self._callee_descriptor(call, info)
        if callee is not None:
            info.callees.add(callee)
            if held:
                info.held_calls.append((tuple(held), callee, call.lineno))
        if (held or in_locked_helper) and self._is_blocking(call) \
                and not self._waived(call.lineno):
            where = ("under " + ", ".join(repr(h) for h in held) if held
                     else f"in {info.name} (caller holds a lock by "
                          f"convention)")
            target = self._call_repr(call)
            self._add("RC003", call.lineno,
                      f"potentially blocking call {target} {where}; a lock "
                      f"held across it can deadlock the worker pool")

    @staticmethod
    def _call_repr(call: ast.Call) -> str:
        chain = _attr_chain(call.func)
        return ".".join(chain) + "()" if chain else "<call>()"

    def _is_blocking(self, call: ast.Call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        name = func.attr
        if name in BLOCKING_ATTRS:
            return True
        # Queue.get blocks; dict.get does not.  Only flag `.get()` when
        # the receiver's name says queue.
        if name in ("get", "get_nowait", "join"):
            chain = _attr_chain(func.value)
            return bool(chain) and "queue" in chain[-1].lower()
        return False

    def _callee_descriptor(self, call: ast.Call,
                           info: _FunctionInfo) -> Optional[tuple[str, ...]]:
        func = call.func
        if isinstance(func, ast.Name):
            return ("scope", info.key, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        chain = _attr_chain(func)
        if chain is None:
            return None
        if chain[0] == "self" and len(chain) == 2 and info.cls is not None:
            return ("method", info.module, info.cls, chain[1])
        receiver = chain[-2]
        typed = ATTR_TYPES.get(receiver)
        if typed is not None:
            return ("typed", typed, chain[-1])
        return None

    # ------------------------------------------------------------ writes
    def _check_write(self, stmt: ast.stmt, info: _FunctionInfo,
                     held: list[str]) -> None:
        if info.cls is None or info.name == "__init__" \
                or info.name.endswith("_locked"):
            return
        guards = self.registry.guards.get((info.module, info.cls))
        if not guards:
            return
        paths: list[tuple[tuple[str, ...], int]] = []
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                for leaf in self._flatten_targets(target):
                    path = _self_path(leaf)
                    if path:
                        paths.append((path, leaf.lineno))
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                path = _self_path(target)
                if path:
                    paths.append((path, target.lineno))
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                path = _self_path(func.value)
                if path:
                    paths.append((path, stmt.value.lineno))
        for path, line in paths:
            for guard_path, lock_name in guards.items():
                overlap = (path[:len(guard_path)] == guard_path
                           or guard_path[:len(path)] == path)
                if not overlap or lock_name in held:
                    continue
                if self._waived(line):
                    continue
                dotted = ".".join(("self",) + path)
                self._add(
                    "RC004", line,
                    f"writes {dotted} outside its guarding lock "
                    f"{lock_name!r} (declared in the lock registry)")

    @staticmethod
    def _flatten_targets(target: ast.expr) -> list[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[ast.expr] = []
            for elt in target.elts:
                out.extend(_Checker._flatten_targets(elt))
            return out
        return [target]

    # ------------------------------------------------------ global phase
    def finalize(self, require_all_locks: bool = False
                 ) -> list[ConcurrencyFinding]:
        """Run the interprocedural fixed point and return all findings."""
        resolved: dict[str, set[str]] = {}
        for key, info in self.functions.items():
            resolved[key] = {
                target for callee in info.callees
                for target in [self._resolve_callee(callee)]
                if target is not None and target in self.functions}
            info.acquires = set(info.lexical)
            for callee in info.callees:
                if callee[0] == "lock":
                    info.acquires.add(callee[1])
        changed = True
        while changed:
            changed = False
            for key, info in self.functions.items():
                for target in resolved[key]:
                    extra = self.functions[target].acquires - info.acquires
                    if extra:
                        info.acquires |= extra
                        changed = True
        for info in self.functions.values():
            for held, callee, line in info.held_calls:
                acquired: set[str] = set()
                if callee[0] == "lock":
                    acquired = {callee[1]}
                else:
                    target = self._resolve_callee(callee)
                    if target is not None and target in self.functions:
                        acquired = self.functions[target].acquires
                self._emit_call_edges(info, held, acquired, line)
        self._emit_exec_writes()
        if require_all_locks:
            for spec in LOCK_ORDER:
                if spec.name not in self.constructed:
                    self.findings.append(ConcurrencyFinding(
                        "RC001",
                        f"lock {spec.name!r} is declared in the registry "
                        f"but never constructed as an ordered lock",
                        path="<registry>", line=0))
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return self.findings

    def _emit_exec_writes(self) -> None:
        """RC005: instance-state writes inside operator execution paths."""
        operator_classes = {_EXEC_OPERATOR_ROOT}
        changed = True
        while changed:
            changed = False
            for cls_name, bases in self._class_bases.items():
                if cls_name not in operator_classes \
                        and bases & operator_classes:
                    operator_classes.add(cls_name)
                    changed = True
        for module, cls, method, line, target in self._exec_writes:
            if cls not in operator_classes or self._waived_in(module, line):
                continue
            self.findings.append(ConcurrencyFinding(
                "RC005",
                f"{cls}.{method} writes {target}: mutable instance state "
                f"in an execution hot path; cached plans share operator "
                f"instances across loop iterations and concurrent jobs — "
                f"thread the value through the call instead",
                path=self._module_paths.get(module, module), line=line))

    def _emit_call_edges(self, info: _FunctionInfo, held: tuple[str, ...],
                         acquired: set[str], line: int) -> None:
        reg = self.registry
        max_rank = max(reg.rank(h) for h in held)
        for name in sorted(acquired):
            if reg.rank(name) > max_rank:
                continue
            if reg.reentrant(name) and name in held:
                continue
            if self._waived_in(info.module, line):
                continue
            chain = " -> ".join(f"{h}({reg.rank(h)})" for h in held)
            self.findings.append(ConcurrencyFinding(
                "RC002",
                f"call chain from {info.key} acquires {name!r} (rank "
                f"{reg.rank(name)}) while holding {chain}; ranks must "
                f"strictly increase",
                path=self._module_paths.get(info.module, info.module),
                line=line))

    def _resolve_callee(self, callee: tuple[str, ...]) -> Optional[str]:
        kind = callee[0]
        if kind == "lock":
            return None
        if kind == "method":
            _, module, cls, name = callee
            return f"{module}:{cls}.{name}"
        if kind == "typed":
            _, typekey, name = callee
            module, _, cls = typekey.partition(":")
            return f"{module}:{cls}.{name}"
        if kind == "scope":
            _, caller_key, name = callee
            # Innermost enclosing scope first, then module level.
            prefix = caller_key
            while ":" in prefix:
                candidate = f"{prefix}.{name}"
                if candidate in self.functions:
                    return candidate
                base, sep, _ = prefix.rpartition(".")
                if not sep:
                    break
                prefix = base
            module = caller_key.partition(":")[0]
            return f"{module}:{name}"
        return None

    # --------------------------------------------------------- plumbing
    def _waived(self, line: int) -> bool:
        return self._waived_lines(self._lines, line)

    def _waived_in(self, module: str, line: int) -> bool:
        return self._waived_lines(
            self._module_lines.get(module, self._lines), line)

    @staticmethod
    def _waived_lines(lines: list[str], line: int) -> bool:
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(lines) and WAIVER_MARK in lines[lineno - 1]:
                return True
        return False

    def _add(self, rule_id: str, line: int, message: str) -> None:
        self.findings.append(ConcurrencyFinding(
            rule_id, message, path=self._path, line=line))


# ----------------------------------------------------------------- API
def check_modules(modules: Iterable[tuple[str, str, str]],
                  require_all_locks: bool = False
                  ) -> list[ConcurrencyFinding]:
    """Check ``(module_name, source, path)`` triples as one program."""
    checker = _Checker()
    for module, source, path in modules:
        checker.scan_module(module, source, path)
    return checker.finalize(require_all_locks=require_all_locks)


def check_source(source: str, module: str = "fixture",
                 path: str = "<fixture>") -> list[ConcurrencyFinding]:
    """Check one source blob (test fixtures, editor integration)."""
    return check_modules([(module, source, path)])


def package_root() -> Path:
    """The installed ``repro`` package directory (the tree to check)."""
    return Path(__file__).resolve().parent.parent


def check_package(root: Optional[Path] = None) -> list[ConcurrencyFinding]:
    """Check every module under ``root`` (default: the repro package)."""
    base = root if root is not None else package_root()
    modules = []
    for file in sorted(base.rglob("*.py")):
        rel = file.relative_to(base.parent)
        module = ".".join(rel.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        modules.append((module, file.read_text(), str(file)))
    return check_modules(modules, require_all_locks=True)
