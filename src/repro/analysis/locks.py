"""Static concurrency checker: the lock rules the runtime cannot enforce.

``python -m repro lint --concurrency`` runs this AST pass over
``src/repro/`` and reports:

========  ==========================================================
id        finding
========  ==========================================================
RC001     a lock the registry does not know: raw ``threading``
          primitive construction outside
          :mod:`repro.concurrency.runtime`, an ``OrderedLock`` whose
          name is non-literal or undeclared, or a declared lock that is
          never constructed
RC005     mutable instance state written inside an execution hot path
          (``execute``/``_run`` of an ``ExecutionOperator`` subclass):
          one operator instance re-executes across loop iterations,
          retried attempts and — through the plan cache — later jobs on
          the same context, so a value stored on ``self`` by one run is
          read by the next (a do-while condition that stopped a
          re-executed loop after one iteration was this bug); per-run
          values must be threaded through the call
========  ==========================================================

Rank order is not checked here: every lock is an ``OrderedLock``, and
under ``REPRO_LOCK_CHECK`` (on in every test) an out-of-order
acquisition raises :class:`~repro.concurrency.LockOrderViolation` on
the spot.  The two rules above are what that assertion cannot see: a
lock that bypasses the wrappers, and per-run state that outlives its
run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from ..concurrency.order import LOCK_ORDER, RAW_LOCK_OK
from .diagnostics import Severity

#: Raw ``threading`` primitives whose direct construction RC001 flags.
_RAW_PRIMITIVES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Barrier"})

#: Method names that mutate their receiver in place (RC005).
_MUTATORS = frozenset(
    {"append", "add", "clear", "update", "pop", "popitem", "setdefault",
     "move_to_end", "remove", "discard", "extend", "insert"})

#: Methods that run per-execution on re-executed operator instances (RC005).
_EXEC_METHODS = frozenset({"execute", "_run"})

#: Root of the class hierarchy RC005 applies to.
_EXEC_OPERATOR_ROOT = "ExecutionOperator"


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


def _call_name(call: ast.Call) -> Optional[str]:
    """``f`` for ``f(...)`` and ``m.f(...)``; None for anything fancier."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_raw_lock(call: ast.Call) -> bool:
    """Whether ``call`` constructs a raw ``threading`` primitive."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return (isinstance(func.value, ast.Name)
                and func.value.id == "threading"
                and func.attr in _RAW_PRIMITIVES)
    return isinstance(func, ast.Name) and func.id in _RAW_PRIMITIVES


def _self_path(expr: ast.expr) -> Optional[str]:
    """``"self.a.b"`` for an expression rooted at ``self``, else None.

    Subscripts unwrap to the container (``self.a[k]`` mutates ``self.a``).
    """
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id == "self":
        return ".".join(["self", *reversed(parts)])
    return None


def _flatten_targets(target: ast.expr) -> list[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        return [leaf for elt in target.elts for leaf in _flatten_targets(elt)]
    return [target]


def _state_writes(method: ast.FunctionDef) -> list[tuple[int, str]]:
    """``(line, target)`` for every ``self.*`` write inside ``method``."""
    writes: list[tuple[int, str]] = []
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for leaf in _flatten_targets(target):
                    path = _self_path(leaf)
                    if path:
                        writes.append((leaf.lineno, path))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            path = _self_path(node.func.value)
            if path:
                writes.append((node.lineno, f"{path}.{node.func.attr}()"))
    return writes


class _Checker:
    """Scans a set of modules as one program."""

    def __init__(self) -> None:
        self.specs = {spec.name: spec for spec in LOCK_ORDER}
        self.findings: list[ConcurrencyFinding] = []
        #: Lock names seen at an ``OrderedLock(...)`` construction site.
        self.constructed: set[str] = set()
        #: Class simple name -> base simple names, merged across modules
        #: (the tree has no operator-class name collisions).
        self.class_bases: dict[str, set[str]] = {}
        #: RC005 candidates: (path, class, method, line, target).
        self.exec_writes: list[tuple[str, str, str, int, str]] = []

    def scan_module(self, module: str, source: str, path: str) -> None:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:  # pragma: no cover - tree always parses
            self._add("RC001", path, exc.lineno or 1,
                      f"cannot parse: {exc.msg}")
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._check_call(node, module, path)
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node, path)

    def _check_call(self, call: ast.Call, module: str, path: str) -> None:
        if _is_raw_lock(call):
            if module not in RAW_LOCK_OK:
                self._add("RC001", path, call.lineno,
                          f"raw threading.{_call_name(call)}() construction; "
                          f"shared locks must be OrderedLock instances "
                          f"declared in repro.concurrency.order.LOCK_ORDER")
            return
        if _call_name(call) != "OrderedLock":
            return
        first = call.args[0] if call.args else None
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            self._add("RC001", path, call.lineno,
                      "OrderedLock name must be a string literal so the "
                      "checker can find it in the registry")
        elif first.value not in self.specs:
            self._add("RC001", path, call.lineno,
                      f"OrderedLock({first.value!r}) is not declared in "
                      f"repro.concurrency.order.LOCK_ORDER")
        else:
            self.constructed.add(first.value)

    def _scan_class(self, node: ast.ClassDef, path: str) -> None:
        bases = self.class_bases.setdefault(node.name, set())
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.add(base.id)
            elif isinstance(base, ast.Attribute):
                bases.add(base.attr)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) \
                    and stmt.name in _EXEC_METHODS:
                self.exec_writes.extend(
                    (path, node.name, stmt.name, line, target)
                    for line, target in _state_writes(stmt))

    def finalize(self, require_all_locks: bool = False
                 ) -> list[ConcurrencyFinding]:
        """Resolve the operator hierarchy and return all findings."""
        operators = {_EXEC_OPERATOR_ROOT}
        changed = True
        while changed:
            changed = False
            for cls, bases in self.class_bases.items():
                if cls not in operators and bases & operators:
                    operators.add(cls)
                    changed = True
        for path, cls, method, line, target in self.exec_writes:
            if cls in operators:
                self._add("RC005", path, line,
                          f"{cls}.{method} writes {target}: mutable instance "
                          f"state in an execution hot path; an operator "
                          f"re-executes across loop iterations, retries and "
                          f"cached-plan replays — thread the value through "
                          f"the call instead")
        if require_all_locks:
            for name in self.specs:
                if name not in self.constructed:
                    self._add("RC001", "<registry>", 0,
                              f"lock {name!r} is declared in the registry "
                              f"but never constructed as an ordered lock")
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return self.findings

    def _add(self, rule_id: str, path: str, line: int, message: str) -> None:
        self.findings.append(ConcurrencyFinding(rule_id, message, path, line))


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
