"""Two source-tree rules the runtime cannot check for itself.

* **Hot-path state.**  No ``execute`` / ``_run`` of an
  ``ExecutionOperator`` subclass writes or mutates ``self.*``.  One
  operator instance re-executes across loop iterations, retried attempts
  and — through the plan cache — later jobs on the same context, so a
  value one run stores on ``self`` is read by the next (a do-while
  condition that stopped a re-executed loop after one iteration was this
  bug).  Per-run values are threaded through the call.
* **Stray locks.**  No ``threading`` lock primitive is constructed
  outside the job server, the metrics registry and the cost calibrator.
  A context runs one job at a time, so nothing inside it takes a lock;
  the five locks there are ordered in ``repro.server.server``'s
  docstring.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Methods that run per execution on re-executed operator instances.
EXEC_METHODS = frozenset({"execute", "_run"})

#: Methods that mutate their receiver in place.
MUTATORS = frozenset(
    {"append", "add", "clear", "update", "pop", "popitem", "setdefault",
     "move_to_end", "remove", "discard", "extend", "insert"})

#: ``threading`` primitives whose construction is a lock.
LOCK_PRIMITIVES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Barrier"})

#: The only modules that construct locks, relative to the package.
LOCK_MODULES = {"server/server.py", "server/shards.py", "trace/metrics.py",
                "learn/calibration.py"}


def _sources() -> dict[str, str]:
    return {file.relative_to(PACKAGE).as_posix(): file.read_text()
            for file in sorted(PACKAGE.rglob("*.py"))}


def _self_path(expr: ast.expr) -> str | None:
    """``"self.a.b"`` for an expression rooted at ``self``, else None;
    ``self.a[k]`` is ``self.a`` (writing an item mutates the container)."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if parts and isinstance(expr, ast.Name) and expr.id == "self":
        return ".".join(["self", *reversed(parts)])
    return None


def _leaves(target: ast.expr) -> list[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        return [leaf for elt in target.elts for leaf in _leaves(elt)]
    return [target]


def _state_writes(method: ast.FunctionDef) -> list[str]:
    """``line: target`` for every ``self.*`` write or in-place mutation
    inside ``method``."""
    writes = []
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            writes += [f"{leaf.lineno}: {_self_path(leaf)}"
                       for target in targets for leaf in _leaves(target)
                       if _self_path(leaf)]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS
              and _self_path(node.func.value)):
            writes.append(f"{node.lineno}: "
                          f"{_self_path(node.func.value)}.{node.func.attr}()")
    return writes


def hot_path_writes(sources: dict[str, str]) -> list[str]:
    """``path:line: target (Class.method)`` for every state write in the
    hot path of an ``ExecutionOperator`` subclass, the modules read as
    one program (a subclass may live apart from its base)."""
    bases: dict[str, set[str]] = {}
    writes = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            bases.setdefault(node.name, set()).update(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute)))
            writes += [(node.name, f"{path}:{write} "
                                   f"({node.name}.{stmt.name})")
                       for stmt in node.body
                       if isinstance(stmt, ast.FunctionDef)
                       and stmt.name in EXEC_METHODS
                       for write in _state_writes(stmt)]
    operators = {"ExecutionOperator"}
    grown = True
    while grown:
        subclasses = {cls for cls, of in bases.items() if of & operators}
        grown = not subclasses <= operators
        operators |= subclasses
    return [write for cls, write in writes if cls in operators]


def lock_constructions(source: str) -> list[int]:
    """Lines that construct a ``threading`` lock primitive, called as
    ``threading.Lock()`` or, imported by name, ``Lock()``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            hit = (isinstance(func.value, ast.Name)
                   and func.value.id == "threading"
                   and func.attr in LOCK_PRIMITIVES)
        else:
            hit = isinstance(func, ast.Name) and func.id in LOCK_PRIMITIVES
        if hit:
            lines.append(node.lineno)
    return lines


class TestHotPathState:
    def test_tree_writes_no_state_in_hot_paths(self):
        assert hot_path_writes(_sources()) == []

    def test_plain_write_is_flagged(self):
        src = ("class MyOp(ExecutionOperator):\n"
               "    def _run(self, inputs, bvals, ctx):\n"
               "        self.invocations = self.invocations + 1\n"
               "        return inputs[0]\n")
        assert hot_path_writes({"op.py": src}) == [
            "op.py:3: self.invocations (MyOp._run)"]

    def test_inherited_mutator_is_flagged(self):
        base = "class Base(ExecutionOperator):\n    pass\n"
        leaf = ("class Leaf(Base):\n"
                "    def execute(self, inputs, broadcasts, ctx):\n"
                "        self.seen.append(inputs)\n"
                "        return inputs[0]\n")
        assert hot_path_writes({"base.py": base, "leaf.py": leaf}) == [
            "leaf.py:3: self.seen.append() (Leaf.execute)"]

    def test_non_operator_class_passes(self):
        src = ("class Visitor:\n"
               "    def _run(self, inputs, bvals, ctx):\n"
               "        self.count = 1\n"
               "        return inputs[0]\n")
        assert hot_path_writes({"visitor.py": src}) == []

    def test_writes_outside_hot_paths_pass(self):
        src = ("class MyOp(ExecutionOperator):\n"
               "    def __init__(self, logical):\n"
               "        self.logical = logical\n"
               "    def helper(self):\n"
               "        self.cache = {}\n")
        assert hot_path_writes({"op.py": src}) == []


class TestStrayLocks:
    def test_locks_live_only_in_server_metrics_and_calibration(self):
        built = {path for path, source in _sources().items()
                 if lock_constructions(source)}
        assert built == LOCK_MODULES

    def test_every_primitive_is_flagged(self):
        src = ("import threading\n"
               "from threading import RLock\n"
               "A = threading.Lock()\n"
               "B = RLock()\n"
               "C = threading.Condition()\n"
               "D = threading.Semaphore(2)\n"
               "E = threading.BoundedSemaphore()\n"
               "F = threading.Barrier(2)\n"
               "G = threading.Event()\n"
               "H = other.Lock()\n")
        assert lock_constructions(src) == [3, 4, 5, 6, 7, 8]
