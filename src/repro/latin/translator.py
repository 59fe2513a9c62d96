"""Translates RheemLatin statements into Rheem plans and runs them.

Code blocks (``{...}``) are Python expressions: unary operators see the
record as ``x``; reducers see ``a`` and ``b``.  Names from the caller's
``env`` (functions, constants, collections) are in scope — the analog of
the paper's ``import '/sgd/udfs.class' AS taggedPointCounter``.

Platform names accept the paper's spelling (``'JavaStreams'``, ``'Spark'``,
``'Flink'``, ``'Postgres'``, ``'Giraph'``, ``'JGraph'``) as aliases of the
simulated engines.  New statement keywords can be registered at runtime
(``Interpreter.register_keyword``), mirroring RheemLatin's configurable
vocabulary.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from ..core.context import DataQuanta, RheemContext
from .lexer import LatinSyntaxError
from .parser import Assign, Dump, OpExpr, Statement, Store, parse

#: Paper platform names -> simulated platform names.
PLATFORM_ALIASES = {
    "javastreams": "pystreams",
    "spark": "sparklite",
    "flink": "flinklite",
    "postgres": "pgres",
    "postgresql": "pgres",
    "giraph": "graphlite",
    "graphchi": "graphchi",
    "jgraph": "jgraph",
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def resolve_platform(name: str) -> str:
    """Map a user-facing platform name to an engine name."""
    return PLATFORM_ALIASES.get(name.lower(), name.lower())


class Interpreter:
    """Executes RheemLatin scripts against a :class:`RheemContext`."""

    def __init__(self, ctx: RheemContext,
                 env: dict[str, Any] | None = None) -> None:
        self.ctx = ctx
        self.env = dict(env or {})
        self.datasets: dict[str, DataQuanta] = {}
        self.results: dict[str, Any] = {}
        #: Full :class:`ExecutionResult` per executed sink, in script order
        #: (``repro trace`` reads the critical-path trackers off these).
        self.executions: list[Any] = []
        self._handlers: dict[str, Callable[[OpExpr, int], DataQuanta]] = {}

    def register_keyword(
        self, keyword: str,
        handler: Callable[["Interpreter", OpExpr, int], DataQuanta],
    ) -> None:
        """Extend the language with a new statement keyword."""
        self._handlers[keyword.lower()] = lambda op, line: handler(
            self, op, line)

    # -------------------------------------------------------------- running
    def run(self, source: str, **execute_kwargs) -> dict[str, Any]:
        """Parse and execute a script; returns ``dump``/``store`` results
        keyed by dataset name."""
        for statement in parse(source):
            self._execute_statement(statement, **execute_kwargs)
        return self.results

    def _execute_statement(self, statement: Statement,
                           **execute_kwargs) -> None:
        if isinstance(statement, Assign):
            self.datasets[statement.name] = self._build(
                statement.op, statement.line)
        elif isinstance(statement, Store):
            dq = self._dataset(statement.source, statement.line)
            result = dq.write_text_file(statement.path, **execute_kwargs)
            self.executions.append(result)
            self.results[statement.source] = result.output
        elif isinstance(statement, Dump):
            dq = self._dataset(statement.source, statement.line)
            result = dq.execute(**execute_kwargs)
            self.executions.append(result)
            self.results[statement.source] = result.output

    # ------------------------------------------------------------- building
    def _dataset(self, name: str, line: int) -> DataQuanta:
        try:
            return self.datasets[name]
        except KeyError:
            raise LatinSyntaxError(f"unknown dataset {name!r}", line) from None

    def _lambda(self, code: str, params: str, line: int) -> Callable:
        """``lambda <params>: <code>``, the block parsed as the body alone
        (the REST path's parser), so it cannot close the lambda early."""
        # Imported here: repro.api imports this module for resolve_platform.
        from ..api.serde import _lambda_code

        try:
            compiled = _lambda_code(params, code)
        except (SyntaxError, ValueError) as exc:  # ValueError: a NUL byte
            raise LatinSyntaxError(f"bad code block {code!r}: {exc}",
                                   line) from exc
        return eval(compiled, dict(self.env))

    def _build(self, op: OpExpr, line: int) -> DataQuanta:
        handler = self._handlers.get(op.keyword)
        if handler is not None:
            dq = handler(op, line)
        else:
            dq = self._build_builtin(op, line)
        if op.platform is not None:
            dq.with_target_platform(resolve_platform(op.platform))
        return dq

    def _build_builtin(self, op: OpExpr, line: int) -> DataQuanta:
        broadcasts = [self._dataset(b, line) for b in op.broadcasts]
        kw = op.keyword
        if kw == "load":
            return self.ctx.read_text_file(op.options["path"])
        if kw == "load_table":
            return self.ctx.read_table(op.options["table"])
        if kw == "load_collection":
            name = op.options["name"]
            if name not in self.env:
                raise LatinSyntaxError(f"no collection {name!r} in env", line)
            return self.ctx.load_collection(self.env[name])
        if kw in ("map", "flatmap", "filter"):
            src = self._dataset(op.sources[0], line)
            # Broadcast values arrive as extra arguments: the code block may
            # reference them as bc[0], bc[1], ...
            fn = self._lambda(op.codes[0], "x, *bc", line)
            method = {"map": src.map, "flatmap": src.flat_map,
                      "filter": src.filter}[kw]
            return method(fn, broadcasts=broadcasts)
        if kw == "sample":
            src = self._dataset(op.sources[0], line)
            return src.sample(size=op.options["size"],
                              method=op.options.get("method", "random"),
                              broadcasts=broadcasts)
        if kw == "distinct":
            return self._dataset(op.sources[0], line).distinct()
        if kw == "cache":
            return self._dataset(op.sources[0], line).cache()
        if kw == "count":
            return self._dataset(op.sources[0], line).count()
        if kw == "sort":
            return self._dataset(op.sources[0], line).sort(
                key=self._lambda(op.codes[0], "x", line))
        if kw == "group":
            return self._dataset(op.sources[0], line).group_by(
                self._lambda(op.codes[0], "x", line))
        if kw == "reduce":
            return self._dataset(op.sources[0], line).reduce(
                self._lambda(op.codes[0], "a, b", line))
        if kw == "reduceby":
            return self._dataset(op.sources[0], line).reduce_by_key(
                self._lambda(op.codes[0], "x", line),
                self._lambda(op.codes[1], "a, b", line))
        if kw == "join":
            left = self._dataset(op.sources[0], line)
            right = self._dataset(op.sources[1], line)
            return left.join(right,
                             self._lambda(op.codes[0], "x", line),
                             self._lambda(op.codes[1], "x", line))
        if kw == "union":
            return self._dataset(op.sources[0], line).union(
                self._dataset(op.sources[1], line))
        if kw == "intersect":
            return self._dataset(op.sources[0], line).intersect(
                self._dataset(op.sources[1], line))
        if kw == "pagerank":
            return self._dataset(op.sources[0], line).pagerank(
                iterations=op.options.get("iterations", 10))
        if kw == "repeat":
            return self._build_repeat(op, line)
        raise LatinSyntaxError(f"unknown operation {op.keyword!r}", line)

    # ---------------------------------------------------------------- loops
    def _build_repeat(self, op: OpExpr, line: int) -> DataQuanta:
        """``X = repeat N { ... };``

        The loop variable is the (single) already-defined dataset that the
        block reassigns; every other already-defined dataset the block reads
        becomes a loop-invariant input (the paper's Listing 1 pattern).
        """
        body_source = op.codes[0]
        body_statements = parse(body_source)
        assigned = [s.name for s in body_statements if isinstance(s, Assign)]
        loop_vars = [n for n in dict.fromkeys(assigned) if n in self.datasets]
        if len(loop_vars) != 1:
            raise LatinSyntaxError(
                "repeat block must reassign exactly one existing dataset "
                f"(found {loop_vars})", line)
        loop_var = loop_vars[0]
        referenced = set()
        for s in body_statements:
            if isinstance(s, Assign):
                referenced.update(s.op.sources)
                referenced.update(s.op.broadcasts)
        invariants = sorted(
            name for name in referenced
            if name in self.datasets and name != loop_var
            and name not in assigned)

        def body(loop_handle: DataQuanta, *inv_handles: DataQuanta
                 ) -> DataQuanta:
            saved = dict(self.datasets)
            self.datasets[loop_var] = loop_handle
            for name, handle in zip(invariants, inv_handles):
                self.datasets[name] = handle
            for s in body_statements:
                if not isinstance(s, Assign):
                    raise LatinSyntaxError(
                        "repeat blocks may only contain assignments", s.line)
                self.datasets[s.name] = self._build(s.op, s.line)
            out = self.datasets[loop_var]
            self.datasets.clear()
            self.datasets.update(saved)
            return out

        return self.datasets[loop_var].repeat(
            op.options["iterations"], body,
            invariants=[self.datasets[n] for n in invariants])


def run_script(source: str, ctx: RheemContext | None = None,
               env: dict[str, Any] | None = None,
               **execute_kwargs) -> dict[str, Any]:
    """One-shot helper: interpret a script, return dumped/stored results."""
    interpreter = Interpreter(ctx or RheemContext(), env)
    return interpreter.run(source, **execute_kwargs)
