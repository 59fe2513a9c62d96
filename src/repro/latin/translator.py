"""Translates RheemLatin statements into Rheem plans and runs them.

A statement is built as the job-document entry it spells (a keyword is its
kind, but for :data:`LATIN_SPELLINGS`) from the operator table both front
ends share, :data:`repro.api.serde.KINDS`; what the table refuses is a
:class:`LatinSyntaxError` naming the line.  ``repeat`` is Latin-only.

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

from typing import Any, Callable

from ..api import serde
from ..core.context import DataQuanta, RheemContext
from .lexer import LatinSyntaxError
from .parser import Assign, OpExpr, Statement, Store, parse

#: The keywords that spell a kind of :data:`~repro.api.serde.KINDS`
#: differently; every other keyword but ``repeat`` is the kind's name.
LATIN_SPELLINGS = {"load": "textfile_source", "load_table": "table_source",
                   "load_collection": "collection_source",
                   "group": "groupby"}


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
        #: Keywords outside the operator table: ``repeat``, registered ones.
        self._handlers: dict[str, Callable[[OpExpr, int], DataQuanta]] = {
            "repeat": self._build_repeat}

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
                statement.name, statement.op, statement.line)
            return
        dq = self._dataset(statement.source, statement.line)
        result = (dq.write_text_file(statement.path, **execute_kwargs)
                  if isinstance(statement, Store)
                  else dq.execute(**execute_kwargs))
        self.executions.append(result)
        self.results[statement.source] = result.output

    # ------------------------------------------------------------- building
    def _dataset(self, name: str, line: int) -> DataQuanta:
        try:
            return self.datasets[name]
        except KeyError:
            raise LatinSyntaxError(f"unknown dataset {name!r}", line) from None

    def _build(self, name: str, op: OpExpr, line: int) -> DataQuanta:
        handler = self._handlers.get(op.keyword)
        dq = (handler(op, line) if handler is not None
              else self._build_builtin(name, op, line))
        if op.platform is not None:
            dq.with_target_platform(serde.resolve_platform(op.platform))
        return dq

    def _build_builtin(self, name: str, op: OpExpr,
                       line: int) -> DataQuanta:
        """The statement built as the job-document entry it spells."""
        kind = LATIN_SPELLINGS.get(op.keyword, op.keyword)
        row = serde.KINDS.get(kind)
        if row is None:
            raise LatinSyntaxError(f"unknown operation {op.keyword!r}", line)
        entry = {"name": name, "kind": kind, **op.options}
        entry.update(zip(row.inputs, op.sources))
        entry.update(zip(row.udfs, op.codes))
        if op.broadcasts:
            entry["broadcasts"] = op.broadcasts
        try:
            return serde.build_operator(self.ctx, entry, self.datasets,
                                        self.env)
        except serde.PlanDocumentError as exc:
            raise LatinSyntaxError(str(exc), line) from None

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
                self.datasets[s.name] = self._build(s.name, s.op, s.line)
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
