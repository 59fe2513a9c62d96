"""Parser for RheemLatin: token stream -> statement AST."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .lexer import LatinSyntaxError, Token, tokenize


@dataclass
class OpExpr:
    """One right-hand-side operation.

    ``keyword`` selects the operation; ``sources`` are upstream dataset
    names; ``codes`` are raw ``{...}`` code snippets in keyword-specific
    order; ``options`` carries numbers/strings (sample size, paths,
    iteration counts); ``broadcasts``/``platform`` come from ``with``
    clauses.
    """

    keyword: str
    sources: list[str] = field(default_factory=list)
    codes: list[str] = field(default_factory=list)
    options: dict[str, Any] = field(default_factory=dict)
    broadcasts: list[str] = field(default_factory=list)
    platform: str | None = None


@dataclass
class Assign:
    """``name = <operation>;``"""

    name: str
    op: OpExpr
    line: int


@dataclass
class Store:
    """``store <dataset> '<path>';``"""

    source: str
    path: str
    line: int


@dataclass
class Dump:
    """``dump <dataset>;`` — collect to the driver."""

    source: str
    line: int


Statement = Assign | Store | Dump


class _TokenStream:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token | None:
        """The next token without consuming it."""
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self, kind: str | None = None, what: str = "token") -> Token:
        """Consume the next token, optionally requiring its kind."""
        tok = self.peek()
        if tok is None:
            raise LatinSyntaxError(f"unexpected end of input, expected {what}",
                                   self._tokens[-1].line if self._tokens else 0)
        if kind is not None and tok.kind != kind:
            raise LatinSyntaxError(
                f"expected {what} ({kind}), got {tok.kind} {tok.value!r}",
                tok.line)
        self._pos += 1
        return tok

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        """Consume and return the next token iff it matches, else None."""
        tok = self.peek()
        if tok is not None and tok.kind == kind and (
                value is None or tok.value.lower() == value):
            self._pos += 1
            return tok
        return None

    @property
    def exhausted(self) -> bool:
        """Whether every token has been consumed."""
        return self._pos >= len(self._tokens)


def parse(source: str) -> list[Statement]:
    """Parse a RheemLatin script into statements.

    Raises:
        LatinSyntaxError: On any grammar violation.
    """
    stream = _TokenStream(tokenize(source))
    statements: list[Statement] = []
    while not stream.exhausted:
        statements.append(_parse_statement(stream))
    return statements


def _parse_statement(stream: _TokenStream) -> Statement:
    head = stream.next("ident", "statement")
    word = head.value.lower()
    if word == "store":
        src = stream.next("ident", "dataset name").value
        path = stream.next("string", "output path").value
        stream.next(";", "';'")
        return Store(src, path, head.line)
    if word == "dump":
        src = stream.next("ident", "dataset name").value
        stream.next(";", "';'")
        return Dump(src, head.line)
    # Otherwise: NAME = <operation> ... ;
    stream.next("=", "'='")
    op = _parse_operation(stream, head.line)
    stream.next(";", "';'")
    return Assign(head.value, op, head.line)


def _parse_operation(stream: _TokenStream, line: int) -> OpExpr:
    kw_tok = stream.next("ident", "operation keyword")
    keyword = kw_tok.value.lower()
    op = OpExpr(keyword)

    if keyword == "load":
        if stream.accept("ident", "table"):
            op.keyword = "load_table"
            op.options["table"] = stream.next("string", "table name").value
        elif stream.accept("ident", "collection"):
            op.keyword = "load_collection"
            op.options["env"] = stream.next("ident", "environment name").value
        else:
            op.options["path"] = stream.next("string", "path").value
    elif keyword in ("map", "flatmap", "filter", "reduce"):
        op.sources.append(stream.next("ident", "dataset name").value)
        stream.next("->", "'->'")
        op.codes.append(stream.next("expr", "code block").value)
    elif keyword == "sample":
        op.sources.append(stream.next("ident", "dataset name").value)
        op.options["size"] = int(stream.next("number", "sample size").value)
        if stream.accept("ident", "method"):
            op.options["method"] = stream.next("string", "method name").value
    elif keyword in ("distinct", "cache", "count"):
        op.sources.append(stream.next("ident", "dataset name").value)
    elif keyword == "sort":
        op.sources.append(stream.next("ident", "dataset name").value)
        stream.next("ident", "'by'")
        op.codes.append(stream.next("expr", "key block").value)
    elif keyword == "group":
        op.sources.append(stream.next("ident", "dataset name").value)
        stream.next("ident", "'by'")
        op.codes.append(stream.next("expr", "key block").value)
    elif keyword == "reduceby":
        op.sources.append(stream.next("ident", "dataset name").value)
        stream.next("ident", "'by'")
        op.codes.append(stream.next("expr", "key block").value)
        stream.next("ident", "'with'")
        op.codes.append(stream.next("expr", "reducer block").value)
    elif keyword == "join":
        op.sources.append(stream.next("ident", "left dataset").value)
        stream.next("ident", "'by'")
        op.codes.append(stream.next("expr", "left key").value)
        stream.next(",", "','")
        op.sources.append(stream.next("ident", "right dataset").value)
        stream.next("ident", "'by'")
        op.codes.append(stream.next("expr", "right key").value)
    elif keyword in ("union", "intersect"):
        op.sources.append(stream.next("ident", "left dataset").value)
        stream.next(",", "','")
        op.sources.append(stream.next("ident", "right dataset").value)
    elif keyword == "pagerank":
        op.sources.append(stream.next("ident", "dataset name").value)
        if stream.accept("ident", "iterations"):
            op.options["iterations"] = int(
                stream.next("number", "iteration count").value)
    elif keyword == "repeat":
        op.options["iterations"] = int(
            stream.next("number", "iteration count").value)
        op.codes.append(stream.next("expr", "loop body").value)
    else:
        # Unknown keyword: keep a generic shape so user-registered keyword
        # handlers (the paper's configurable vocabulary) can interpret it.
        while True:
            tok = stream.peek()
            if tok is None or tok.kind == ";":
                break
            if tok.kind == "ident" and tok.value.lower() == "with":
                break
            tok = stream.next()
            if tok.kind == "ident":
                op.sources.append(tok.value)
            elif tok.kind == "expr":
                op.codes.append(tok.value)
            elif tok.kind in ("string", "number"):
                op.options.setdefault("args", []).append(tok.value)

    # Trailing `with ...` clauses, shared by every operation.
    while stream.accept("ident", "with"):
        what = stream.next("ident", "'broadcast' or 'platform'").value.lower()
        if what == "broadcast":
            op.broadcasts.append(stream.next("ident", "dataset name").value)
        elif what == "platform":
            op.platform = stream.next("string", "platform name").value
        else:
            raise LatinSyntaxError(f"unknown with-clause {what!r}", line)
    return op
