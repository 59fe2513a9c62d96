"""RheemLatin: the PigLatin-inspired data-flow language (Section 5)."""

from ..api.serde import PLATFORM_ALIASES, resolve_platform
from .lexer import LatinSyntaxError, Token, tokenize
from .parser import Assign, Dump, OpExpr, Store, parse
from .translator import Interpreter, run_script

__all__ = [
    "LatinSyntaxError",
    "Token",
    "tokenize",
    "Assign",
    "Dump",
    "OpExpr",
    "Store",
    "parse",
    "Interpreter",
    "PLATFORM_ALIASES",
    "resolve_platform",
    "run_script",
]
