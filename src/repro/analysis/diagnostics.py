"""Structured diagnostics for the static plan analyzer.

Every finding — from the structural validator, the type-flow pass, the UDF
introspector or a lint rule — is a :class:`Diagnostic`: a rule id, a
severity tier, the offending operator and an optional fix-it hint.  A
:class:`LintReport` aggregates the diagnostics of one plan and knows how to
render them for the CLI, the REST API and the studio.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity tiers (ordered: higher is worse)."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored at an operator.

    Attributes:
        rule_id: Stable rule identifier (``RP001``...); structural
            validator findings use the ``RP1xx`` range.
        severity: Error diagnostics abort optimization; warnings and infos
            annotate the plan.
        message: Human-readable description of the defect.
        op_id: Id of the offending operator (0 when the finding concerns
            the plan as a whole).
        op_name: Name of the offending operator ("" for plan-level).
        hint: Optional fix-it suggestion.
    """

    rule_id: str
    severity: Severity
    message: str
    op_id: int = 0
    op_name: str = ""
    hint: str | None = None

    def render(self) -> str:
        """One CLI line: ``RP002 error  map <#7>: ... (fix: ...)``."""
        where = f" {self.op_name} <#{self.op_id}>" if self.op_id else ""
        line = f"{self.rule_id} {str(self.severity):<7}{where}: {self.message}"
        if self.hint:
            line += f" (fix: {self.hint})"
        return line

    def to_json(self) -> dict:
        """JSON-ready shape for the REST response."""
        out = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "operator": {"id": self.op_id, "name": self.op_name},
        }
        if self.hint:
            out["hint"] = self.hint
        return out

    def __str__(self) -> str:
        return self.render()


@dataclass
class LintReport:
    """All diagnostics of one analyzed plan, plus estimation side effects.

    Attributes:
        diagnostics: Findings, ordered by severity (errors first), then by
            operator id.
        confidence_penalties: Per-operator multiplicative confidence decay
            the analyzer derived from UDF introspection (nondeterministic
            or state-capturing UDFs make cardinality hints less
            trustworthy); consumed by the optimizer's estimation step.
        cardinalities: The analyzer's estimate per operator id, before
            those penalties; the optimizer's estimation step starts from
            it.  ``None`` without an estimation context, or if it raised.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    confidence_penalties: dict[int, float] = field(default_factory=dict)
    cardinalities: dict | None = None

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def sort(self) -> None:
        self.diagnostics.sort(key=lambda d: (-d.severity, d.rule_id, d.op_id))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when the plan carries no error-level diagnostics."""
        return not self.errors

    def rule_ids(self) -> set[str]:
        return {d.rule_id for d in self.diagnostics}

    def render(self) -> str:
        """Multi-line CLI rendering; "" when the report is empty."""
        return "\n".join(d.render() for d in self.diagnostics)

    def summary(self) -> str:
        return (f"{len(self.errors)} error(s), {len(self.warnings)} "
                f"warning(s), {len(self.infos)} info(s)")

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)
