"""Static plan analysis: typed data-quantum flow, UDF introspection and a
severity-tiered lint-rule engine that runs before the optimizer.

Public surface::

    from repro.analysis import analyze_plan, Diagnostic, LintReport, Severity

    report = analyze_plan(plan, ctx)   # registry-aware when ctx is given
    for diag in report.errors:
        print(diag.render())

Heavy submodules are loaded lazily (PEP 562) so that ``core.plan`` can
import the leaf ``diagnostics``/``collector`` modules without dragging the
mapping/channel layers into its import cycle.
"""

from .diagnostics import Diagnostic, LintReport, Severity

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "PlanAnalyzer",
    "analyze_plan",
    "AnalysisContext",
    "Rule",
    "all_rules",
    "register_rule",
    "QType",
    "infer_types",
    "introspect_udf",
    "UdfReport",
    "LintCollector",
    "collecting",
]

_LAZY = {
    "PlanAnalyzer": ("engine", "PlanAnalyzer"),
    "analyze_plan": ("engine", "analyze_plan"),
    "AnalysisContext": ("rules", "AnalysisContext"),
    "Rule": ("rules", "Rule"),
    "all_rules": ("rules", "all_rules"),
    "register_rule": ("rules", "register_rule"),
    "QType": ("typeflow", "QType"),
    "infer_types": ("typeflow", "infer_types"),
    "introspect_udf": ("udfs", "introspect_udf"),
    "UdfReport": ("udfs", "UdfReport"),
    "LintCollector": ("collector", "LintCollector"),
    "collecting": ("collector", "collecting"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, attr)
