"""The REST interface's transport-free core: JSON job documents in, JSON
results out.

:class:`RheemService` ``submit(document)`` builds, optimizes and executes
the dataflow and returns a JSON-ready response (results, simulated
runtime, chosen platforms, dollar price).  The HTTP front end is
:func:`repro.server.make_wsgi_app`, which puts the job server's admission
control in front of it.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.context import RheemContext
from ..core.objectives import monetary, price_of
from ..core.optimizer import OptimizationError
from ..core.plan import PlanValidationError
from ..latin.translator import resolve_platform
from ..simulation.cluster import SimulatedOutOfMemory
from ..trace import NullTracer, Tracer, trace_block
from .serde import PlanDocumentError, build_quanta, typed


class RheemService:
    """Executes JSON job documents against one context."""

    def __init__(self, ctx: RheemContext | None = None,
                 env: dict[str, Any] | None = None) -> None:
        self.ctx = ctx or RheemContext()
        self.env = dict(env or {})

    def submit(self, document: dict,
               tracer: Tracer | NullTracer | None = None,
               cancel_check: Callable[[], None] | None = None,
               observations: bool = False) -> dict:
        """Run one job document; always returns a JSON-ready dict.

        Response shape: ``{"status": "ok", "output": [...], "runtime": s,
        "platforms": [...], "price_usd": d, "diagnostics": [...],
        "trace": {"spans": [...], "metrics": {...}}}`` or
        ``{"status": "error", "error": "...", "kind": "..."}``; error
        responses carry a ``diagnostics`` list too when the static analyzer
        rejected the plan.

        With ``observations=True`` a successful, calibration-eligible run
        (``result.calibration_ok`` — not a sniffer or fault-injection
        execution) additionally carries ``"calibration_observations"``:
        JSON-able per-stage observations for the online cost calibrator.
        The flag is server-internal — worker shards ship observations
        back over their pipe; plain REST responses omit them.

        Each job runs under its own per-request tracer, *passed through*
        the optimizer and executor rather than installed on the shared
        context — the context is never mutated, so concurrent submissions
        (the job server's worker pool) can share it without mixing spans,
        and a job that fails anywhere (even while the document is still
        being parsed) cannot leak state onto the context.  The metrics
        registry is shared across the service's lifetime.

        ``cancel_check`` is forwarded to the executor, which calls it at
        every stage boundary; it may raise
        :class:`~repro.core.executor.JobCancelled`, which propagates to
        the caller (the job server maps it to the ``timeout`` state).
        """
        tracer = tracer if tracer is not None else Tracer()
        try:
            quanta = build_quanta(self.ctx, document, self.env)
            execution = typed(document.get("execution", {}), dict,
                              "'execution'")
            kwargs: dict[str, Any] = {}
            platforms = execution.get("platforms")
            if platforms:
                kwargs["allowed_platforms"] = {
                    resolve_platform(p) for p in platforms} | {"driver"}
            if execution.get("objective") == "monetary":
                kwargs["objective"] = monetary()
            if execution.get("progressive"):
                kwargs["progressive"] = True
            result = quanta.execute(tracer=tracer, cancel_check=cancel_check,
                                    **kwargs)
        except (PlanDocumentError, OptimizationError, PlanValidationError,
                KeyError) as exc:
            response = {"status": "error", "kind": type(exc).__name__,
                        "error": str(exc)}
            diagnostics = _exception_diagnostics(exc)
            if diagnostics:
                response["diagnostics"] = diagnostics
            return response
        except SimulatedOutOfMemory as exc:
            return {"status": "error", "kind": "OutOfMemory",
                    "error": str(exc)}
        response = {
            "status": "ok",
            "output": _jsonable(result.output),
            "runtime": result.runtime,
            "platforms": sorted(result.platforms),
            "price_usd": price_of(result),
            "diagnostics": [d.to_json() for d in result.diagnostics],
        }
        if observations and getattr(result, "calibration_ok", False):
            from ..learn.calibration import observation_to_json

            response["calibration_observations"] = [
                observation_to_json(obs)
                for obs in result.monitor.stage_observations]
        # A disabled tracer has no spans and the caller asked for the
        # hot path (the job server's tracing=False mode) — rendering the
        # metrics block per response would be pure overhead.
        if getattr(tracer, "enabled", True):
            response["trace"] = trace_block(tracer, self.ctx.metrics)
        return response


def _exception_diagnostics(exc: Exception) -> list[dict]:
    """JSON-ready diagnostics off an analyzer/validation exception."""
    report = getattr(exc, "report", None)
    if report is not None:
        return [d.to_json() for d in report]
    return [d.to_json() for d in getattr(exc, "diagnostics", [])]


def _jsonable(value: Any) -> Any:
    """Coerce result payloads into JSON-compatible structures."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)

