"""Command-line entry point.

Usage::

    python -m repro run SCRIPT.latin [--profile] [--abstracts PCT]
    python -m repro trace SCRIPT.latin [--out job.trace.json]
    python -m repro serve [--port 8642] [--backend thread|process]
                          [--jobs N] [--queue-size N]
                          [--deadline SECONDS] [--tenant-quota N]
                          [--calibrate]
    python -m repro learn [--jobs N] [--out params.json]
    python -m repro lint SCRIPT.{py,latin}

``run`` executes a RheemLatin script against a fresh context (optionally
pre-seeding the virtual HDFS with the benchmark corpora so scripts have
something to read); ``dump``ed results are printed, and ``--profile``
appends the wall-clock span tree, metrics and simulated stage timelines.
``trace`` runs the script with tracing enabled and writes a Chrome
trace-event file (open it in ``chrome://tracing`` or Perfetto).
``serve`` exposes the REST interface (``POST /jobs`` with a JSON job
document) through the concurrent job server — ``--jobs`` workers, each
with its own context (in-process shards, or with ``--backend process``
one context-replica process each, scaling past the GIL), sticky
plan-fingerprint routing, a bounded admission queue (429 + ``Retry-After``
on overflow), optional per-job deadlines and per-tenant fair-share
quotas — via a threading wsgiref server; Ctrl-C drains the queue before
exiting.  With ``--calibrate`` the server closes the trace → cost-model
loop online: committed job traces feed a bounded calibration corpus and
a genetic refit republishes cost parameters to every worker once enough
(or sufficiently drifted) samples accumulate.  ``learn`` is the offline
variant: it generates (or loads) execution logs, fits the cost model
off-line and writes the learned parameters to a JSON file;
``load_params`` reads it back for ``RheemContext(cost_params=...)`` or
``publish_cost_params``.
``lint`` executes a Python or RheemLatin script
under the static analyzer and prints every diagnostic raised against the
plans it builds; the exit status is 1 when any error-severity diagnostic
fires, else 0.

``run``, ``trace`` and ``lint`` report a script-level failure (an unreadable
script, a RheemLatin syntax error, a path the virtual file system does not
hold, a plan the optimizer cannot place) as one ``error: <kind>: <message>``
line on standard error and exit with status 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any

from . import RheemContext
from .core.optimizer import OptimizationError
from .latin import Interpreter, LatinSyntaxError
from .simulation.vfs import FileNotFound
from .workloads import write_abstracts, write_pagelinks

#: The benchmark corpora a script may read, and the flag that seeds each.
_ABSTRACTS_PATH = "hdfs://data/abstracts.txt"
_PAGELINKS_PATH = "hdfs://data/pagelinks.txt"
_SEED_FLAGS = {_ABSTRACTS_PATH: "--abstracts", _PAGELINKS_PATH: "--pagelinks"}

#: Failures of the user's script (as opposed to bugs in this program).
_SCRIPT_ERRORS = (OSError, LatinSyntaxError, FileNotFound, OptimizationError)


def _context_from_options(no_cache: bool, no_reuse: bool,
                          abstracts: float, pagelinks: float) -> RheemContext:
    """Build a context from plain options (module-level and picklable on
    purpose: ``serve`` builds every shard's context from it — via
    ``functools.partial`` — in this process or, with ``--backend
    process``, inside worker shards under any multiprocessing start
    method)."""
    ctx = RheemContext()
    if no_cache:
        ctx.plan_cache.capacity = 0
    if no_reuse:
        ctx.result_store.enabled = False
    if abstracts:
        write_abstracts(ctx, _ABSTRACTS_PATH, abstracts)
    if pagelinks:
        write_pagelinks(ctx, _PAGELINKS_PATH, pagelinks)
    return ctx


def _report_script_error(exc: Exception) -> int:
    """Print one ``error:`` line for a script-level failure; exit status 2."""
    message = str(exc)
    if isinstance(exc, FileNotFound):
        path = exc.args[0]
        message = f"no such file {path!r} in the virtual file system"
        if path in _SEED_FLAGS:
            message += f" (seed it with {_SEED_FLAGS[path]} PERCENT)"
    print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
    return 2


def _build_context(args: argparse.Namespace) -> RheemContext:
    return _context_from_options(
        getattr(args, "no_cache", False), getattr(args, "no_reuse", False),
        args.abstracts, args.pagelinks)


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.script) as handle:
        source = handle.read()
    ctx = _build_context(args)
    if args.profile:
        ctx.enable_tracing()
    interpreter = Interpreter(ctx)
    results = interpreter.run(source)
    for name, value in results.items():
        preview = value if len(value) <= 20 else value[:20]
        print(f"{name}: {preview}")
        if len(value) > 20:
            print(f"  ... ({len(value)} records total)")
    if args.profile:
        from .studio import render_profile

        print("--- profile ---")
        print(render_profile(interpreter.executions, ctx.tracer,
                             ctx.metrics), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import write_chrome_trace

    with open(args.script) as handle:
        source = handle.read()
    ctx = _build_context(args)
    tracer = ctx.enable_tracing()
    interpreter = Interpreter(ctx)
    interpreter.run(source)
    trackers = [result.tracker for result in interpreter.executions]
    out_path = args.out or f"{args.script}.trace.json"
    with open(out_path, "w") as handle:
        events = write_chrome_trace(handle, tracer, trackers, ctx.metrics)
    print(f"wrote {events} trace events ({len(trackers)} job(s)) "
          f"to {out_path}")
    print("open chrome://tracing (or https://ui.perfetto.dev) and load "
          "the file to inspect the timelines")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import socketserver
    from wsgiref.simple_server import WSGIServer, make_server

    from .server import JobServer, make_wsgi_app

    class ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
        """Concurrent HTTP handling feeding the bounded job queue."""

        daemon_threads = True

    calibration: dict[str, Any] = {}
    if args.calibrate_min_samples is not None:
        calibration["min_samples"] = args.calibrate_min_samples
    if args.calibrate_drift is not None:
        calibration["drift_threshold"] = args.calibrate_drift
    factory = functools.partial(
        _context_from_options, getattr(args, "no_cache", False),
        getattr(args, "no_reuse", False), args.abstracts, args.pagelinks)
    job_server = JobServer(
        workers=args.jobs, queue_size=args.queue_size,
        default_deadline_s=args.deadline, backend=args.backend,
        context_factory=factory, tenant_quota=args.tenant_quota,
        calibrate=args.calibrate, calibration=calibration)
    httpd = make_server("127.0.0.1", args.port, make_wsgi_app(job_server),
                        server_class=ThreadingWSGIServer)
    unit = ("process shard(s)" if args.backend == "process"
            else "in-process shard(s)")
    print(f"rheem job server on http://127.0.0.1:{args.port}/jobs "
          f"({args.jobs} {unit}, one context each, "
          f"queue {args.queue_size}, "
          f"deadline {args.deadline or 'none'}, "
          f"tenant quota {args.tenant_quota or 'none'}, "
          f"calibration {'on' if args.calibrate else 'off'})")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("draining job queue ...")
    finally:
        job_server.shutdown(drain=True)
        httpd.server_close()
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    import json

    from .learn import (GeneticCostLearner, LogGenerator, observation_from_json,
                        save_params)
    from .simulation.cluster import VirtualCluster

    if args.observations:
        with open(args.observations) as handle:
            docs = json.load(handle)
        records = [observation_from_json(doc) for doc in docs]
        print(f"loaded {len(records)} stage observations "
              f"from {args.observations}")
    else:
        print("generating the execution-log corpus "
              "(pipeline/iterative/merge topologies) ...")
        records = LogGenerator().generate()
        print(f"generated {len(records)} stage observations")
    if not records:
        print("repro learn: no observations to fit against", file=sys.stderr)
        return 1
    learner = GeneticCostLearner(VirtualCluster(), records, seed=args.seed)
    result = learner.fit(population_size=args.population,
                         generations=args.generations)
    print(f"fit {len(result.params)} (platform, operator-kind) parameter "
          f"pairs over {result.generations} generation(s), "
          f"final loss {result.loss:.4f}")
    save_params(result.params, args.out)
    print(f"wrote learned cost parameters to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import runpy

    from .analysis.collector import collecting
    from .core.optimizer import PlanAnalysisError
    from .core.plan import PlanValidationError

    if not os.path.exists(args.script):
        print(f"repro lint: cannot read {args.script!r}: no such file",
              file=sys.stderr)
        return 2

    script_error: Exception | None = None
    with collecting() as collector:
        try:
            if args.script.endswith(".latin"):
                with open(args.script) as handle:
                    source = handle.read()
                Interpreter(_build_context(args)).run(source)
            else:
                runpy.run_path(args.script, run_name="__main__")
        except (PlanAnalysisError, PlanValidationError) as exc:
            # The analyzer (or the plan constructor) already refused the
            # plan; its diagnostics are in the collector / the exception.
            script_error = exc
        reports = collector.finalize()

    diagnostics = [d for _, report in reports for d in report]
    if script_error is not None and not diagnostics:
        diagnostics = list(getattr(script_error, "diagnostics", []))

    errors = 0
    for diag in diagnostics:
        print(diag.render())
        errors += diag.severity.name == "ERROR"
    plural = "s" if len(reports) != 1 else ""
    print(f"{len(reports)} plan{plural} analyzed: "
          f"{len(diagnostics)} diagnostic(s), {errors} error(s)")
    if script_error is not None and not errors:
        print(f"error: {script_error}", file=sys.stderr)
        return 1
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="RHEEM reproduction command line")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="execute a RheemLatin script")
    run.add_argument("script", help="path to the .latin script")
    run.add_argument("--profile", action="store_true",
                     help="print a span/metrics profile after the run")
    trace = sub.add_parser(
        "trace", help="execute a script and write a Chrome trace file")
    trace.add_argument("script", help="path to the .latin script")
    trace.add_argument("--out", default=None,
                       help="trace file path (default: SCRIPT.trace.json)")
    serve = sub.add_parser("serve", help="start the REST service")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--backend", choices=("thread", "process"),
                       default="thread",
                       help="worker backend: 'thread' runs one context "
                            "per worker thread, behind the GIL; 'process' "
                            "runs one context replica per worker process; "
                            "both route jobs by plan fingerprint "
                            "(default: thread)")
    serve.add_argument("--jobs", type=int, default=4,
                       help="workers in the job pool, each with its own "
                            "context: threads, or shard processes with "
                            "--backend process (default 4)")
    serve.add_argument("--tenant-quota", type=int, default=None,
                       dest="tenant_quota",
                       help="max concurrently running jobs per tenant; "
                            "excess stays queued while other tenants "
                            "overtake (default: no cap)")
    serve.add_argument("--queue-size", type=int, default=16,
                       dest="queue_size",
                       help="jobs allowed to wait beyond the running ones "
                            "before admission control rejects (default 16)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-job deadline in seconds "
                            "(measured from admission; default: none). "
                            "On the thread backend it is cooperative: it "
                            "fires at stage boundaries, and a UDF that "
                            "never reaches one keeps its worker thread; "
                            "only --backend process kills the worker")
    serve.add_argument("--calibrate", action="store_true",
                       help="close the trace -> cost-model loop online: "
                            "committed job traces accumulate into a bounded "
                            "calibration corpus; once enough (or drifted) "
                            "samples arrive a genetic refit republishes the "
                            "cost parameters to every worker")
    serve.add_argument("--calibrate-min-samples", type=int, default=None,
                       dest="calibrate_min_samples",
                       help="stage samples that trigger a refit "
                            "(default 24)")
    serve.add_argument("--calibrate-drift", type=float, default=None,
                       dest="calibrate_drift",
                       help="relative prediction-error moving average that "
                            "triggers an early refit (default 0.35)")
    learn = sub.add_parser(
        "learn", help="fit the cost model offline and save the parameters")
    learn.add_argument("--out", default="learned_params.json",
                       help="where to write the learned parameters "
                            "(default: learned_params.json)")
    learn.add_argument("--observations", default=None,
                       help="JSON file with a list of stage observations "
                            "(as produced by the calibration corpus) to fit "
                            "against instead of generating a fresh log")
    learn.add_argument("--population", type=int, default=60,
                       help="GA population size (default 60)")
    learn.add_argument("--generations", type=int, default=120,
                       help="GA generations (default 120)")
    learn.add_argument("--seed", type=int, default=7,
                       help="GA random seed (default 7)")
    lint = sub.add_parser(
        "lint", help="statically analyze the plans a script builds")
    lint.add_argument("script", help="path to a .py or .latin script")
    for p in (run, trace, serve, lint):
        p.add_argument("--abstracts", type=float, default=0.0,
                       help="seed hdfs://data/abstracts.txt at this percent")
        p.add_argument("--pagelinks", type=float, default=0.0,
                       help="seed hdfs://data/pagelinks.txt at this percent")
        p.add_argument("--no-cache", action="store_true", dest="no_cache",
                       help="disable the execution-plan cache")
        p.add_argument("--no-reuse", action="store_true", dest="no_reuse",
                       help="disable cross-job reuse of committed "
                            "intermediate results")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("repro: error: a subcommand is required "
              "(run, trace, serve, learn or lint)", file=sys.stderr)
        return 2
    if args.command == "learn":
        return _cmd_learn(args)
    if args.command == "serve":
        return _cmd_serve(args)
    command = {"run": _cmd_run, "trace": _cmd_trace, "lint": _cmd_lint}
    try:
        return command[args.command](args)
    except _SCRIPT_ERRORS as exc:
        return _report_script_error(exc)


if __name__ == "__main__":
    sys.exit(main())
