"""Metric names, and the per-layer numbers derived from a traced round.

Layers are the program's module names.  Times are **per job**: within
each job kind the median over that kind's traced jobs, then the kinds
weighted by their share of the job list — a mean per job that one slow
outlier cannot move.  Counts are the change in the program's own
``MetricsRegistry`` over the traced round.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Callable, Iterable

from .recorder import Node

PLATFORMS = ("pystreams", "sparklite", "flinklite", "pgres", "graphlite",
             "jgraph")
CLIENT_KINDS = ("q5", "wide_merge", "chain100", "crocopr", "wordcount",
                "sgd", "hot", "fresh", "bad")

#: name, unit, better, regression bound (share of the parent's median).
#: The time bounds are three times the spread ten same-code runs showed on
#: a shared box (perfbench/README.md, "How steady it is"), not the 10 %
#: one would like.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("job_wall_gm_ms", "ms", "lower", 0.25),
    ("jobs_per_s", "jobs/s", "higher", 0.25),
    ("cpu_ms_per_job", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_runtime_s", "sim_s", "lower", 0.03),
)

#: name, unit, better.  No bounds: they explain, they do not gate.
PER_LAYER = (
    *((f"client.wall_ms.{kind}", "ms", "lower") for kind in CLIENT_KINDS),
    ("client.job_wall_tail_ms", "ms", "lower"),
    ("client.tail_percentile", "%", "higher"),
    ("client.samples", "count", "higher"),
    ("setup.data_ms", "ms", "lower"),
    ("setup.context_ms", "ms", "lower"),
    ("setup.warm_ms", "ms", "lower"),
    ("setup.server_start_ms", "ms", "lower"),
    ("api.build_ms", "ms", "lower"),
    ("api.respond_ms", "ms", "lower"),
    ("server.http_ms", "ms", "lower"),
    ("server.admit_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.run_ms", "ms", "lower"),
    ("server.pipe_ms", "ms", "lower"),
    ("server.sticky_share", "ratio", "higher"),
    ("server.rejected", "count", "lower"),
    ("server.job_table_len", "count", "lower"),
    ("analysis.ms", "ms", "lower"),
    ("core.optimizer.optimize_ms", "ms", "lower"),
    ("core.optimizer.enumerate_ms", "ms", "lower"),
    ("core.optimizer.reuse_probe_ms", "ms", "lower"),
    ("core.optimizer.plans_enumerated", "count", "lower"),
    ("core.optimizer.pruned_share", "ratio", "higher"),
    ("core.optimizer.beam_dropped", "count", "lower"),
    ("core.channels.path_ms", "ms", "lower"),
    ("core.channels.path_calls", "count", "lower"),
    ("core.channels.memo_hit_share", "ratio", "higher"),
    ("core.channels.dijkstra_runs", "count", "lower"),
    ("core.plancache.key_ms", "ms", "lower"),
    ("core.plancache.hit_share", "ratio", "higher"),
    ("core.plancache.evictions", "count", "lower"),
    ("core.resultstore.hit_share", "ratio", "higher"),
    ("core.resultstore.admissions", "count", "lower"),
    ("core.resultstore.evictions", "count", "lower"),
    ("core.resultstore.mb", "MB", "lower"),
    ("core.executor.execute_ms", "ms", "lower"),
    ("core.executor.self_ms", "ms", "lower"),
    ("core.executor.stages", "count", "lower"),
    ("core.executor.retries", "count", "lower"),
    ("core.executor.convert_ms", "ms", "lower"),
    ("core.executor.conversions", "count", "lower"),
    *((f"platforms.stage_ms.{p}", "ms", "lower") for p in PLATFORMS),
    ("platforms.records_per_s", "1/s", "higher"),
    ("concurrency.lock_acquires_per_job", "count", "lower"),
    ("concurrency.lock_wait_ms_per_job", "ms", "lower"),
    ("concurrency.lock_hold_ms_per_job", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans_per_job", "count", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("host.ref_loop_ms", "ms", "lower"),
    ("host.ref_loop_spread", "ratio", "lower"),
    ("host.nproc", "count", "higher"),
)

_OPTIMIZER_PHASES = ("optimizer.estimate", "optimizer.inflate",
                     "optimizer.movement", "optimizer.enumerate",
                     "optimizer.reuse_probe")
#: Span name -> the layer its self time belongs to.  Stage, attempt and
#: conversion spans are resolved by prefix in :func:`self_times`.
LAYER_OF = {
    "client.job": "client",
    "server.http": "server", "server.admit": "server",
    "server.wait": "server", "server.queue_wait": "server",
    "server.run": "server", "server.pipe": "server",
    "api.submit": "api", "api.build": "api",
    "core.optimizer.optimize": "core.optimizer",
    **dict.fromkeys(_OPTIMIZER_PHASES, "core.optimizer"),
    "optimizer.analyze": "analysis",
    "core.channels.path": "core.channels",
    "core.plancache.key": "core.plancache",
    "core.executor.execute": "core.executor",
    "executor.run": "core.executor",
}


def self_times(root: Node) -> dict[str, float]:
    """Seconds of ``root``'s wall per layer; the values sum to its
    duration exactly.

    A span's self time is its duration minus its children's.  Where the
    children of one span add up to more than the span — the executor's
    stage lanes overlap — each child's subtree is scaled by the same
    factor so that together they fill the parent and no more: concurrent
    lanes share the wall they cover in proportion to their length.
    """
    out: dict[str, float] = defaultdict(float)

    def visit(node: Node, scale: float, platform: str) -> None:
        name = node.name
        if name.startswith("stage:"):
            platform = str(node.attrs.get("platform", "driver"))
            layer = f"platforms.{platform}"
        elif name.startswith("attempt"):
            layer = f"platforms.{platform}"
        elif name.startswith("convert:"):
            layer = "core.executor"
        else:
            layer = LAYER_OF.get(name, "other")
        covered = sum(child.dur for child in node.children)
        if covered <= node.dur:
            out[layer] += scale * (node.dur - covered)
        elif covered > 0.0:
            scale *= node.dur / covered
        for child in node.children:
            visit(child, scale, platform)

    visit(root, 1.0, "driver")
    return dict(out)


def _durations(root: Node) -> dict[str, float]:
    """Summed duration per span name (stage and conversion spans under
    ``stage:<platform>`` / ``convert``), plus call counts of aggregates."""
    out: dict[str, float] = defaultdict(float)
    for node in root.walk():
        out[node.name] += node.dur
        if node.attrs.get("aggregate"):
            out[node.name + "#calls"] += node.attrs["calls"]
        if node.name.startswith("convert:"):
            out["convert"] += node.dur
    out["spans"] = sum(1 for __ in root.walk())
    return out


def per_job(samples: Iterable[Any], value: Callable[[Any], float]) -> float:
    """Share-weighted mean over kinds of the kind's median (module doc)."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for sample in samples:
        by_kind[sample.kind].append(value(sample))
    total = sum(len(values) for values in by_kind.values())
    return sum(len(values) / total * statistics.median(values)
               for values in by_kind.values())


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)`` — or the median, where there are so few
    samples (20 or fewer) that this would fall below it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def delta(before: dict | None, after: dict | None) -> dict[str, Any]:
    """Counters and histogram count/sum gained between two registry
    snapshots; gauges as they stand at the end."""
    before = before or {}
    after = after or {}
    counters = {name: value - before.get("counters", {}).get(name, 0.0)
                for name, value in after.get("counters", {}).items()}
    histograms = {}
    for name, hist in after.get("histograms", {}).items():
        old = before.get("histograms", {}).get(name, {})
        histograms[name] = (hist["count"] - old.get("count", 0),
                            hist["sum"] - old.get("sum", 0.0))
    return {"counters": counters, "histograms": histograms,
            "gauges": dict(after.get("gauges", {}))}


def _share(part: float, *rest: float) -> float:
    whole = part + sum(rest)
    return part / whole if whole else 0.0


def lock_totals(gained: dict[str, Any]) -> tuple[float, float, float]:
    """``(acquisitions, wait seconds, hold seconds)`` of the registry's
    instrumented locks.

    An acquisition of an ordered lock leaves one ``lock.wait_s.*`` and
    one ``lock.hold_s.*`` sample, and recording each sample takes the
    (uninstrumented) metrics lock once — so the acquisitions that the
    instruments prove happened are waits + (waits + holds).
    """
    waits = holds = wait_s = hold_s = 0.0
    for name, (count, total) in gained["histograms"].items():
        if name.startswith("lock.wait_s."):
            waits += count
            wait_s += total
        elif name.startswith("lock.hold_s."):
            holds += count
            hold_s += total
    return waits + waits + holds, wait_s, hold_s


def derive(traced: list[Any], untraced: list[Any],
           before: dict | None, after: dict | None,
           records: Callable[[str], int],
           kinds: Iterable[str]) -> dict[str, float]:
    """Every per-layer metric that comes from the traced round.

    ``traced`` / ``untraced`` are the two phases' samples (the traced
    ones carry span trees), ``before`` / ``after`` the registry snapshots
    around the traced round, ``records(kind)`` the source records one job
    of a kind reads (0 where engines only replay stored results),
    ``kinds`` the kinds expected to succeed.
    """
    facts = {id(s): _durations(s.tree) for s in traced}
    selfs = {id(s): self_times(s.tree) for s in traced}
    jobs = len(traced)
    scale = traced[0].scale     # one round, one scale

    def ms(name: str) -> float:
        return 1e3 * per_job(
            traced, lambda s: s.scale * facts[id(s)].get(name, 0.0))

    def self_ms(layer: str) -> float:
        return 1e3 * per_job(
            traced, lambda s: s.scale * selfs[id(s)].get(layer, 0.0))

    def span_self_ms(name: str) -> float:
        def own(sample: Any) -> float:
            node = sample.tree.find(name)
            if node is None:
                return 0.0
            return sample.scale * max(
                0.0, node.dur - sum(c.dur for c in node.children))
        return 1e3 * per_job(traced, own)

    gained = delta(before, after)
    counters = defaultdict(float, gained["counters"])
    acquires, wait_s, hold_s = lock_totals(gained)
    out: dict[str, float] = {
        "api.build_ms": ms("api.build"),
        "api.respond_ms": span_self_ms("api.submit"),
        "server.http_ms": span_self_ms("server.http"),
        "server.admit_ms": ms("server.admit"),
        "server.queue_wait_ms": ms("server.queue_wait"),
        "server.run_ms": ms("server.run"),
        "server.pipe_ms": span_self_ms("server.pipe"),
        "server.rejected": counters["server.jobs.rejected"],
        "analysis.ms": ms("optimizer.analyze"),
        "core.optimizer.optimize_ms": ms("core.optimizer.optimize"),
        "core.optimizer.enumerate_ms": ms("optimizer.enumerate"),
        "core.optimizer.reuse_probe_ms": ms("optimizer.reuse_probe"),
        "core.optimizer.plans_enumerated":
            counters["optimizer.plans_enumerated"],
        "core.optimizer.pruned_share": (
            counters["optimizer.plans_pruned"]
            / counters["optimizer.plans_enumerated"]
            if counters["optimizer.plans_enumerated"] else 0.0),
        "core.optimizer.beam_dropped":
            counters["optimizer.plans_beam_dropped"],
        "core.channels.path_ms": ms("core.channels.path"),
        "core.channels.path_calls": sum(
            f.get("core.channels.path#calls", 0.0) for f in facts.values()),
        "core.channels.memo_hit_share": _share(
            counters["conversion_cache.path_hits"]
            + counters["conversion_cache.tree_hits"],
            counters["conversion_cache.path_misses"],
            counters["conversion_cache.tree_misses"]),
        "core.channels.dijkstra_runs":
            counters["conversion_cache.dijkstra_runs"],
        "core.plancache.key_ms": ms("core.plancache.key"),
        "core.plancache.hit_share": _share(counters["plan_cache.hits"],
                                           counters["plan_cache.misses"]),
        "core.plancache.evictions": counters["plan_cache.evictions"],
        "core.resultstore.hit_share": _share(
            counters["intermediate.hits"], counters["intermediate.misses"]),
        "core.resultstore.admissions": counters["intermediate.admissions"],
        "core.resultstore.evictions": counters["intermediate.evictions"],
        "core.resultstore.mb":
            gained["gauges"].get("intermediate.bytes", 0.0) / 1e6,
        "core.executor.execute_ms": ms("core.executor.execute"),
        "core.executor.self_ms": span_self_ms("executor.run"),
        "core.executor.stages": counters["executor.stages"],
        "core.executor.retries": counters["executor.retries_wasted"],
        "core.executor.convert_ms": ms("convert"),
        "core.executor.conversions": counters["executor.conversions"],
        "concurrency.lock_acquires_per_job": acquires / jobs,
        "concurrency.lock_wait_ms_per_job": 1e3 * scale * wait_s / jobs,
        "concurrency.lock_hold_ms_per_job": 1e3 * scale * hold_s / jobs,
        "trace.spans_per_job": per_job(
            traced, lambda s: facts[id(s)]["spans"]),
    }
    for platform in PLATFORMS:
        out[f"platforms.stage_ms.{platform}"] = \
            self_ms(f"platforms.{platform}")
    engine_s = sum(s.scale * seconds for s in traced
                   for layer, seconds in selfs[id(s)].items()
                   if layer.startswith("platforms."))
    read = sum(records(s.kind) for s in traced)
    out["platforms.records_per_s"] = read / engine_s if engine_s else 0.0
    routed = [s.tree.attrs for s in traced if "home" in s.tree.attrs]
    out["server.sticky_share"] = (
        sum(a["home"] == a["shard"] for a in routed) / len(routed)
        if routed else 0.0)
    loose = sum(selfs[id(s)].get("client", 0.0)
                + selfs[id(s)].get("other", 0.0) for s in traced)
    out["trace.unattributed_share"] = loose / sum(s.wall_s for s in traced)
    out["trace.overhead_share"] = overhead_share(traced, untraced, kinds)
    return out


def kind_medians(samples: Iterable[Any]) -> dict[str, float]:
    """Median wall per kind, in seconds at reference host speed."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for sample in samples:
        by_kind[sample.kind].append(sample.wall_s * sample.scale)
    return {kind: statistics.median(walls)
            for kind, walls in by_kind.items()}


def overhead_share(traced: list[Any], untraced: list[Any],
                   kinds: Iterable[str]) -> float:
    """Geometric mean over ``kinds`` (the terms of ``job_wall_gm_ms``: a
    round holds three ``bad`` documents, too few to compare) of traced /
    untraced median wall, - 1."""
    slow, fast = kind_medians(traced), kind_medians(untraced)
    return statistics.geometric_mean(
        slow[kind] / fast[kind] for kind in kinds) - 1.0


def layer_table(traced: list[Any]) -> dict[str, float]:
    """Share of the traced round's wall per layer (all platforms as one),
    largest first — the "where does the time go" table of the README."""
    totals: dict[str, float] = defaultdict(float)
    for sample in traced:
        for layer, seconds in self_times(sample.tree).items():
            totals["platforms" if layer.startswith("platforms.")
                   else layer] += seconds
    wall = sum(totals.values())
    return {layer: seconds / wall for layer, seconds in
            sorted(totals.items(), key=lambda kv: -kv[1])}
