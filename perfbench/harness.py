"""Runs one workload inside the child interpreter and reduces it to metrics.

Shape of a run::

    set-up (repeated; setup_s is the median)      untimed: references
    window: rounds of the seeded job list         host loop between rounds
    [traced run only] one more round with the program's tracer and the
    benchmark's recorder on

End-to-end metrics come from the window, with the program's tracer off
and the recorder absent.  Per-layer metrics come from the traced round;
``--trace 1`` first spends half the window untraced so that the same run
can state what tracing cost.

**Every time is stated at reference host speed.**  The box is shared: in
bursts of a fraction of a second to a minute everything on it runs 10-30 %
slower, CPU time included, and a run is too short to average that out.
So a fixed pure-Python loop is timed throughout every window — after every
job in-process, after every round when serving, after every phase of a
set-up — and the window's times are multiplied by ``REFERENCE_HOST_MS``
over the median of those probes.  A millisecond here is a millisecond on
a host where that loop takes 50 ms; ``host.ref_loop_ms`` says what it
took.  Measured on warm_execute, this halves the run-to-run spread.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.trace import merge_snapshots

from . import layers
from .recorder import Recorder, flatten
from .workloads import FULL, QUICK, SESSIONS, Sample, Session, run_round

_now = time.perf_counter
_TICKS = os.sysconf("SC_CLK_TCK")
#: Iterations of the host reference loop (~50 ms of pure Python here).
REF_LOOP_ITERATIONS = 650_000
#: What the loop takes on the host all reported times are scaled to.
REFERENCE_HOST_MS = 50.0
NOISE_WARNING_SPREAD = 0.25


# -------------------------------------------------------------------- host
def ref_loop_ms() -> float:
    """A fixed piece of pure-Python integer work, timed.  It measures the
    host, not the program: when two runs disagree, compare these first."""
    started = _now()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return (_now() - started) * 1e3


class Host:
    """The host's speed, probed with the reference loop."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        self.samples.append(ref_loop_ms())

    def scale_since(self, mark: int) -> float:
        """The factor that takes times measured since ``mark`` (a length
        of ``samples``) to reference host speed."""
        return REFERENCE_HOST_MS / statistics.median(self.samples[mark:])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def _cpu_seconds(pids: list[int]) -> float:
    """User + system CPU of this interpreter plus ``pids``."""
    total = time.process_time()
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def _peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over this interpreter and ``pids`` (pages a forked
    shard still shares with its parent are counted in both)."""
    total_kb = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


# ------------------------------------------------------------------ window
@dataclass
class Round:
    """One pass over a job list."""

    samples: list[Sample]
    wall_s: float
    cpu_s: float
    #: Jobs run once per window, not a repetition of the round's list
    #: (cold_optimize's sgd).
    once: bool = False


@dataclass
class Window:
    """What one measured phase produced."""

    rounds: list[Round] = field(default_factory=list)
    #: Takes the window's times to reference host speed.
    scale: float = 1.0
    peak_rss_mb: float = 0.0

    @property
    def samples(self) -> list[Sample]:
        return [s for r in self.rounds for s in r.samples]

    @property
    def repeated(self) -> list[Round]:
        return [r for r in self.rounds if not r.once]


def measure(session: Session, seconds: float, min_rounds: int,
            host: Host) -> Window:
    """Run rounds until ``seconds`` have passed and ``min_rounds`` are in,
    probing the host all the way through.  Neither a round's wall nor its
    CPU includes the probes."""
    window = Window()
    pids = session.pids()

    def one(jobs: list, once: bool = False) -> None:
        window.rounds.append(Round(*run_round(
            session, jobs, lambda: _cpu_seconds(pids), host.probe), once))

    mark = len(host.samples)
    host.probe()
    started = _now()
    once = session.once_per_window()
    done = 0
    while done < min_rounds or _now() - started < seconds:
        one(session.job_list(done))
        if done == 0 and once:
            one(once, once=True)
        done += 1
        if done == min_rounds:
            # After a fixed amount of work, not at the end of the window:
            # a server's memory grows with every round it has served.
            window.peak_rss_mb = _peak_rss_mb(pids)
    window.scale = host.scale_since(mark)
    for sample in window.samples:
        sample.scale = window.scale
    return window


# ----------------------------------------------------------------- metrics
def end_to_end(session: Session, window: Window,
               setups: list[dict[str, float]]) -> dict[str, float]:
    by_kind = layers.kind_medians(window.samples)
    repeated = window.repeated
    once = [r for r in window.rounds if r.once]
    per_round = len(repeated[0].samples) + sum(len(r.samples) for r in once)
    return {
        "setup_s": statistics.median(sum(t.values()) for t in setups),
        "job_wall_gm_ms": 1e3 * statistics.geometric_mean(
            by_kind[kind] for kind in session.kinds),
        "jobs_per_s": statistics.median(
            len(r.samples) / (r.wall_s * window.scale) for r in repeated),
        # Per pass over the job list (the median pass, plus the jobs run
        # once), so that neither depends on how many rounds the window
        # held: every round has the same list, and so the same sums.
        "cpu_ms_per_job": 1e3 * window.scale * (
            statistics.median(r.cpu_s for r in repeated)
            + sum(r.cpu_s for r in once)) / per_round,
        "peak_rss_mb": window.peak_rss_mb,
        "sim_runtime_s": statistics.median(
            sum(s.sim_s for s in r.samples if s.ok) for r in repeated)
        + sum(s.sim_s for r in once for s in r.samples if s.ok),
    }


def per_layer(session: Session, untraced: Window, traced: Window,
              before: dict | None, after: dict | None,
              setups: list[dict[str, float]],
              host: Host) -> dict[str, float]:
    medians = layers.kind_medians(untraced.samples)
    out = {f"client.wall_ms.{kind}": 1e3 * medians.get(kind, 0.0)
           for kind in layers.CLIENT_KINDS}
    walls = [s.wall_s * s.scale for s in untraced.samples]
    percentile, value = layers.tail(walls)
    out["client.job_wall_tail_ms"] = 1e3 * value
    out["client.tail_percentile"] = percentile
    out["client.samples"] = len(walls)
    for phase in ("data", "context", "warm", "server_start"):
        out[f"setup.{phase}_ms"] = 1e3 * statistics.median(
            t[phase] for t in setups)
    out.update(layers.derive(traced.samples, untraced.samples, before,
                             after, session.records, session.kinds))
    out["server.job_table_len"] = session.job_table_len()
    out["host.ref_loop_ms"] = statistics.median(host.samples)
    out["host.ref_loop_spread"] = spread(host.samples)
    out["host.nproc"] = os.cpu_count() or 1
    return out


def _with_units(values: dict[str, float], specs) -> dict[str, dict]:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, *__ in specs}


# --------------------------------------------------------------------- run
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, out_dir: str | None) -> dict[str, Any]:
    """Set up, measure, check and reduce one workload; returns the result
    document the child prints."""
    sizing = QUICK if quick else FULL
    host = Host()
    setups: list[dict[str, float]] = []
    session: Session | None = None
    # The traced run spends its budget on its two phases, not on set-up.
    repeats = 1 if trace else sizing.setup_repeats[name]
    try:
        for __ in range(repeats):
            if session is not None:
                session.teardown()
            session = SESSIONS[name](seed, sizing, None)
            session.after_phase = host.probe
            mark = len(host.samples)
            host.probe()
            session.setup()
            scale = host.scale_since(mark)
            setups.append({phase: seconds_ * scale for phase, seconds_
                           in session.timings.items()})
        assert session is not None
        digest = session.job_list_digest()
        window = measure(session, seconds / 2 if trace else seconds,
                         1 if trace else sizing.min_rounds[name], host)
        detail: dict[str, Any] = {"job_list_digest": digest,
                                  "rounds": len(window.repeated),
                                  "clients": session.clients,
                                  "raw": _raw(window)}
        checked = window.samples
        if not trace:
            metrics = _with_units(end_to_end(session, window, setups),
                                  layers.END_TO_END)
        else:
            recorder = Recorder()
            session.enable_tracing(recorder)
            before = session.metrics_snapshot()
            traced = measure(session, 0.0, 1, host)
            after = session.metrics_snapshot()
            if after is None:   # a registry per job: add the jobs' up
                after = merge_snapshots(*(s.tree.attrs["metrics"]
                                          for s in traced.samples))
            metrics = _with_units(
                per_layer(session, window, traced, before, after, setups,
                          host), layers.PER_LAYER)
            detail["layers"] = layers.layer_table(traced.samples)
            detail["per_kind"] = _per_kind_counts(traced.samples)
            checked = checked + traced.samples
            if out_dir is not None:
                _write_spans(Path(out_dir) / f"{name}.spans.jsonl",
                             traced.samples)
    finally:
        if session is not None:
            session.teardown()
    noise = spread(host.samples)
    if noise > NOISE_WARNING_SPREAD:
        print(f"perfbench: warning: host reference loop spread "
              f"{noise:.0%} over {len(host.samples)} samples (median "
              f"{statistics.median(host.samples):.1f} ms): the host is "
              f"noisy, timings of this run are suspect", file=sys.stderr)
    detail["host_ref_loop_ms"] = statistics.median(host.samples)
    detail["host_ms"] = host.samples
    detail["host_ref_loop_spread"] = noise
    failed = sum(not s.ok for s in checked)
    return {"workload": name, "seed": seed, "trace": int(trace),
            "sizing": sizing.name, "correct": failed == 0,
            "attempted": len(checked), "failed": failed,
            "metrics": metrics, "detail": detail}


def _raw(window: Window) -> list[dict[str, Any]]:
    """Every measured value of the untraced window as the clock gave it
    (not scaled), so that a result file can be reduced another way."""
    out = []
    for r in window.rounds:
        walls: dict[str, list[float]] = {}
        for sample in r.samples:
            walls.setdefault(sample.kind, []).append(sample.wall_s)
        out.append({"wall_s": r.wall_s, "cpu_s": r.cpu_s, "once": r.once,
                    "jobs": len(r.samples), "walls_s": walls})
    return out


def _per_kind_counts(samples: list[Sample]) -> dict[str, dict[str, float]]:
    """Plans enumerated and lock acquisitions per job of each kind, where
    every job has a registry of its own (cold_optimize)."""
    out: dict[str, dict[str, float]] = {}
    for sample in samples:
        snapshot = sample.tree.attrs.get("metrics")
        if snapshot is None or sample.kind in out:
            continue
        delta = layers.delta(None, snapshot)
        out[sample.kind] = {
            "plans_enumerated": delta["counters"].get(
                "optimizer.plans_enumerated", 0.0),
            "lock_acquires": layers.lock_totals(delta)[0]}
    return out


def _write_spans(path: Path, samples: list[Sample]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    ids = itertools.count(1)
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            for record in flatten(sample.tree, sample.job_id, sample.kind,
                                  ids):
                handle.write(json.dumps(record, default=repr) + "\n")
