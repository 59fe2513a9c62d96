"""Golden execution table: what a job does, recorded before the stage
driver changed.

``fixtures/execution_golden.json`` was recorded from the commit *before*
the lane scheduler was deleted, at that commit's default settings (lanes
on): ``PYTHONPATH=<that commit's src> python tests/test_execution_golden.py
--write``.  A pass means the one stage driver produces, for every scenario,
the same outputs, simulated makespan, critical-path records (stage id,
start, end at full ``repr``), monitor observations in order, started
platforms and ``executor.*`` counter deltas as the scheduler it replaced.
The ``progressive`` and ``paused_resumed`` rows were re-recorded when a
resume became a result-reuse restart: its placeholder reads
``cached_result`` and its stages start at the paused makespan, which the
earlier rows left out of ``runtime``.
The ``loop_consumer`` row was recorded from the commit before the stage
commit stopped buffering critical-path records; it pins a known defect
(a loop's driver stage is recorded next to its body, not after it) so
that its fix re-records the row on purpose.
CI runs this module under two ``PYTHONHASHSEED`` values.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from repro import RheemContext
from repro.core.executor import Sniffer
from repro.core.faults import FaultInjector
from repro.core.progressive import PausedJob
from conftest import wordcount
from test_enumeration_golden import _crocopr, _q5, _sgd, _wordcount
from test_progressive import _lookup_join_plan

FIXTURE = Path(__file__).parent / "fixtures" / "execution_golden.json"

COUNTERS = ("executor.stages", "executor.attempts", "executor.conversions",
            "executor.retries_wasted", "executor.platform_startups")


def _norm(stage_id: str) -> str:
    """Loop-implementation ids are process-global counters; the stage
    structure around them is what is recorded."""
    return re.sub(r"\.loop\d+\.", ".loop.", stage_id)


def _plain(value):
    """``value`` as JSON would hand it back (tuples are lists, numpy
    scalars are Python numbers)."""
    return json.loads(json.dumps(
        value, default=lambda v: v.tolist() if hasattr(v, "tolist")
        else list(v)))


def _observations(monitor) -> list:
    return [[_norm(o.stage_id), o.platform, repr(o.duration_s),
             repr(o.known_seconds),
             [[p.platform, p.op_kind, repr(p.work), repr(p.cin), repr(p.cout)]
              for p in o.operators]]
            for o in monitor.stage_observations]


def _counters(ctx) -> dict:
    counters = ctx.metrics.snapshot()["counters"]
    return {name: counters.get(name, 0) for name in COUNTERS}


def _record(ctx, before, result, unordered=False, counters=COUNTERS,
            **extra) -> dict:
    """``unordered``: the sink's record order follows ``hash()`` (a
    shuffle places rows by key hash), so the records are compared sorted."""
    after = _counters(ctx)
    return _plain({
        "outputs": ([sorted(out) for out in result.outputs] if unordered
                    else result.outputs),
        "runtime": repr(result.runtime),
        "stage_count": result.stage_count,
        "tracker": [[_norm(t.stage_id), repr(t.start), repr(t.end)]
                    for t in result.tracker.timings()],
        "observations": _observations(result.monitor),
        "platforms": sorted(result.platforms),
        "counters": {name: after[name] - before[name] for name in counters},
        **extra})


def _run(build, unordered=False, **kwargs) -> dict:
    ctx = RheemContext()
    quanta = build(ctx)
    before = _counters(ctx)
    return _record(ctx, before, quanta.execute(**kwargs), unordered)


def _do_while(ctx):
    data = ctx.load_collection([1, 2, 3], sim_factor=5_000.0).cache()
    seed = ctx.load_collection([0])
    return seed.do_while(
        lambda values: values[0] < 6,
        lambda s, inv: s.map(lambda v: v + 1)
        .union(inv.filter(lambda v: False)).reduce(lambda a, b: a + b),
        invariants=[data], max_iterations=50)


def _faulty_planned() -> dict:
    # Crashes on two independent branches of the widest plan we have and
    # on the stage that joins them: wasted attempts chain on the critical
    # path, nothing of a crashed attempt is observed.
    return _run(_q5, max_stage_retries=2, fault_injector=FaultInjector(
        failures={"stage1": 2, "stage3": 1, "stage7": 2}))


def _chain_loop(ctx):
    seed = ctx.load_collection([0], sim_factor=5_000.0)
    return seed.do_while(
        lambda values: values[0] < 6,
        lambda s: s.map(lambda v: v + 1).reduce(lambda a, b: a + b),
        max_iterations=50)


def _faulty_seeded() -> dict:
    # A seeded coin per attempt on a chain of stages, so the draws come in
    # one order under any scheduler.  This seed crashes loop-body stages
    # and, once, the loop's own driver stage after its last iteration: the
    # whole loop runs again.
    return _run(_chain_loop, max_stage_retries=3,
                fault_injector=FaultInjector(probability=0.25, seed=5))


def _loop_consumer() -> dict:
    # Pins a known defect, not a wanted behaviour: a loop's driver stage
    # ("stage3") is recorded next to its body, not after it, so the map
    # consuming the loop's output starts before the body's last stage
    # ends; and when the driver stage crashes once the whole loop runs
    # again, yet the makespan equals the clean run's — the re-run body
    # records overwrite the first run's under the same ids.
    def build(ctx):
        return _do_while(ctx).map(lambda v: v * 2)

    return {"clean": _run(build),
            "driver_crash": _run(build, max_stage_retries=1,
                                 fault_injector=FaultInjector(
                                     failures={"stage3": 1}))}


def _sniffed() -> dict:
    ctx = RheemContext()
    ctx.vfs.write("hdfs://golden/sniff.txt", ["a b b"] * 30,
                  sim_factor=50_000.0)
    counts = wordcount(ctx, "hdfs://golden/sniff.txt")
    flatmap_op = counts.op.inputs[0].op.inputs[0].op
    tapped = []
    before = _counters(ctx)
    # On pystreams the tap sees a plain record list.
    result = counts.execute(allowed_platforms={"pystreams", "driver"},
                            sniffers=[Sniffer(flatmap_op.id, tapped.append)])
    return _record(ctx, before, result, tapped=tapped)


def _sniffed_loop() -> dict:
    ctx = RheemContext()
    data = ctx.load_collection(list(range(100)), sim_factor=50_000.0).cache()
    seed = ctx.load_collection([0])
    ids = []

    def body(s, inv):
        stepped = s.map(lambda v: v + 1)
        ids.append(stepped.op.id)
        return stepped

    out = seed.repeat(4, body, invariants=[data])
    tapped = []
    before = _counters(ctx)
    result = out.execute(
        sniffers=[Sniffer(ids[0], tapped.append, cost_factor=5000.0)])
    return _record(ctx, before, result, tapped=tapped)


def _progressive() -> dict:
    ctx = RheemContext()
    plan = _lookup_join_plan(ctx, 0.0001)
    before = _counters(ctx)
    report = ctx.execute_progressive(plan, tolerance=2.0)
    # Two counters are left out of this row: when the checkpoint paused
    # the job, the lane scheduler had already computed — and then threw
    # away — the stage after it (6 attempts, 3 platform start-ups); the
    # one driver never starts that stage (5 and 2).  Nothing simulated
    # saw the difference.
    return _record(ctx, before, report.result, unordered=True,
                   counters=("executor.stages", "executor.conversions",
                             "executor.retries_wasted"),
                   replans=report.replans)


def _paused_resumed() -> dict:
    ctx = RheemContext()
    ctx.vfs.write("hdfs://golden/pr.txt", [f"{i}" for i in range(100)],
                  sim_factor=1000.0)
    parsed = ctx.read_text_file("hdfs://golden/pr.txt").map(int, name="parse")
    plan = (parsed.filter(lambda v: v % 2 == 0, name="evens").sort()
            .to_plan())
    before = _counters(ctx)
    paused = ctx.execute_paused(plan, break_after={parsed.op.id})
    assert isinstance(paused, PausedJob)
    return _record(
        ctx, before, ctx.resume(paused),
        inspected=paused.inspect(parsed.op.id),
        paused_observations=_observations(paused.monitor),
        paused_platforms=sorted(paused.started_platforms))


SCENARIOS = {
    "wordcount": lambda: _run(_wordcount, unordered=True),
    "sgd": lambda: _run(_sgd),
    "crocopr": lambda: _run(_crocopr),
    "q5": lambda: _run(_q5),
    "do_while": lambda: _run(_do_while),
    "faulty_planned": _faulty_planned,
    "faulty_seeded": _faulty_seeded,
    "sniffed": _sniffed,
    "sniffed_loop": _sniffed_loop,
    "progressive": _progressive,
    "paused_resumed": _paused_resumed,
    "loop_consumer": _loop_consumer,
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_execution_matches_the_recorded_table(name):
    golden = json.loads(FIXTURE.read_text())[name]
    got = SCENARIOS[name]()
    assert sorted(got) == sorted(golden)
    for key in golden:      # one field at a time: a readable failure
        assert got[key] == golden[key], key


if __name__ == "__main__":
    table = "{\n" + ",\n".join(  # one scenario per line
        f" {json.dumps(name)}: {json.dumps(run())}"
        for name, run in SCENARIOS.items()) + "\n}\n"
    if "--write" in sys.argv:
        FIXTURE.write_text(table)
    else:
        sys.stdout.write(table)
