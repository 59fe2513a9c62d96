"""Golden enumeration table: counters, best cost and chosen plan per workload.

``fixtures/enumeration_golden.json`` was recorded from the commit *before*
the enumeration inner loop was restructured (``python
tests/test_enumeration_golden.py`` with ``PYTHONPATH`` on that commit's
``src`` prints a fresh table), so a pass means the restructured loop still
enumerates, prunes, wires and chooses exactly what the old one did — down
to the last bit of the cost interval.  CI runs this module under two
``PYTHONHASHSEED`` values: the chosen plan must not depend on set order.
"""

import json
import random
from pathlib import Path

import pytest

from repro import RheemContext
from repro.apps import ML4all, sgd_hinge
from repro.apps.dataciv import q5_quanta
from repro.apps.xdb import crocopr_quanta
from repro.core.optimizer import ChannelSourceDecision, LoopDecision
from repro.core.udf import Udf
from repro.workloads import (
    TpchLite,
    write_abstracts,
    write_community,
    write_points,
)

FIXTURE = Path(__file__).parent / "fixtures" / "enumeration_golden.json"


def _wordcount(ctx):
    write_abstracts(ctx, "hdfs://golden/abstracts.txt", 10)
    split = Udf(lambda line: line.split(), selectivity=9.0, name="split")
    return (ctx.read_text_file("hdfs://golden/abstracts.txt")
            .flat_map(split, name="split-words", bytes_per_record=10)
            .map(lambda w: (w, 1), name="pair", bytes_per_record=14)
            .reduce_by_key(lambda t: t[0], lambda a, b: (a[0], a[1] + b[1])))


def _sgd(ctx):
    spec = write_points(ctx, "hdfs://golden/points.csv", "higgs")
    return ML4all(ctx).training_quanta(
        "hdfs://golden/points.csv", sgd_hinge(spec.dimensions),
        iterations=100, sample_size=10)


def _crocopr(ctx):
    paths = ("hdfs://golden/communityA.txt", "hdfs://golden/communityB.txt")
    for community, path in enumerate(paths):
        write_community(ctx, path, community, sim_mb=100)
    return crocopr_quanta(ctx, *paths, iterations=10)


def _q5(ctx):
    TpchLite(0.05, seed=47).place_for_q5(ctx)
    return q5_quanta(ctx, 0.05, "polystore")


def _wide_merge(ctx):
    rng = random.Random(1_000)
    merged = None
    for i in range(8):
        branch = (ctx.load_collection([rng.randrange(1_000)
                                       for __ in range(100)])
                  .map(lambda x, __i=i: x + __i, name=f"shift{i}")
                  .filter(lambda x: x % 3 != 0, name=f"keep{i}"))
        merged = branch if merged is None else merged.union(branch)
    return merged.distinct()


def _chain100(ctx):
    rng = random.Random(2_000)
    dq = ctx.load_collection([rng.randrange(1_000_000) for __ in range(200)])
    for i in range(100):
        dq = dq.map(lambda x: x, name=f"id{i}")
    return dq


#: row -> (plan builder, prune, allowed platforms).  The two smallest plans
#: also run unpruned; CrocoPR's full unpruned space is 1.5 M plans, so its
#: unpruned row searches four platforms (20,775 plans).
ROWS = {
    "wordcount": (_wordcount, True, None),
    "sgd": (_sgd, True, None),
    "crocopr": (_crocopr, True, None),
    "q5": (_q5, True, None),
    "wide_merge": (_wide_merge, True, None),
    "chain100": (_chain100, True, None),
    "wordcount-unpruned": (_wordcount, False, None),
    "crocopr-unpruned": (_crocopr, False, {"pystreams", "sparklite",
                                           "graphlite", "driver"}),
}


def _describe(ops, partial) -> list:
    """The chosen decision of every operator, in topological position."""
    position = {op.id: i for i, op in enumerate(ops)}
    rows = []
    for op in ops:
        decision = partial.decisions[op.id]
        if isinstance(decision, LoopDecision):
            chosen = {
                "loop": sorted(decision.platforms),
                "inputs": [d.name for d in decision.input_descriptors],
                "output": decision.output_descriptor.name,
                "feedback": [s.name for s in decision.feedback.steps],
                "body": _describe(op.body.operators(), decision.body)}
        elif isinstance(decision, ChannelSourceDecision):
            chosen = {"channel": decision.descriptor.name}
        else:
            chosen = {"platform": decision.platform,
                      "ops": [type(o).__name__ for o in decision.ops]}
        chosen["conversions"] = sorted(
            [position[producer], slot, [s.name for s in path.steps],
             repr(path.cost)]
            for (producer, consumer, slot), path
            in partial.conversions.items() if consumer == op.id)
        rows.append(chosen)
    return rows


def enumerate_row(name: str) -> dict:
    build, prune, allowed = ROWS[name]
    ctx = RheemContext()
    plan = build(ctx).to_plan()
    optimizer = ctx.optimizer(allowed_platforms=allowed)
    optimizer.prune = prune
    best, __ = optimizer.pick_best(plan)
    return {"stats": dict(optimizer.stats),
            "lower": repr(best.cost.lower), "upper": repr(best.cost.upper),
            "plan": _describe(plan.operators(), best)}


@pytest.mark.parametrize("name", list(ROWS))
def test_enumeration_matches_the_recorded_table(name):
    golden = json.loads(FIXTURE.read_text())[name]
    got = enumerate_row(name)
    # The fixture holds the counters that existed when it was recorded.
    assert {key: got["stats"][key] for key in golden["stats"]} \
        == golden["stats"]
    assert (got["lower"], got["upper"]) == (golden["lower"], golden["upper"])
    assert got["plan"] == golden["plan"]


@pytest.mark.parametrize("name, graph_calls", [("q5", 1_000),
                                               ("sgd", 10_000)])
def test_cold_job_keeps_the_inner_loop_off_the_shared_graph(
        name, graph_calls):
    """Exact counts, no timing: per-wiring graph calls would be 32,591
    (Q5) / 558,890 (SGD)."""
    ctx = RheemContext()
    searches = []
    search = ctx.graph.paths_from
    ctx.graph.paths_from = lambda *args: searches.append(args) or search(*args)
    ROWS[name][0](ctx).execute()
    assert 0 < len(searches) <= graph_calls


if __name__ == "__main__":
    print("{\n" + ",\n".join(  # one row per line
        f" {json.dumps(name)}: {json.dumps(enumerate_row(name))}"
        for name in ROWS) + "\n}")
