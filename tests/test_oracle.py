"""One differential oracle for every execution strategy: plans drawn in
the log generator's shapes over int and string records, each source behind
``map("x")`` declaring ``batch_udf=lambda b: b``, run by :func:`check`
under every strategy against :func:`interpret` (one loop per operator over
lists) or, where partitioning decides the output, the cold run.  Each
merge shape's example set must draw every merge kind and a narrow operator
read twice, once by a narrow link (:func:`narrow_read_twice`), and the
intersect shape's an intersect whose left input repeats a record the
right one holds and one of int pairs from a declared map
(:func:`tally`).  CI runs it under two hash seeds:
shuffles place records by ``hash(key) % n``.
"""

import functools
import json
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import RheemContext
from repro.apps import ML4all, crocopr_quanta, q5_quanta, sgd_hinge
from repro.core.batch import RecordBatch, records_of
from repro.core.executor import Sniffer
from repro.core.faults import FaultInjector
from repro.core.optimizer import OptimizationError
from repro.core.progressive import PausedJob
from repro.platforms.distributed import PartitionedDataset
from repro.platforms.pgres.engine import Relation
from repro.server import JobServer
from repro.simulation.cluster import SimulatedOutOfMemory
from repro.workloads import TpchLite, write_community, write_points
from conftest import declared_wordcount, stripped

#: Map expressions by record type -> the type they make.
MAPS = {"int": {"x * 3 - 7": "int", "x // 2": "int", "str(x % 5)": "str",
                "(x % 4, x)": "pair"},
        "str": {"x + 'a'": "str", "x[:1]": "str", "len(x)": "int",
                "(len(x), 1)": "pair"},
        "pair": {"x[0] + x[1]": "int", "(x[1] % 3, x[0])": "pair",
                 "str(x[0])": "str"}}
FLAT_MAPS = {"int": ("[x, x + 1]", "int"), "str": ("list(x)", "str"),
             "pair": ("list(x)", "int")}
FILTERS = {"int": "x % 2 == 0", "str": "'a' in x", "pair": "x[1] % 2 == 1"}
KEYS = {"int": "x % 3", "str": "x[:1]", "pair": "x[0]"}  # sort, group
#: Commutative and associative: the fold order cannot show.
REDUCERS = {"int": "a + b", "str": "max(a, b)",
            "pair": "(min(a[0], b[0]), a[1] + b[1])"}
GROW = ("abs(x) * 2 + 1", "abs(x) + 7")  # loop bodies over ints
CONTINUE = "len(x) > 0 and max(x) < 50"  # the do-while condition

#: An int -> int-pair map declared with a columnar twin: two int64 columns,
#: negative wherever ``x`` is.
PAIRS = "(x % 3, x)"
#: Map expressions that declare a columnar twin: the identity behind every
#: source, and :data:`PAIRS`.
BATCH_TWINS = {
    "x": lambda b: b,
    PAIRS: lambda b: RecordBatch.from_tuple_columns(
        (np.asarray(b.col(0)) % 3, np.asarray(b.col(0)))),
}


def udf(params, expr):
    """The function a job document's ``expr`` denotes (as ``serde``'s)."""
    return eval(f"lambda {params}: {expr}")


@st.composite
def source(draw):
    rtype = draw(st.sampled_from(("int", "str")))
    data = draw(st.lists(st.integers(-3, 6) if rtype == "int"
                         else st.text("abc", max_size=3), max_size=12))
    return ("map", "x", ("source", (data, draw(st.sampled_from(
        (1.0, 1e4)))))), rtype


@st.composite
def steps(draw, node, rtype, most):
    """``node`` followed by up to ``most`` unary operators."""
    for __ in range(draw(st.integers(0, most))):
        kind = draw(st.sampled_from(("map", "map", "flat_map", "filter",
                                     "distinct", "sort", "reduce", "count",
                                     "reduce_by")))
        if kind == "map":
            expr = draw(st.sampled_from(sorted(MAPS[rtype])))
            node, rtype = ("map", expr, node), MAPS[rtype][expr]
        elif kind == "flat_map":
            expr, rtype = FLAT_MAPS[rtype]
            node = ("flat_map", expr, node)
        elif kind == "count":
            node, rtype = ("count", None, node), "int"
        elif kind == "reduce_by":
            node, rtype = ("reduce_by", "(a[0], a[1] + b[1])",
                           convert(node, rtype, "pair")), "pair"
        else:
            node = (kind, {"filter": FILTERS, "sort": KEYS,
                           "reduce": REDUCERS}.get(kind, {}).get(rtype), node)
        if draw(st.integers(0, 3)) == 0:
            node = ("map", "x", node)
    return node, rtype


def convert(node, rtype, want):
    """``node``, mapped to ``want`` records by one of :data:`MAPS`."""
    return node if rtype == want else ("map", next(
        expr for expr, made in MAPS[rtype].items() if made == want), node)


#: Narrow operators over ints, without a batch kernel: chain links, and
#: the only nodes a merge's branches share as one object (:func:`build`).
NARROW = (("map", "x // 2"), ("filter", FILTERS["int"]),
          ("flat_map", FLAT_MAPS["int"][0]))
#: The pipeline and iterative shapes, and the merge shape by its first merge.
SHAPES = ("pipeline", "iterative", "join", "union", "intersect", "broadcast")


@st.composite
def plans(draw, shape):
    """A plan in ``shape``; a merge's branch often reads the trunk's
    source (built anew: a second operator over the same data), or
    continues, by a narrow operator, a narrow operator over the trunk
    that the merge reads too (one node object, so one chain link read
    twice)."""
    first = draw(source())
    node, rtype = draw(steps(*first, most=4 if shape == "pipeline" else 2))
    if shape == "iterative":
        body = draw(st.lists(st.sampled_from(GROW), min_size=1, max_size=2))
        iterations = draw(st.sampled_from((None, 1, 3)))  # None: do-while
        node = ("loop", (iterations, body), convert(node, rtype, "int"))
        rtype = "int"
    elif shape != "pipeline":
        merges = [shape] + draw(st.lists(st.sampled_from(SHAPES[2:]),
                                         max_size=2))
        for i, kind in enumerate(merges):
            left = convert(node, rtype, "int")
            shared = draw(st.sampled_from(("source", "narrow", "source",
                                           None)))
            if shared == "narrow":  # read by the merge and by a link
                left = (*draw(st.sampled_from(NARROW)), left)
                branch = (*draw(st.sampled_from(NARROW)), left), "int"
            else:
                branch = first if shared else draw(source())
            other = convert(*draw(steps(*branch, most=2)), "int")
            rtype = "pair" if kind == "join" else "int"
            if i == 0 and shape == "intersect":  # it intersects int pairs
                left, other = ("map", PAIRS, left), ("map", PAIRS, other)
                rtype = "pair"
            node = (kind, None, left, other)
    node, rtype = draw(steps(node, rtype, most=2))
    tail = draw(st.sampled_from((None, None, "sample", "zip", "group_by")))
    if tail is not None:
        node = (tail, {"sample": 3, "group_by": KEYS[rtype]}.get(tail), node)
    return node


def folded(xs, key, fold):
    """``xs`` grouped by ``key``, each group folded (or kept)."""
    groups = {}
    for x in xs:
        groups.setdefault(udf("x", key)(x), []).append(x)
    return list(groups.items()) if fold is None else [
        functools.reduce(udf("a, b", fold), g) for g in groups.values()]


def looped(dq, arg):
    iterations, body = arg

    step = lambda s: functools.reduce(
        lambda q, e: q.map(udf("x, *bc", e)), body, s)
    if iterations:
        return dq.repeat(iterations, step)
    return dq.do_while(udf("x", CONTINUE), step, expected=3,
                       max_iterations=8)


def looped_reference(xs, arg):
    iterations, body = arg
    for __ in range(iterations or 8):
        for expr in body:
            xs = [udf("x", expr)(x) for x in xs]
        if not iterations and not udf("x", CONTINUE)(xs):
            break
    return xs


#: kind -> (the DataQuanta call, the reference over lists, the job
#: document fields — None where documents have no such operator).
READINGS = {
    "map": (lambda dq, a: dq.map(udf("x, *bc", a), broadcasts=[],
                                 batch_udf=BATCH_TWINS.get(a)),
            lambda xs, a: [udf("x", a)(x) for x in xs],
            lambda a: {"expr": a}),
    "flat_map": (lambda dq, a: dq.flat_map(udf("x, *bc", a), broadcasts=[]),
                 lambda xs, a: [y for x in xs for y in udf("x", a)(x)],
                 lambda a: {"kind": "flatmap", "expr": a}),
    "filter": (lambda dq, a: dq.filter(udf("x, *bc", a), broadcasts=[]),
               lambda xs, a: [x for x in xs if udf("x", a)(x)],
               lambda a: {"expr": a}),
    "distinct": (lambda dq, a: dq.distinct(),
                 lambda xs, a: [x for i, x in enumerate(xs)
                                if x not in xs[:i]],
                 lambda a: {}),
    "sort": (lambda dq, a: dq.sort(key=udf("x", a)),
             lambda xs, a: sorted(xs, key=udf("x", a)),
             lambda a: {"key": a}),
    "reduce": (lambda dq, a: dq.reduce(udf("a, b", a)),
               lambda xs, a: folded(xs, "0", a),
               lambda a: {"reducer": a}),
    "reduce_by": (lambda dq, a: dq.reduce_by_key(udf("x", "x[0]"),
                                                 udf("a, b", a)),
                  lambda xs, a: folded(xs, "x[0]", a),
                  lambda a: {"kind": "reduceby", "key": "x[0]",
                             "reducer": a}),
    "group_by": (lambda dq, a: dq.group_by(udf("x", a)),
                 lambda xs, a: folded(xs, a, None),
                 lambda a: {"kind": "groupby", "key": a}),
    "count": (lambda dq, a: dq.count(), lambda xs, a: [len(xs)],
              lambda a: {}),
    "sample": (lambda dq, a: dq.sample(size=a, method="random",
                                       broadcasts=[]),
               lambda xs, a: xs[:a], lambda a: {"size": a}),
    "zip": (lambda dq, a: dq.zip_with_id(),
            lambda xs, a: list(enumerate(xs)), None),
    "loop": (looped, looped_reference, None),
    "union": (lambda dq, a, other: dq.union(other),
              lambda xs, a, other: xs + other, lambda a: {}),
    "intersect": (lambda dq, a, other: dq.intersect(other),
                  lambda xs, a, other: [x for i, x in enumerate(xs)
                                        if x in other and x not in xs[:i]],
                  lambda a: {}),
    "broadcast": (lambda dq, a, side: dq.map(
        udf("x, *bc", "x + len(bc[0])"), broadcasts=[side],
        batch_udf=lambda b, side: [x + len(side) for x in b.to_records()]),
        lambda xs, a, side: [x + len(side) for x in xs], None),
    "join": (lambda dq, a, other: dq.join(other, udf("x", "x % 4"),
                                          udf("x", "x % 4")),
             lambda xs, a, other: [(l, r) for l in xs for r in other
                                   if l % 4 == r % 4],
             lambda a: {"left_key": "x % 4", "right_key": "x % 4"}),
}


def build(ctx, node, built=None):
    """The plan as a :class:`DataQuanta`: a :data:`NARROW` node object
    reached twice is built once, into one operator read twice; any other
    node is built anew on each path (a shared source: two operators)."""
    built = {} if built is None else built
    if id(node) in built:
        return built[id(node)]
    kind, arg, *children = node
    if kind == "source":
        return ctx.load_collection(list(arg[0]), sim_factor=arg[1],
                                   bytes_per_record=100.0)
    first, *others = [build(ctx, child, built) for child in children]
    quanta = READINGS[kind][0](first, arg, *others)
    if node[:2] in NARROW:
        built[id(node)] = quanta
    return quanta


def interpret(node):
    """The plan's answer: one Python loop per operator over lists."""
    kind, arg, *children = node
    if kind == "source":
        return list(arg[0])
    first, *others = map(interpret, children)
    return READINGS[kind][1](first, arg, *others)


def document(node):
    """The plan as a job document; None where it has a loop or a zip.  A
    :data:`NARROW` node object reached twice is one named operator."""
    operators, named = [], {}

    def add(node):
        if id(node) in named:
            return named[id(node)]
        kind, arg, *children = node
        names = dict(zip(("input",) if len(children) == 1 else
                         ("left", "right"), map(add, children)))
        if kind == "source":
            spec = {"kind": "collection_source", "data": list(arg[0]),
                    "sim_factor": arg[1]}
        elif READINGS[kind][2] is None:
            raise LookupError(kind)
        else:
            spec = {"kind": kind, **READINGS[kind][2](arg)}
        operators.append({"name": f"op{len(operators)}", **names, **spec})
        if node[:2] in NARROW:
            named[id(node)] = operators[-1]["name"]
        return operators[-1]["name"]

    try:
        return {"operators": operators, "sink": {"name": add(node)}}
    except LookupError:
        return None


def records(payload):
    """A payload's records: a partitioned dataset's or a relation's too."""
    if isinstance(payload, PartitionedDataset):
        return payload.to_list()
    return records_of(payload.rows if isinstance(payload, Relation)
                      else payload)


def multiset(out):
    """The output as a multiset by ``repr``, floats to 9 places."""
    def rounded(value):
        if isinstance(value, float):
            return round(value, 9)
        if isinstance(value, (list, tuple)):
            return type(value)(map(rounded, value))
        return value

    return Counter(repr(rounded(record)) for record in out)


def canonical(node):  # how an output compares across placements
    kind, arg = node[:2]
    return {"sample": len,
            "zip": lambda out: (len({i for i, __ in out}),  # unique ids
                                multiset(record for __, record in out)),
            "group_by": lambda out: multiset(
                (k, sorted(m, key=repr)) for k, m in out),
            "sort": lambda out: (multiset(out),
                                 [udf("x", arg)(x) for x in out]),
            }.get(kind, multiset)


class CrashFirstAttempts(FaultInjector):  # of every stage, loops' too
    def should_fail(self, stage_id, attempt):
        self.injected += attempt == 0
        return attempt == 0


@pytest.fixture(scope="module")
def servers():  # a one-shard thread server and a one-shard process one
    kw = dict(workers=1, tracing=False, context_factory=lambda: RheemContext(
        config={"result_reuse": False}))
    with JobServer(**kw) as thread, JobServer(backend="process",
                                              **kw) as process:
        yield [thread, process]


def same(run, cold):  # the same records, platforms and makespan
    assert (run.output, list(map(repr, run.output)), run.platforms,
            run.runtime) == (cold.output, list(map(repr, cold.output)),
                             cold.platforms, cold.runtime)


def check(make, canon, batches, servers, reference=None, pause_at=3,
          doc=None, declared=True, setup=lambda ctx: None, resident=()):
    """Run ``make(ctx)`` under every strategy, ``setup`` on each new
    context; pinned runs may use the ``resident`` platforms too."""
    def context(**config):
        ctx = RheemContext(config=config)
        setup(ctx)
        return ctx

    del batches[:]
    cached = context(result_reuse=False)
    cold = make(cached).execute()
    assert type(cold.output) is list
    if reference is not None:
        assert canon(cold.output) == canon(reference)
    assert bool(batches) == declared, "a declared plan built a batch"

    same(make(cached).execute(), cold)  # plan-warm
    assert cached.plan_cache.stats["hits"] == 1

    ctx = context()  # reuse-warm, every output admitted
    ctx.result_store.min_benefit = 0.0
    make(ctx).execute()
    assert canon(make(ctx).execute().output) == canon(cold.output)
    assert ctx.result_store.stats["hits"] >= 1

    ctx = context()  # paused, resumed, and sniffed where it paused
    plan = make(ctx).to_plan()
    ops = [op for op in plan.operators() if op not in plan.sinks]
    op = ops[pause_at % len(ops)]
    paused = ctx.execute_paused(plan, {op.id})
    assert isinstance(paused, PausedJob) and op.id in paused.completed
    assert canon(ctx.resume(paused).output) == canon(cold.output)
    tapped = []
    sniffed = ctx.execute(plan, sniffers=[Sniffer(op.id, tapped.append)])
    payload, = tapped  # a collection as a plain list, a dataset as it is
    assert isinstance(payload, (list, PartitionedDataset, Relation))
    assert multiset(records(payload)) \
        == multiset(records(paused.inspect(op.id)))
    assert canon(sniffed.output) == canon(cold.output)

    pinned = 0  # on the plan-warm context: no pin may replay another's plan
    for platform in [p.name for p in ctx.platforms]:
        allowed = {platform, "driver", *resident}
        try:
            run = make(cached).execute(allowed_platforms=allowed)
        except (OptimizationError, SimulatedOutOfMemory):
            continue
        assert run.platforms <= allowed and canon(run.output) == canon(
            cold.output), platform
        pinned += 1
    assert pinned, "no single platform ran the plan"

    injector = CrashFirstAttempts()
    crashed = make(context()).execute(fault_injector=injector)
    assert injector.injected and crashed.runtime >= cold.runtime
    assert (crashed.output, crashed.platforms) == (cold.output,
                                                   cold.platforms)

    del batches[:]
    same(stripped(make(context())).execute(), cold)
    assert not batches, "a stripped plan built a record batch"

    for server in servers if doc is not None else ():
        job = server.submit(doc)
        answer = server.result(job.job_id, timeout=60)
        assert (answer["output"], answer["platforms"], answer["runtime"]) \
            == (json.loads(json.dumps(cold.output)), sorted(cold.platforms),
                cold.runtime), answer
        shard, = server.snapshot()["shards"]
        assert (shard["pid"] not in (None, os.getpid())) \
            == (server.backend == "process"), "the process shard answered"


def tally(node, drawn):
    """Count ``node``'s merges by kind into ``drawn``, and under "held
    duplicate" each intersect whose left input repeats a record that its
    right input holds (what an intersect without dedupe gets wrong)."""
    kind, arg, *children = node
    for child in children:
        tally(child, drawn)
    if kind in SHAPES[2:]:
        drawn[kind] += 1
    if kind == "intersect":
        left, right = map(interpret, children)
        drawn["held duplicate"] += any(
            left.count(x) > 1 and x in right for x in left)
        if children[0][:2] == ("map", PAIRS):
            drawn["int pairs"] += 1
            drawn["packed pairs"] += bool(left and right) and all(
                0 <= v < 2**31 for pair in left + right for v in pair)


def narrow_read_twice(node) -> bool:
    """Whether a :data:`NARROW` node object of ``node`` feeds two inputs,
    one of them a :data:`NARROW` link: a chain could run on through it,
    but its output must be materialized for its other reader."""
    nodes, readers, stack = {}, {}, [node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            for child in node[2:]:
                readers.setdefault(id(child), []).append(node)
                stack.append(child)
    return any(node[:2] in NARROW and len(readers.get(key, ())) > 1
               and any(reader[:2] in NARROW for reader in readers[key])
               for key, node in nodes.items())


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_plans_agree_under_every_strategy(shape, batches, servers):
    drawn = Counter()

    @settings(max_examples=12, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def run(data):
        plan = data.draw(plans(shape), label="plan")
        tally(plan, drawn)
        drawn["narrow read twice"] += narrow_read_twice(plan)
        check(lambda ctx: build(ctx, plan), canonical(plan), batches,
              servers, interpret(plan),
              data.draw(st.integers(0, 20), label="pause_at"), document(plan))

    run()
    # The derandomized set reaches what it reaches: a seed or strategy
    # change must not silently stop drawing a merge kind or a property.
    if shape in SHAPES[2:]:
        assert all(drawn[kind] for kind in SHAPES[2:]), drawn
        assert drawn["narrow read twice"], drawn
    if shape == "intersect":
        assert drawn["held duplicate"] and drawn["packed pairs"], drawn
        assert drawn["int pairs"] < drawn["intersect"], drawn


PATHS = ("hdfs://oracle/a.txt", "hdfs://oracle/b.txt")


#: name -> how ``check`` runs the application's plan.
APPLICATIONS = {
    "wordcount": dict(
        setup=lambda ctx: ctx.vfs.write(PATHS[0], ["a b", "b c", "a a b"],
                                        sim_factor=1000.0),
        make=lambda ctx: declared_wordcount(ctx, PATHS[0]), canon=multiset),
    "q5": dict(setup=lambda ctx: TpchLite(0.05, seed=47).place_for_q5(ctx),
               make=lambda ctx: q5_quanta(ctx, 0.05, "polystore"),
               canon=multiset, resident=("pgres",)),
    "crocopr": dict(
        setup=lambda ctx: [write_community(ctx, path, i, sim_mb=100)
                           for i, path in enumerate(PATHS)],
        make=lambda ctx: crocopr_quanta(ctx, *PATHS, iterations=10),
        canon=multiset),
    "sgd": dict(setup=lambda ctx: write_points(ctx, PATHS[0], "higgs"),
                make=lambda ctx: ML4all(ctx).training_quanta(
                    PATHS[0], sgd_hinge(28), iterations=100,
                    sample_size=10),
                canon=len, declared=False),
}


@pytest.mark.parametrize("name", list(APPLICATIONS))
def test_application_plans_agree_under_every_strategy(name, batches,
                                                      servers):
    check(batches=batches, servers=servers, **APPLICATIONS[name])
