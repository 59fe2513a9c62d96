"""One set of record kernels under every engine (``repro.core.kernels``).

(i) each kernel equals a naive specification loop written here, order
included; (ii) every kernel-backed logical operator agrees across the
engines through the public API, and its plan with columnar declarations
(and record batches for input) agrees with the same plan stripped of
them; (iii) a raising UDF — ``StopIteration`` included — fails the job,
never shortens it; (iv) no engine enters ``Udf.__call__`` per record;
(v) UDFs are bound per execution, not per operator instance; (vi) a chain
of narrow operators charges and observes what its operators charge and
observe one by one, and nothing downstream reads a chained intermediate.

Shuffle placement follows ``hash()``: CI runs this module under
``PYTHONHASHSEED`` 0 and 1, so nothing here may depend on it.
"""

import operator
import os
import random
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import RheemContext
from repro.core import kernels
from repro.core import operators as ops
from repro.core.batch import RecordBatch, fold_by_key_columns, run_intersect
from repro.core.channels import Channel
from repro.core.execution import ExecutionContext
from repro.core.executor import Sniffer
from repro.core.monitor import OperatorObservation
from repro.core.progressive import PausedJob
from repro.core.udf import Udf
from repro.platforms import builtin_platforms
from repro.platforms.base import _sample_seed
from repro.platforms.dataflow import DFNarrow, DFSample
from repro.platforms.flinklite import FLINK
from repro.platforms.pystreams import PYSTREAMS
from repro.platforms.sparklite import SPARK
from repro.simulation.clock import CostMeter
from conftest import stripped
from test_extensibility import TOYFLOW
from test_progressive import _lookup_join_plan

# ------------------------------------------------------------ (i) kernels
ints = st.integers(-4, 4)
words = st.text("ab", max_size=2)
record_lists = st.one_of(
    st.lists(ints, max_size=12),
    st.lists(words, max_size=12),
    st.lists(st.tuples(ints, words), max_size=12),
    st.lists(st.fixed_dictionaries({"a": ints, "b": words}), max_size=12),
)
broadcasts = st.lists(ints, max_size=2)


def bucket(x, *bvals):
    """A key every record shape has, with few distinct values."""
    return (len(repr(x)) + sum(bvals)) % 3


def merge(a, b):
    """A reducer that is neither commutative nor associative: any change
    of fold order or direction shows in the result."""
    return (a, b)


class TestBind:
    def test_unwraps_only_what_is_wrapped(self):
        fn = len
        assert kernels.bind(Udf(fn)) is fn
        assert kernels.bind(fn) is fn
        assert kernels.bind(None) is None

    @given(record_lists, broadcasts)
    def test_broadcasts_follow_the_record(self, records, bvals):
        udf = Udf(lambda x, *b: (x, b))
        fn = kernels.bind(udf)
        assert kernels.map_records(fn, records, bvals) == [
            udf(x, *bvals) for x in records]


class TestKernelsMatchSpecification:
    @given(record_lists, broadcasts)
    def test_map(self, records, bvals):
        expected = []
        for x in records:
            expected.append((bucket(x, *bvals), x))
        fn = kernels.bind(Udf(lambda x, *b: (bucket(x, *b), x)))
        assert kernels.map_records(fn, records, bvals) == expected

    @given(record_lists, broadcasts)
    def test_flat_map_accepts_any_iterable(self, records, bvals):
        shapes = [list, tuple, iter]

        def explode(x, *b):
            n = bucket(x, *b)
            return shapes[n]([x] * n)

        expected = []
        for x in records:
            expected.extend([x] * bucket(x, *bvals))
        fn = kernels.bind(explode)
        assert kernels.flat_map_records(fn, records, bvals) == expected

    @given(record_lists, broadcasts)
    def test_filter_keeps_the_truthy(self, records, bvals):
        expected = []
        for x in records:
            if bucket(x, *bvals) != 0:
                expected.append(x)
        # The predicate answers 0 / 1 / 2, not a bool.
        fn = kernels.bind(Udf(bucket))
        assert kernels.filter_records(fn, records, bvals) == expected

    @given(record_lists)
    def test_distinct_by_identity(self, records):
        expected = []
        for x in records:
            if x not in expected:  # equality, no hashing
                expected.append(x)
        assert kernels.distinct_records(records) == expected

    @given(record_lists)
    def test_distinct_by_key(self, records):
        expected, keys = [], []
        for x in records:
            if bucket(x) not in keys:
                keys.append(bucket(x))
                expected.append(x)
        assert kernels.distinct_records(records, bucket) == expected

    @given(record_lists, record_lists)
    def test_intersect(self, left, right):
        expected = []
        for x in left:
            if x in right and x not in expected:
                expected.append(x)
        assert kernels.intersect_records(left, right) == expected

    @given(record_lists)
    def test_group_by_key(self, records):
        expected = []
        for x in records:
            for k, members in expected:
                if k == bucket(x):
                    members.append(x)
                    break
            else:
                expected.append((bucket(x), [x]))
        assert kernels.group_by_key(bucket, records) == expected

    @given(record_lists)
    def test_fold_by_key_and_fold_groups(self, records):
        expected = []
        for k, members in kernels.group_by_key(bucket, records):
            acc = members[0]
            for m in members[1:]:
                acc = merge(acc, m)
            expected.append(acc)
        assert kernels.fold_by_key(bucket, merge, records) == expected
        assert kernels.fold_groups(
            merge, kernels.group_by_key(bucket, records)) == expected

    @given(record_lists)
    def test_fold_records(self, records):
        expected = []
        if records:
            acc = records[0]
            for x in records[1:]:
                acc = merge(acc, x)
            expected = [acc]
        assert kernels.fold_records(merge, records) == expected
        assert kernels.fold_records(merge, iter(records)) == expected

    @given(record_lists, record_lists)
    def test_hash_join(self, left, right):
        expected = []
        for l in left:
            for r in right:
                if bucket(l) == bucket(r):
                    expected.append((l, r))
        assert kernels.hash_join(bucket, bucket, left, right) == expected


class TestIntersectOverBatches:
    """``run_intersect`` keys batches of int64 columns by their rows' ints
    and answers what ``intersect_records`` answers over the records."""

    #: Values that pack (``[0, 2**31)``), and values that make a batch fall
    #: back: negative, at or past ``2**31``, past int64, float.
    PACKED = st.integers(0, 4) | st.just(2**31 - 1)
    FALLBACK = st.sampled_from((-1, 2**31, 2**40, 2**64, 1.0, 2.5))

    @staticmethod
    def sides(width, values):
        record = values if width == 0 else st.tuples(*[values] * width)
        return st.lists(record, max_size=12)

    @given(st.data(), st.sampled_from((0, 1, 2, 3)), st.booleans())
    def test_the_batch_path_answers_like_the_record_kernel(
            self, data, width, odd):
        values = self.PACKED | self.FALLBACK if odd else self.PACKED
        left = data.draw(self.sides(width, values), label="left")
        right = data.draw(self.sides(width, values), label="right")
        expected = kernels.intersect_records(left, right)
        lb, rb = RecordBatch.from_records(left), RecordBatch.from_records(
            right)
        for pair in ((lb, rb), (lb, right), (left, rb)):
            out = run_intersect(*pair)
            assert type(out) is list and out == expected
            assert list(map(type, out)) == list(map(type, expected))

    def test_duplicates_and_an_empty_side(self):
        left = [(1, 2), (0, 0), (1, 2), (3, 1), (0, 0)]
        right = [(0, 0), (1, 2), (1, 2), (5, 5)]
        lb, rb = RecordBatch.from_records(left), RecordBatch.from_records(
            right)
        assert run_intersect(lb, rb) == [(1, 2), (0, 0)]
        for empty in (RecordBatch.from_records([]),
                      lb.mask(np.zeros(len(lb), dtype=bool))):
            assert run_intersect(lb, empty) == run_intersect(empty, rb) == []
        scalars = RecordBatch.from_records([3, 1, 3, 2])
        assert run_intersect(scalars, RecordBatch.from_records([2, 3])) \
            == [3, 2]

    @pytest.mark.parametrize("left, right, rebuilt", [
        ([(1, 2), (2**31 - 1, 0)], [(2**31 - 1, 0)], False),
        ([(1,), (4,), (1,)], [(4,), (1,)], False),
        ([7, 8, 7], [8, 7], False),
        ([(1, 2), (-1, 0)], [(-1, 0)], True),
        ([(1, 2), (2**31, 0)], [(2**31, 0)], True),
        ([(1.0, 2.0)], [(1.0, 2.0)], True),
        ([(1, 2, 3)], [(1, 2, 3)], True),
        ([(1, 2)], [(1,)], True),
    ])
    def test_only_int_layouts_skip_the_records(self, monkeypatch, left,
                                               right, rebuilt):
        lb, rb = RecordBatch.from_records(left), RecordBatch.from_records(
            right)
        expected = kernels.intersect_records(left, right)
        calls = []
        to_records = RecordBatch.to_records
        monkeypatch.setattr(RecordBatch, "to_records",
                            lambda b: calls.append(b) or to_records(b))
        assert run_intersect(lb, rb) == expected
        assert bool(calls) == rebuilt


# ------------------------- (ii) engines agree; declared equals stripped
# One engine per payload layout: pystreams' one partition, sparklite's 40
# hash-placed partitions, pgres' relations.  flinklite is sparklite's
# layout: the same shared operator classes at the same partition count.
ENGINES = ("pystreams", "sparklite", "pgres")
PARTITIONED = ("sparklite",)

PAIRS = [(i % 7, f"w{i % 5}") for i in range(40)]
OTHER = [(i % 9, f"v{i % 4}") for i in range(30)]
INT_PAIRS = [(i % 7, i % 5) for i in range(40)]
ROWS = [{"k": i % 7, "v": i % 3} for i in range(40)]
OTHER_ROWS = [{"k": i % 5, "v": i % 3} for i in range(25)]


def by_repr(out):
    return sorted(out, key=repr)


def src(c, pin, data):
    """``data`` behind a pinned identity map that declares a columnar
    twin: the operator under test reads a record batch (one per partition
    on the partitioned engines) — and a list once ``stripped``."""
    return pin(c.load_collection(data).map(lambda x: x, name="as-batch",
                                           batch_udf=lambda b: b))


def _word_sums(batch):
    sums = fold_by_key_columns(batch, 1, 0, operator.add)
    return [(total, word) for word, total in sums.to_records()]


#: name -> (plan builder, engines that map the pinned operator, canonical
#: form for the partitioned engines — where round-robin partitioning and
#: the shuffle leave record order (and which duplicate survives) open).
#: Every operator with a columnar kernel declares it.
OPERATORS = {
    "map": (lambda c, pin: pin(src(c, pin, PAIRS).map(
        lambda t: (t[1], t[0] * 2),
        batch_udf=lambda b: RecordBatch.from_tuple_columns(
            (b.col(1), np.asarray(b.col(0)) * 2)))),
        ENGINES, by_repr),
    "flat_map": (lambda c, pin: pin(src(c, pin, PAIRS).flat_map(
        lambda t: [t[1]] * (t[0] % 3),
        batch_udf=lambda b: [w for n, w in b.to_records()
                             for __ in range(n % 3)])),
        ENGINES[:2], by_repr),
    "filter": (lambda c, pin: pin(src(c, pin, PAIRS).filter(
        lambda t: t[0] % 2,
        batch_udf=lambda b: np.asarray(b.col(0)) % 2 == 1)),
        ENGINES, by_repr),
    "distinct": (lambda c, pin: pin(src(c, pin, PAIRS).distinct()),
                 ENGINES, by_repr),
    "distinct_rows": (lambda c, pin: pin(src(c, pin, ROWS).distinct()),
                      ENGINES, by_repr),
    "distinct_by_key": (lambda c, pin: pin(src(c, pin, PAIRS)
                                           .distinct(lambda t: t[0])),
                        ENGINES, lambda out: sorted(t[0] for t in out)),
    # 40 records over 35 keys: ties must keep their input order.
    "sort": (lambda c, pin: pin(src(c, pin, PAIRS).sort(
        lambda t: t[0] * 5 + int(t[1][1:]),
        batch_key=lambda b: np.asarray(b.col(0)) * 5 + np.array(
            [int(w[1:]) for w in b.col(1).tolist()]))),
        ENGINES, list),
    "group_by": (lambda c, pin: pin(src(c, pin, PAIRS)
                                    .group_by(lambda t: t[0])),
                 ENGINES, lambda out: sorted((k, sorted(m)) for k, m in out)),
    "reduce_by_key": (lambda c, pin: pin(src(c, pin, PAIRS).reduce_by_key(
        lambda t: t[1], lambda a, b: (a[0] + b[0], a[1]),
        batch_impl=_word_sums)),
        ENGINES, by_repr),
    "reduce": (lambda c, pin: pin(src(c, pin, list(range(40)))
                                  .reduce(lambda a, b: a + b)),
               ENGINES, list),
    "join": (lambda c, pin: pin(src(c, pin, PAIRS).join(
        src(c, pin, OTHER), lambda t: t[0], lambda t: t[0],
        left_key_column=0, right_key_column=0)),
        ENGINES, by_repr),
    "intersect": (lambda c, pin: pin(src(c, pin, PAIRS).intersect(
        src(c, pin, [(i % 3, f"w{i % 5}") for i in range(30)]))),
        ENGINES, by_repr),
    "intersect_ints": (lambda c, pin: pin(src(c, pin, INT_PAIRS).intersect(
        src(c, pin, [(i % 3, i % 4) for i in range(30)]))),
        ENGINES, by_repr),
    "intersect_rows": (lambda c, pin: pin(src(c, pin, ROWS).intersect(
        src(c, pin, OTHER_ROWS))), ENGINES, by_repr),
}


def run(build, engine, declared):
    ctx = RheemContext()
    quanta = build(ctx, lambda dq: dq.with_target_platform(engine))
    result = (quanta if declared else stripped(quanta)).execute()
    assert engine in result.platforms
    return result


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_engines_and_planes_agree(name, batches):
    build, engines, canonical = OPERATORS[name]
    reference = run(build, "pystreams", False).output
    assert reference, "a vacuous comparison"
    for engine in engines:
        del batches[:]
        reference_run = run(build, engine, False)
        assert not batches, "a stripped plan built a record batch"
        declared = run(build, engine, True)
        assert batches, "a vacuous comparison: no kernel saw a batch"
        assert declared.output == reference_run.output, engine
        assert type(declared.output) is list
        assert declared.runtime == reference_run.runtime, engine
        if engine in PARTITIONED:
            assert canonical(reference_run.output) == canonical(reference), \
                engine
        else:
            assert reference_run.output == reference, engine


_SHUFFLES = """
import sys
sys.path[:0] = {path!r}
from test_kernels import OPERATORS, PARTITIONED, run
for name in "distinct group_by intersect_rows join reduce_by_key".split():
    build, __, canonical = OPERATORS[name]
    for engine in PARTITIONED:
        for declared in (False, True):
            result = run(build, engine, declared)
            print(name, engine, result.runtime, canonical(result.output))
"""


def test_shuffles_do_not_leak_the_hash_seed():
    """String keys land in different partitions under different seeds;
    canonical outputs and simulated runtimes are the same — for record
    shuffles and for batch shuffles."""
    script = _SHUFFLES.format(path=[os.path.dirname(__file__), *sys.path])
    seen = {subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")}
    assert len(seen) == 1 and seen != {""}


def test_dict_rows_dedupe_on_the_default_plan():
    ctx = RheemContext()
    rows = [{"a": 1}, {"a": 1}, {"a": 2}]
    assert ctx.load_collection(rows).distinct().collect() == [
        {"a": 1}, {"a": 2}]
    assert ctx.load_collection(rows).intersect(
        ctx.load_collection([{"a": 2}, {"a": 3}])).collect() == [{"a": 2}]


# --------------------------------------------- (iii) a raising UDF fails
def poisoned(exc_type):
    def value(t):
        if t[0] == 5:
            raise exc_type("poisoned record")
        return t[0]
    return value


#: Every role a UDF plays in a kernel; each builder pins its operator
#: and feeds it through ``src`` (a batch, or a list once stripped).
ROLES = {
    "map": lambda c, pin, f: pin(src(c, pin, PAIRS).map(f)),
    "flat_map": lambda c, pin, f: pin(src(c, pin, PAIRS)
                                      .flat_map(lambda t: [f(t)])),
    "filter": lambda c, pin, f: pin(src(c, pin, PAIRS).filter(f)),
    "distinct_key": lambda c, pin, f: pin(src(c, pin, PAIRS).distinct(f)),
    "group_key": lambda c, pin, f: pin(src(c, pin, PAIRS).group_by(f)),
    "fold_key": lambda c, pin, f: pin(src(c, pin, PAIRS)
                                      .reduce_by_key(f, lambda a, b: a)),
    "fold_reducer": lambda c, pin, f: pin(
        src(c, pin, PAIRS).reduce_by_key(
            lambda t: t[1], lambda a, b: (f(b), a[1]))),
    "global_reducer": lambda c, pin, f: pin(
        src(c, pin, PAIRS).reduce(lambda a, b: (f(b), a[1]))),
    "join_left_key": lambda c, pin, f: pin(src(c, pin, PAIRS).join(
        src(c, pin, OTHER), f, lambda t: t[0])),
    "join_right_key": lambda c, pin, f: pin(src(c, pin, OTHER).join(
        src(c, pin, PAIRS), lambda t: t[0], f)),
    # The middle map of a flat_map -> map -> reduce_by_key chain.
    "chained_map": lambda c, pin, f: pin(pin(pin(
        src(c, pin, PAIRS).flat_map(lambda t: [t, t])).map(f))
        .reduce_by_key(lambda v: v, lambda a, b: a)),
}


@pytest.mark.parametrize("exc_type", [ValueError, StopIteration])
@pytest.mark.parametrize("role", sorted(ROLES))
def test_raising_udf_fails_the_job(role, exc_type):
    engines = ENGINES[:2] if role in ("flat_map", "chained_map") else ENGINES
    for engine in engines:
        for declared in (False, True):
            quanta = ROLES[role](
                RheemContext(), lambda dq: dq.with_target_platform(engine),
                poisoned(exc_type))
            with pytest.raises(exc_type):
                (quanta if declared else stripped(quanta)).execute()


# ------------------------------------- (iv) no wrapper frame per record
@pytest.mark.parametrize("declared", [False, True])
@pytest.mark.parametrize("engine", ENGINES)
def test_no_engine_enters_udf_call_per_record(engine, declared, monkeypatch):
    calls = []
    original = Udf.__call__

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Udf, "__call__", counting)

    def pin(dq):
        return dq.with_target_platform(engine)

    def collect(quanta):
        return (quanta if declared else stripped(quanta)).collect()

    # Row UDFs throughout; ``src`` feeds them batches when declared.
    ctx = RheemContext()
    lines = src(ctx, pin if engine != "pgres" else lambda dq: dq,
                [f"w{i % 9} w{i % 4} x" for i in range(1000)])
    words = lines.flat_map(str.split)
    if engine != "pgres":  # maps no FlatMap: the rest of the chain is pinned
        words = pin(words)
    counts = collect(pin(pin(pin(words.filter(lambda w: w != "x"))
                             .map(lambda w: (w, 1)))
                         .reduce_by_key(lambda t: t[0],
                                        lambda a, b: (a[0], a[1] + b[1]))))
    assert sorted(counts)[0] == ("w0", 362) and len(counts) == 9

    joined = collect(pin(src(ctx, pin, list(range(1000))).join(
        src(ctx, pin, list(range(100))),
        lambda x: x % 100, lambda y: y)))
    assert len(joined) == 1000
    assert calls == []


# ------------------------------------------- (v) binding is per execution
@pytest.mark.parametrize("engine", ENGINES[:2])  # pgres takes no broadcasts
def test_cached_plan_binds_each_runs_own_broadcast(engine):
    ctx = RheemContext(config={"result_reuse": False})

    def job(offset):
        ctx.vfs.write("file://kernels/offset.txt", [offset])
        side = ctx.read_text_file("file://kernels/offset.txt")
        return sorted(ctx.load_collection([1, 2, 3])
                      .map(lambda x, b: x + int(b[0]), broadcasts=[side])
                      .with_target_platform(engine).collect())

    assert job("10") == [11, 12, 13]
    assert job("20") == [21, 22, 23]
    # The second run replayed the first one's execution plan — the same
    # operator instances — and still saw its own broadcast value.
    assert ctx.plan_cache.stats["hits"] == 1


# ------------------------------------------------------------- (vi) chains
#: Every engine whose narrow operators are the shared dataflow ones.
CHAIN_ENGINES = ("pystreams", "sparklite", "flinklite", "toyflow")

#: name -> (plan builder, the longest chain it runs, stripped or declared):
#: the declared source's columnar map ends a chain, its stripped twin
#: joins one.
CHAINS = {
    "fold": (lambda c, pin: pin(pin(pin(pin(src(c, pin, PAIRS * 5)
        .flat_map(lambda t: [t, (t[0] + 1, t[1])]))
        .filter(lambda t: t[0] % 3))
        .map(lambda t: (t[1], t[0])))
        .reduce_by_key(lambda t: t[0], lambda a, b: (a[0], a[1] + b[1]))),
        (5, 4)),
    "no_fold": (lambda c, pin: pin(pin(src(c, pin, PAIRS * 5)
        .map(lambda t: t[0] + 1)).map(lambda v: v * 2)), (3, 2)),
}


def _chain_context():
    return RheemContext(platforms=builtin_platforms() + [TOYFLOW])


@pytest.fixture
def chained(monkeypatch) -> list:
    """How many operators follow the first of each chain run."""
    seen = []
    run_chain = DFNarrow.run_chain

    def counting(self, rest, *args, **kwargs):
        seen.append(len(rest))
        return run_chain(self, rest, *args, **kwargs)

    monkeypatch.setattr(DFNarrow, "run_chain", counting)
    return seen


def one_by_one(ctx, plan):
    """Each execution operator's ``execute`` in turn on one context: the
    outputs, meter events and observations of operators that never
    chain."""
    ectx = ExecutionContext(ctx.cluster, CostMeter(), ctx.pgres)
    outs, observations = {}, []
    for task in plan.tasks:
        inputs = [ti.conversion.apply(outs[ti.producer.id], ectx)
                  if ti.conversion.steps else outs[ti.producer.id]
                  for ti in task.inputs]
        op = task.operator
        out = op.execute(inputs, [], ectx)
        observations.append(OperatorObservation(
            op.platform, op.observed_op_kind(inputs, ectx), op.work(),
            sum([ch.sim_cardinality for ch in inputs]), out.sim_cardinality,
            op.logical.id, op.logical.name))
        outs[task.id] = out
    return ([outs[t.id].payload for t in plan.sink_tasks], ectx.meter.events,
            observations)


@pytest.mark.parametrize("declared", [False, True])
@pytest.mark.parametrize("engine", CHAIN_ENGINES)
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_a_chain_charges_what_its_operators_charge(name, engine, declared,
                                                   chained):
    build, lengths = CHAINS[name]
    ctx = _chain_context()
    quanta = build(ctx, lambda dq: dq.with_target_platform(engine))
    plan, estimates = ctx.optimize(
        (quanta if declared else stripped(quanta)).to_plan(),
        allowed_platforms={engine})
    result = ctx.executor().execute(plan, estimates)
    assert max(chained) == lengths[declared] - 1, "a chain did not form"
    outputs, events, observations = one_by_one(ctx, plan)

    assert result.outputs == outputs
    (record,) = result.tracker.records
    overhead = [e for e in record.meter.events
                if e.label in (f"{engine}.startup", f"{engine}.dispatch")]
    assert record.meter.events == overhead + events
    assert record.operators == observations
    replay = CostMeter()
    for event in overhead + events:
        replay.charge(event.seconds, event.label, event.category)
    assert result.runtime == replay.total


def _wordcount_chain(ctx, engine):
    """flat_map -> map -> filter -> reduce_by_key, pinned, and its
    operators."""
    pin = lambda dq: dq.with_target_platform(engine)  # noqa: E731
    words = pin(ctx.load_collection([f"w{i % 7} w{i % 3}" for i in range(200)])
                .flat_map(str.split))
    pairs = pin(words.map(lambda w: (w, 1)))
    kept = pin(pairs.filter(lambda t: t[0] != "w0"))
    counts = pin(kept.reduce_by_key(lambda t: t[0],
                                    lambda a, b: (a[0], a[1] + b[1])))
    return counts, words.op, pairs.op, kept.op


def _records(payload):
    """A collection's records; a partitioned dataset's, concatenated."""
    return payload if isinstance(payload, list) else payload.to_list()


@pytest.mark.parametrize("engine", CHAIN_ENGINES)
def test_a_sniffed_middle_operator_ends_the_chain(engine, chained):
    ctx = _chain_context()
    counts, __, pairs, __ = _wordcount_chain(ctx, engine)
    plain = counts.execute(allowed_platforms={engine})
    assert max(chained) == 3
    del chained[:]
    tapped = []
    sniffed = counts.execute(allowed_platforms={engine},
                             sniffers=[Sniffer(pairs.id, tapped.append)])
    assert chained == [1, 1], "the chain did not end at the sniffer"
    assert sorted(sniffed.output) == sorted(plain.output)
    (payload,) = tapped
    records = _records(payload)
    assert sorted(set(records)) == [(f"w{i}", 1) for i in range(7)]
    assert len(records) == 400


@pytest.mark.parametrize("engine", CHAIN_ENGINES)
def test_a_paused_job_inspects_a_middle_operators_payload(engine, chained):
    ctx = _chain_context()
    counts, words, pairs, __ = _wordcount_chain(ctx, engine)
    paused = ctx.execute_paused(counts.to_plan(), break_after={pairs.id},
                                allowed_platforms={engine})
    assert chained == [1], "flat_map -> map did not chain"
    assert len(_records(paused.inspect(pairs.id))) == 400
    # The chain before the break is never materialized.
    assert words.id not in paused.completed
    assert all(channel.payload is not None
               for channel in paused.materialized.values())
    resumed = ctx.resume(paused, allowed_platforms={engine})
    assert sorted(resumed.output) == sorted(
        counts.execute(allowed_platforms={engine}).output)


@pytest.mark.parametrize("engine", CHAIN_ENGINES)
def test_an_output_read_twice_ends_the_chain(engine, chained):
    ctx = _chain_context()
    pin = lambda dq: dq.with_target_platform(engine)  # noqa: E731
    base = pin(pin(ctx.load_collection(list(range(10)))
                   .map(lambda x: x + 1)).map(lambda x: x * 10))
    twice = pin(pin(base.map(lambda x: x + 2))
                .union(pin(base.filter(lambda x: x > 50))))
    result = twice.execute(allowed_platforms={engine})
    assert sorted(result.output) == sorted(
        [x * 10 + 12 for x in range(10)] + [60, 70, 80, 90, 100])
    assert sorted(chained) == [0, 0, 1]


def test_an_output_offered_to_the_store_ends_the_chain(monkeypatch,
                                                      chained):
    ctx = _chain_context()
    counts, words, __, __ = _wordcount_chain(ctx, "pystreams")
    plan, estimates = ctx.optimize(counts.to_plan(),
                                   allowed_platforms={"pystreams"})
    plan.reuse_keys = {words.id: ("words",)}
    offered = []
    monkeypatch.setattr(ctx.result_store, "offer",
                        lambda key, channel, recompute_s:
                        offered.append((key, len(channel.payload))))
    ctx.executor().execute(plan, estimates, publish_results=True)
    assert offered == [(("words",), 400)]
    assert chained == [0, 2]


def test_a_replan_after_a_chained_stage_resumes_from_payloads(monkeypatch,
                                                              chained):
    probes = []
    reuse = PausedJob.reuse

    def watching(job):
        probe = reuse(job)
        probes.append((max(chained, default=0), probe.roots))
        return probe

    monkeypatch.setattr(PausedJob, "reuse", watching)
    ctx = RheemContext()
    report = ctx.execute_progressive(_lookup_join_plan(ctx, 0.0001))
    assert report.replans >= 1
    # The first round ran a chain before its checkpoint paused it.
    assert probes[1][0] >= 1
    roots = [channel for __, found in probes for channel in found.values()]
    assert roots and all(channel.payload is not None for channel in roots)
    plain = RheemContext()
    assert sorted(report.result.output) == sorted(
        plain.execute(_lookup_join_plan(plain, 0.0001)).output)


def _flat_sample(parts, logical, ectx):
    """A sample drawn from the partitions copied into one list."""
    data = list(chain.from_iterable(parts))
    k = (min(logical.size, len(data)) if logical.size is not None
         else int(len(data) * logical.fraction))
    if logical.method == "first":
        return data[:k]
    rng = random.Random(_sample_seed(ectx, logical))
    return [data[rng.randrange(len(data))] for __ in range(k)]


@pytest.mark.parametrize("method", ["random", "first"])
@pytest.mark.parametrize("size, fraction", [
    (0, None), (3, None), (9, None), (10, None), (25, None), (None, 0.5),
    (None, 1.0)])
@pytest.mark.parametrize("engine", [SPARK, FLINK, PYSTREAMS])
def test_a_sample_draws_as_from_the_partitions_end_to_end(engine, size,
                                                           fraction, method):
    # Ten records over partitions that start and end empty, one of them
    # a batch; sizes below, at and above the input's.
    parts = [[], [0, 1, 2], [], RecordBatch.from_records([3]),
             [4, 5, 6, 7], [8, 9], []]
    logical = ops.Sample(size=size, fraction=fraction, method=method,
                         seed=5, name="draw")
    ctx = RheemContext()
    ectx = ExecutionContext(ctx.cluster, CostMeter(), ctx.pgres, epoch=3)
    payload = engine.payload(parts)
    channel = Channel(engine.dataset, payload, 1.0, 8.0, 10)
    out = DFSample(logical, engine).execute([channel], [], ectx)
    sample = list(chain.from_iterable(engine.parts(out.payload)))
    assert sample == _flat_sample(engine.parts(payload), logical, ectx)
    assert len(sample) == min(size if size is not None else 10 * fraction,
                              10)
