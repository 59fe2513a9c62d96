"""One set of record kernels under every engine (``repro.core.kernels``).

(i) each kernel equals a naive specification loop written here, order
included; (ii) every kernel-backed logical operator agrees across the
engines through the public API, and its plan with columnar declarations
(and record batches for input) agrees with the same plan stripped of
them; (iii) a raising UDF — ``StopIteration`` included — fails the job,
never shortens it; (iv) no engine enters ``Udf.__call__`` per record;
(v) UDFs are bound per execution, not per operator instance.

Shuffle placement follows ``hash()``: CI runs this module under
``PYTHONHASHSEED`` 0 and 1, so nothing here may depend on it.
"""

import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import RheemContext
from repro.core import kernels
from repro.core.batch import RecordBatch, fold_by_key_columns
from repro.core.udf import Udf
from conftest import stripped

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
        assert kernels.bind(None, [1]) is None
        assert kernels.bind(Udf(fn), []) is fn

    @given(record_lists, broadcasts)
    def test_broadcasts_follow_the_record(self, records, bvals):
        udf = Udf(lambda x, *b: (x, b))
        fn = kernels.bind(udf, bvals)
        assert [fn(x) for x in records] == [udf(x, *bvals) for x in records]


class TestKernelsMatchSpecification:
    @given(record_lists, broadcasts)
    def test_map(self, records, bvals):
        expected = []
        for x in records:
            expected.append((bucket(x, *bvals), x))
        fn = kernels.bind(Udf(lambda x, *b: (bucket(x, *b), x)), bvals)
        assert kernels.map_records(fn, records) == expected

    @given(record_lists, broadcasts)
    def test_flat_map_accepts_any_iterable(self, records, bvals):
        shapes = [list, tuple, iter]

        def explode(x, *b):
            n = bucket(x, *b)
            return shapes[n]([x] * n)

        expected = []
        for x in records:
            expected.extend([x] * bucket(x, *bvals))
        fn = kernels.bind(explode, bvals)
        assert kernels.flat_map_records(fn, records) == expected

    @given(record_lists, broadcasts)
    def test_filter_keeps_the_truthy(self, records, bvals):
        expected = []
        for x in records:
            if bucket(x, *bvals) != 0:
                expected.append(x)
        # The predicate answers 0 / 1 / 2, not a bool.
        fn = kernels.bind(Udf(bucket), bvals)
        assert kernels.filter_records(fn, records) == expected

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


# ------------------------- (ii) engines agree; declared equals stripped
# One engine per payload layout: pystreams' one partition, sparklite's 40
# hash-placed partitions, pgres' relations.  flinklite is sparklite's
# layout: the same shared operator classes at the same partition count.
ENGINES = ("pystreams", "sparklite", "pgres")
PARTITIONED = ("sparklite",)

PAIRS = [(i % 7, f"w{i % 5}") for i in range(40)]
OTHER = [(i % 9, f"v{i % 4}") for i in range(30)]
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
}


@pytest.mark.parametrize("exc_type", [ValueError, StopIteration])
@pytest.mark.parametrize("role", sorted(ROLES))
def test_raising_udf_fails_the_job(role, exc_type):
    engines = ENGINES[:2] if role == "flat_map" else ENGINES
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
