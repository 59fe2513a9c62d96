"""A plan digest covers everything its UDFs read.

``repro.core.udf.reads`` walks a function once: its defaults, closure
cells, code objects and the globals its names bind.  The plan digest
tokenizes that walk, so a cache keyed by it cannot serve an answer that a
rebound global or helper has made stale; the purity scan judges the same
walk.  The workload plans must keep a digest: a global the tokenizer
cannot read would silently take them out of the plan cache.
"""

import functools
import operator
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import RheemContext
from repro.api import build_quanta
from repro.apps.dataciv import q5_quanta
from repro.core.fingerprint import plan_fingerprint
from repro.workloads import TpchLite
from repro.workloads.tpch import parse_row

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.tasks import (  # noqa: E402
    build_crocopr,
    build_sgd,
    build_wordcount,
)
from perfbench.workloads import q5_document, wordcount_document  # noqa: E402

K = 1


def _inner(x):
    return x + 1


def _outer(x):
    return _inner(x) * 10


# --------------------------------------------------- the probe, both caches
CACHES = [pytest.param({}, "result_store", id="result-store"),
          pytest.param({"result_reuse": False}, "plan_cache",
                       id="plan-cache")]


@pytest.mark.parametrize("config, cache", CACHES)
def test_a_rebound_global_is_seen_on_one_context(config, cache,
                                                 monkeypatch):
    ctx = RheemContext(config=config)

    def run():
        return ctx.load_collection(range(5)).map(lambda x: x + K).collect()

    assert run() == run() == [1, 2, 3, 4, 5]
    monkeypatch.setitem(globals(), "K", 100)
    assert run() == run() == [100, 101, 102, 103, 104]
    assert getattr(ctx, cache).stats["hits"] == 2  # one per binding


@pytest.mark.parametrize("config, cache", CACHES)
@pytest.mark.parametrize("rebound", ["_outer", "_inner"],
                         ids=["helper", "helper-of-a-helper"])
def test_a_rebound_helper_is_seen_on_one_context(config, cache, rebound,
                                                 monkeypatch):
    ctx = RheemContext(config=config)

    def run():
        return ctx.load_collection(range(3)).map(lambda x: _outer(x)).collect()

    assert run() == run() == [10, 20, 30]
    monkeypatch.setitem(globals(), rebound, lambda x: -x)
    assert run() == run() == ([0, -1, -2] if rebound == "_outer"
                              else [0, -10, -20])
    assert getattr(ctx, cache).stats["hits"] == 2


# --------------------------------------------- the property over UDF families
#: Each family builds a UDF from source text around one constant ``k``.
FAMILIES = {
    "global constant": "K = {k}\nudf = lambda x: x + K",
    "global helper": "def helper(x):\n    return x * {k}\n"
                     "udf = lambda x: helper(x)",
    "helper of a helper": "def inner(x):\n    return x - {k}\n"
                          "def outer(x):\n    return inner(x) * 2\n"
                          "udf = lambda x: outer(x)",
    "recursive helper": "def fall(n):\n"
                        "    return {k} if n <= 0 else fall(n - 1) + 1\n"
                        "udf = lambda x: fall(abs(x))",
    "default argument": "udf = lambda x, k={k}: x + k",
    "closure": "def make(k):\n    return lambda x: x * k\nudf = make({k})",
}
#: ... and the families whose UDF is not a plain function.
BUILT = {
    "functools.partial": lambda k: functools.partial(operator.sub, k),
    "bound-method state": lambda k: {1: k, 2: -k}.get,
}
INPUTS = range(-3, 4)


def _udf(family, k):
    if family in BUILT:
        return BUILT[family](k)
    namespace = {}
    exec(FAMILIES[family].format(k=k), namespace)
    return namespace["udf"]


_CTX = RheemContext()


def _digest(fn):
    return plan_fingerprint(_CTX.load_collection([0]).map(fn).to_plan())


@given(st.sampled_from(sorted({**FAMILIES, **BUILT})),
       st.integers(-3, 3), st.integers(-3, 3))
def test_udfs_that_differ_never_share_a_digest(family, a, b):
    first, again, other = _udf(family, a), _udf(family, a), _udf(family, b)
    assert _digest(first) is not None
    assert _digest(first) == _digest(again)  # built twice from one source
    if any(first(x) != other(x) for x in INPUTS):
        assert _digest(first) != _digest(other)


def test_global_sets_and_dicts_do_not_follow_hash_order():
    words = [f"w{i}" for i in range(64)]

    def build(order):
        namespace = {"S": frozenset(order), "D": dict.fromkeys(order, 1)}
        exec("udf = lambda x: x in S and D[x]", namespace)
        return namespace["udf"]

    assert _digest(build(words)) == _digest(build(words[::-1]))


# ------------------------------------------------ the workloads keep a digest
def _q5(ctx):
    TpchLite(0.01, seed=47).place_for_q5(ctx)
    return q5_quanta(ctx, 0.01, "polystore")


def _documents(ctx, document):
    return build_quanta(ctx, document, {"parse_row": parse_row})


WORKLOADS = {
    "q5": lambda: _q5(RheemContext()),
    "wordcount": lambda: build_wordcount(0.01),
    "sgd": lambda: build_sgd(0.01, iterations=3),
    "crocopr": lambda: build_crocopr(0.1, iterations=2),
    "q5-document": lambda: _documents(RheemContext(), q5_document("revenue")),
    "wordcount-document": lambda: _documents(RheemContext(),
                                             wordcount_document("w3")),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_plans_keep_a_digest(workload):
    plans = [WORKLOADS[workload]().to_plan() for __ in range(2)]
    digest = plan_fingerprint(plans[0])
    assert digest is not None
    assert plan_fingerprint(plans[1]) == digest
