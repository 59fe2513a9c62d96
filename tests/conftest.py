"""Shared fixtures and hypothesis settings for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import RheemContext
from repro.core.batch import RecordBatch, pair_sum_reduce
from repro.core.plan import topological_order

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def ctx() -> RheemContext:
    """A fresh context with all built-in platforms registered."""
    return RheemContext()


@pytest.fixture
def batches(monkeypatch) -> list:
    """The layout of every ``RecordBatch`` constructed so far, in order:
    empty as long as no kernel has built one."""
    built = []
    init = RecordBatch.__init__

    def counting(batch, kind, *args, **kwargs):
        built.append(kind)
        init(batch, kind, *args, **kwargs)

    monkeypatch.setattr(RecordBatch, "__init__", counting)
    return built


def wordcount(context, path, **hints):
    """The canonical WordCount pipeline used by several test modules."""
    return (context.read_text_file(path)
            .flat_map(str.split, bytes_per_record=12, **hints)
            .map(lambda w: (w, 1), bytes_per_record=16)
            .reduce_by_key(lambda t: t[0], lambda a, b: (a[0], a[1] + b[1])))


def _split_batch(batch):
    return [w for line in batch.to_records() for w in line.split()]


def declared_wordcount(ctx, path, pin=lambda dq: dq):
    """WordCount with a columnar twin declared on every step."""
    return pin(pin(pin(
        ctx.read_text_file(path)
        .flat_map(str.split, bytes_per_record=12, batch_udf=_split_batch))
        .map(lambda w: (w, 1), bytes_per_record=16,
             batch_udf=lambda b: RecordBatch.from_tuple_columns(
                 (b.col(0), np.ones(len(b), dtype=np.int64)))))
        .reduce_by_key(lambda t: t[0], lambda a, b: (a[0], a[1] + b[1]),
                       batch_impl=pair_sum_reduce(0, 1)))


#: Everything a logical operator can declare about a columnar kernel.
DECLARATIONS = ("batch_udf", "batch_impl", "batch_key",
                "left_key_column", "right_key_column")


def stripped(quanta):
    """``quanta``'s plan with every columnar declaration removed, loop
    bodies included: the plan that runs the record kernels only — the
    parity reference of its declared self."""
    pending = topological_order([quanta.op])
    while pending:
        op = pending.pop()
        for name in DECLARATIONS:
            if getattr(op, name, None) is not None:
                setattr(op, name, None)
        if hasattr(op, "body"):
            pending.extend(op.body.operators())
    return quanta
