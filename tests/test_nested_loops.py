"""A loop inside a loop body: estimated, planned and run like any loop.

Inner body records are named under the enclosing body stage's own label
(``stage2.loopN.it1.stage3.loopM.it0.stage1``), so every outer iteration
keeps its own inner records, and the inner body chains after the stages
of its enclosing iteration.  CI runs this module under two
``PYTHONHASHSEED`` values.
"""

import re
from functools import reduce

from repro import RheemContext


def _step(v):
    return v + 1


def _double(v):
    return v * 2


def _add(a, b):
    return a + b


def _less(v):
    return v - 1


def _plain_python(values, outer=3, inner=2):
    for _ in range(outer):
        state = [_step(v) for v in values]
        for _ in range(inner):
            state = [reduce(_add, [_double(v) for v in state])]
        values = [_less(v) for v in state]
    return values


def _nested(ctx, values):
    return ctx.load_collection(values).repeat(
        3, lambda s: s.map(_step)
        .repeat(2, lambda t: t.map(_double).reduce(_add))
        .map(_less))


OUTER = re.compile(r"^(stage\d+\.loop\d+\.it\d+)\.stage\d+$")
INNER = re.compile(r"^(stage\d+\.loop\d+\.it\d+)\.stage\d+\.loop\d+\.")


def test_nested_repeat_matches_plain_python_and_keeps_every_inner_run():
    result = _nested(RheemContext(), [1, 2, 3]).execute()
    assert result.outputs == [_plain_python([1, 2, 3])]

    records = result.tracker.records
    assert all(r.survived for r in records)
    # No record overwrites another: every stage run has its own label.
    assert len({r.stage_id for r in records}) == len(records)
    # Every outer iteration keeps its own inner records, as many each.
    inner = {}
    for record in records:
        match = INNER.match(record.stage_id)
        if match:
            inner.setdefault(match.group(1), []).append(record)
    assert len(inner) == 3
    assert len({len(runs) for runs in inner.values()}) == 1
    assert all(len(runs) >= 2 for runs in inner.values())
    # No inner record starts before the outer-body stages of its
    # enclosing iteration committed ahead of it have ended.
    ended = {}
    for record in records:
        inner_match = INNER.match(record.stage_id)
        if inner_match:
            assert record.start >= ended[inner_match.group(1)]
            continue
        outer_match = OUTER.match(record.stage_id)
        if outer_match:
            prefix = outer_match.group(1)
            ended[prefix] = max(ended.get(prefix, 0.0), record.end)
    assert result.runtime == max(r.end for r in records)


def test_nested_loop_estimates_reach_the_inner_body():
    ctx = RheemContext()
    plan = _nested(ctx, [1, 2, 3]).to_plan()
    estimates = plan.estimate_cardinalities()
    assert all(op.id in estimates for op in _all_operators(plan.operators()))


def _all_operators(ops):
    from repro.core.operators import LoopOperator

    for op in ops:
        yield op
        if isinstance(op, LoopOperator):
            yield from _all_operators(op.body.operators())
