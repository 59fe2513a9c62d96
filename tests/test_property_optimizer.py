"""Property-based tests for the enumerator over randomized pipelines."""

from hypothesis import given, settings, strategies as st

from repro import RheemContext
from repro.core.channels import PY_COLLECTION, Conversion
from repro.core.objectives import monetary
from repro.core.optimizer import LoopDecision
from repro.platforms.flinklite import FLINK, FLINK_DATASET

# Each step is (verb, parameter); pipelines are arbitrary sequences.
steps = st.lists(
    st.sampled_from([
        ("map", 2), ("map", 3),
        ("filter", 2), ("filter", 3),
        ("distinct", None),
        ("sort", None),
        ("pair", 4),
        ("reduceby", 4),
    ]),
    max_size=5,
)

# Shorter pipelines that may hold one loop over the plain-integer stream:
# ``repeat`` n times, or a do-while expected to run 0 times (a repeat needs
# n >= 1).  A loop multiplies the unpruned plan space (three steps around
# one loop reach ~125k plans), so these stay at three steps.
loop_steps = st.lists(
    st.sampled_from([
        ("map", 2), ("filter", 3), ("distinct", None), ("sort", None),
        ("pair", 4), ("reduceby", 4),
        ("repeat", 0), ("repeat", 1), ("repeat", 3),
    ]),
    max_size=3,
)

# Tree shapes, whose branches keep frontiers of their own until they meet:
# balanced union trees of (collection -> map -> filter) branches, then a
# distinct, and two branches meeting at a join.  The unpruned oracle takes
# the full cross product where they meet (four branches: ~246k plans), so
# trees stay at three branches over pystreams and flinklite.
trees = st.sampled_from([("tree", 2), ("tree", 3), ("join", None)])


def _tree(ctx, shape, branches, sim_factor):
    level = [ctx.load_collection(list(range(i, 60 + i)),
                                 sim_factor=sim_factor)
             .map(lambda x, __i=i: x * (__i + 2))
             .filter(lambda x, __i=i: x % (__i + 3) != 0)
             for i in range(branches or 2)]
    if shape == "join":
        left, right = (dq.map(lambda x: (x % 7, x)) for dq in level)
        return left.join(right, lambda t: t[0], lambda t: t[0]) \
            .map(lambda pair: pair[0][1] + pair[1][1])
    while len(level) > 1:
        level = [level[i].union(level[i + 1]) if i + 1 < len(level)
                 else level[i] for i in range(0, len(level), 2)]
    return level[0].distinct()


def _build(ctx, pipeline, sim_factor):
    dq = ctx.load_collection(list(range(60)), sim_factor=sim_factor)
    paired = looped = False
    for verb, param in pipeline:
        if verb == "map" and not paired:
            dq = dq.map(lambda x, __p=param: x * __p)
        elif verb == "filter" and not paired:
            dq = dq.filter(lambda x, __p=param: x % __p != 0)
        elif verb == "distinct":
            dq = dq.distinct()
        elif verb == "sort" and not paired:
            dq = dq.sort()
        elif verb == "pair" and not paired:
            dq = dq.map(lambda x, __p=param: (x % __p, x))
            paired = True
        elif verb == "reduceby" and paired:
            dq = dq.reduce_by_key(lambda t: t[0],
                                  lambda a, b: (a[0], a[1] + b[1]))
            dq = dq.map(lambda t: t[1])  # back to plain integers
            paired = False
        elif verb == "repeat" and not paired and not looped:
            def body(state):
                return state.map(lambda x: x * 2 % 97)
            dq = (dq.repeat(param, body) if param else
                  dq.do_while(lambda records: False, body, expected=0))
            looped = True
    return dq


def _decides_each_operator_once(partial, ops):
    """``partial`` decides exactly ``ops`` (a loop body its own operators)
    and converts only along their edges."""
    assert set(partial.decisions) == {op.id for op in ops}
    edges = {(ref.op.id, op.id, slot) for op in ops
             for slot, ref in enumerate(op.inputs)}
    edges |= {(ref.op.id, op.id, -(slot + 1)) for op in ops
              for slot, ref in enumerate(op.side_inputs)}
    assert set(partial.conversions) <= edges
    for op in ops:
        decision = partial.decisions[op.id]
        if isinstance(decision, LoopDecision):
            _decides_each_operator_once(decision.body, op.body.operators())


class TestRandomPipelines:
    @given(steps, st.sampled_from([1.0, 10_000.0]))
    @settings(max_examples=25)
    def test_results_identical_across_platforms(self, pipeline, sim_factor):
        outputs = []
        for platform in ("pystreams", "sparklite", "flinklite"):
            ctx = RheemContext()
            out = _build(ctx, pipeline, sim_factor).collect(
                allowed_platforms={platform, "driver"})
            outputs.append(sorted(out, key=repr))
        assert outputs[0] == outputs[1] == outputs[2]

    @given(st.one_of(steps, loop_steps, trees),
           st.sampled_from([1.0, 50_000.0]),
           st.sampled_from([None, monetary()]),
           st.sampled_from([None, 0.02, 1.0]))
    @settings(max_examples=25)
    def test_pruning_is_lossless(self, shape, sim_factor, objective,
                                 overhead):
        ctx = RheemContext()
        if overhead is not None:
            # Beside flinklite's conversion priced per record, one with a
            # fixed overhead: a plan that converts early gets a narrow
            # interval, one that stays on pystreams a wide one.
            ctx.graph.register_conversion(Conversion(
                PY_COLLECTION, FLINK_DATASET, FLINK.from_collection,
                mb_per_s=1e9, overhead_s=overhead, name="flink-fixed"))
        allowed = None
        if isinstance(shape, tuple):
            plan = _tree(ctx, *shape, sim_factor).to_plan()
            allowed = {"pystreams", "flinklite", "driver"}
        else:
            plan = _build(ctx, shape, sim_factor).to_plan()
        pruned = ctx.optimizer(objective=objective,
                               allowed_platforms=allowed)
        best_pruned, __ = pruned.pick_best(plan)
        full = ctx.optimizer(objective=objective, allowed_platforms=allowed)
        full.prune = False
        best_full, __ = full.pick_best(plan)
        # Bit for bit: the unpruned optimum's interval, not a near one.
        # Drops across platform sets are exact in real arithmetic; their
        # start-up margins are padded, so that only a tie closer than the
        # completions' rounding could tell them apart (DESIGN.md).
        assert (repr(best_pruned.cost.lower), repr(best_pruned.cost.upper)) \
            == (repr(best_full.cost.lower), repr(best_full.cost.upper))
        assert pruned.last_enumeration_size <= full.last_enumeration_size
        for best in (best_pruned, best_full):
            _decides_each_operator_once(best, plan.operators())

    @given(steps, st.sampled_from([1.0, 50_000.0]))
    @settings(max_examples=20)
    def test_free_choice_estimated_at_most_any_forced(self, pipeline,
                                                      sim_factor):
        # The enumerator's optimum over ALL platforms can never have a
        # higher estimated cost than the optimum restricted to one.
        ctx = RheemContext()
        plan = _build(ctx, pipeline, sim_factor).to_plan()
        free, __ = ctx.optimizer().pick_best(plan)
        for platform in ("pystreams", "flinklite"):
            forced, __f = ctx.optimizer(
                allowed_platforms={platform, "driver"}).pick_best(plan)
            assert free.cost.geometric_mean <= \
                forced.cost.geometric_mean + 1e-9

    @given(steps)
    @settings(max_examples=15)
    def test_execution_matches_plain_python(self, pipeline):
        ctx = RheemContext()
        got = _build(ctx, pipeline, 1.0).collect()

        # Reference evaluation in plain Python.
        data = list(range(60))
        paired = False
        for verb, param in pipeline:
            if verb == "map" and not paired:
                data = [x * param for x in data]
            elif verb == "filter" and not paired:
                data = [x for x in data if x % param != 0]
            elif verb == "distinct":
                seen, out = set(), []
                for x in data:
                    if x not in seen:
                        seen.add(x)
                        out.append(x)
                data = out
            elif verb == "sort" and not paired:
                data = sorted(data)
            elif verb == "pair" and not paired:
                data = [(x % param, x) for x in data]
                paired = True
            elif verb == "reduceby" and paired:
                acc = {}
                for k, v in data:
                    acc[k] = acc[k] + v if k in acc else v
                data = list(acc.values())  # back to plain integers
                paired = False
        assert sorted(got, key=repr) == sorted(data, key=repr)
