"""Dominated plans: dropped without changing what enumeration picks.

``Optimizer._admit`` is the one pruning rule: a partial plan goes when a
plan of its open signature is no dearer on both bounds, plus the start-ups
of the platforms only that plan touches (0 within one platform set, where
the survivors form a Pareto set).  The unit tests drive ``_extend`` steps
over hand-built options with a pre-filled conversion table; the property
tests hold whole plans to the unpruned optimum."""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import RheemContext
from repro.core.channels import ChannelDescriptor, ConversionPath
from repro.core.cost import CostEstimate
from repro.core.objectives import monetary
from repro.core.optimizer import (
    LoopDecision,
    Optimizer,
    PartialPlan,
    ReuseProbe,
)

HAVE = ChannelDescriptor("pystreams.collection", "pystreams", True)
RDD = ChannelDescriptor("sparklite.rdd", "sparklite", False)
DATASET = ChannelDescriptor("flinklite.dataset", "flinklite", True)
NOWHERE = ChannelDescriptor("graphlite.dataset", "graphlite", True)
PRODUCER = 7


def _option(lower, upper, want=HAVE, out=HAVE,
            platforms=("pystreams",)) -> LoopDecision:
    return LoopDecision(loop=None, body=None, input_descriptors=[want],
                        output_descriptor=out, feedback=None,
                        platforms=frozenset(platforms),
                        cost=CostEstimate(lower, upper))


def _extend(optimizer, options, frontier, op_id, across=True):
    """One ``_extend`` step of operator ``op_id``, which reads operator
    ``op_id - 1``'s ``HAVE`` channel."""
    producer = op_id - 1
    op = SimpleNamespace(
        id=op_id, inputs=[SimpleNamespace(op=SimpleNamespace(id=producer))],
        side_inputs=[])
    paths = {(HAVE.name, RDD.name, producer): ConversionPath([], 0.5),
             (HAVE.name, DATASET.name, producer): ConversionPath([], 0.25),
             (HAVE.name, NOWHERE.name, producer): None}
    return optimizer._extend(
        op, options, frontier, cards={}, bprs={}, to_close={producer},
        keep_open=True, paths=paths, touch={}, across=across)


def _step(options, cost=(1.0, 2.0), started=(), objective=None,
          across=False):
    """One step from a single partial holding ``HAVE``: the frontier
    (winner first) and the step's counters.  ``across`` adds the
    comparison across platform sets."""
    optimizer = RheemContext().optimizer(objective=objective)
    partial = PartialPlan(cost=CostEstimate(*cost),
                          open_channels={PRODUCER: HAVE},
                          platforms=frozenset(started))
    frontier = _extend(optimizer, options, [partial], PRODUCER + 1, across)
    frontier.sort(key=lambda p: p.cost.geometric_mean)
    return [p.decisions[PRODUCER + 1] for p in frontier], optimizer.stats


class TestDominanceRule:
    def test_identical_vectors_keep_the_first(self):
        first, second = _option(1.0, 3.0), _option(1.0, 3.0)
        chosen, stats = _step([first, second])
        assert chosen == [first] and chosen[0] is first
        # The dropped candidate still counts as enumerated.
        assert stats["plans_enumerated"] == 2
        assert stats["plans_pruned"] == 1

    def test_a_later_dominator_does_not_drop_an_earlier_option(self):
        # <= on both bounds, equal on one: the earlier plan stays.
        earlier, later = _option(2.0, 4.0), _option(1.0, 4.0)
        chosen, stats = _step([earlier, later])
        assert chosen == [later, earlier]
        assert (stats["plans_enumerated"], stats["plans_pruned"]) == (2, 0)
        # Strictly cheaper on both, it does.
        dear, cheap = _option(2.0, 4.0), _option(1.0, 3.0)
        chosen, stats = _step([dear, cheap])
        assert chosen == [cheap]
        assert (stats["plans_enumerated"], stats["plans_pruned"]) == (2, 1)

    def test_conversion_terms_enter_the_vector(self):
        # Cheaper on its own interval, but its input needs a conversion
        # the first option does not: (2.1, 5.1) against (2, 5).
        plain, converted = _option(1.0, 3.0), _option(0.6, 2.6, want=RDD)
        chosen, stats = _step([plain, converted])
        assert chosen == [plain] and stats["plans_pruned"] == 1
        # Without it, the same interval wins.
        chosen, __ = _step([plain, _option(0.6, 2.6)])
        assert chosen[0] is not plain and len(chosen) == 1
        # The cheaper conversion decides between two converted options.
        chosen, stats = _step([_option(1.0, 3.0, want=RDD),
                               _option(1.0, 3.0, want=DATASET),
                               _option(1.5, 3.0, want=RDD)])
        assert [d.input_descriptors[0] for d in chosen] == [DATASET]
        assert stats["plans_pruned"] == 2
        assert stats["conversion_paths_solved"] == 3

    def test_an_unreachable_option_is_neither_skipped_nor_counted(self):
        # Beaten on its interval, but never wired: it is tried, counted as
        # one wiring attempt, and enumerates nothing.
        kept, unreachable = _option(1.0, 3.0), _option(5.0, 9.0, want=NOWHERE)
        chosen, stats = _step([kept, unreachable])
        assert chosen == [kept]
        assert stats["plans_pruned"] == 0
        assert stats["plans_enumerated"] == 1
        assert stats["conversion_paths_solved"] == 1
        # Nor does an unreachable option dominate a later, dearer one.
        dear = _option(5.0, 9.0)
        chosen, stats = _step([_option(1.0, 3.0, want=NOWHERE), dear])
        assert chosen == [dear] and stats["plans_pruned"] == 0

    def test_groups_are_never_compared(self):
        # Another output channel is another open signature; another
        # platform set is compared only ``across`` platform sets.
        base = _option(1.0, 3.0)
        other_output = _option(2.0, 4.0, out=DATASET)
        other_platforms = _option(2.0, 4.0, platforms=("pystreams", "flinklite"))
        chosen, stats = _step([base, other_output, other_platforms])
        assert stats["plans_pruned"] == 0
        assert chosen[0] is base and len(chosen) == 3
        chosen, stats = _step([base, other_output, other_platforms],
                              across=True)
        assert chosen == [base, other_output] and stats["plans_pruned"] == 1

    def test_a_zero_lower_bound_never_dominates(self):
        # The geometric mean of [0, 10] is its midpoint, 5; that of
        # [1e-9, 10] is ~1e-4: being <= on both bounds is not enough here.
        __, stats = _step([_option(0.0, 10.0), _option(0.0, 10.0)],
                          cost=(0.0, 2.0))
        assert stats["plans_pruned"] == 0
        # The partial's own positive lower bound makes it enough.
        __, stats = _step([_option(0.0, 10.0), _option(0.0, 10.0)])
        assert stats["plans_pruned"] == 1

    def test_the_geometric_mean_does_not_survive_a_common_completion(self):
        # A = (1, 100), gm 10, and B = (9, 11.2), gm 10.04: neither is <=
        # on both bounds, so both stay.  After a common +100, B' =
        # (109, 111.2), gm 110.1, beats A' = (101, 200), gm 142.1.
        optimizer = RheemContext().optimizer()
        root = PartialPlan(open_channels={PRODUCER: HAVE})
        a, b = _option(1.0, 100.0), _option(9.0, 11.2)
        frontier = _extend(optimizer, [a, b], [root], PRODUCER + 1)
        assert [p.decisions[PRODUCER + 1] for p in frontier] == [a, b]
        completion = _option(100.0, 100.0)
        frontier = _extend(optimizer, [completion], frontier, PRODUCER + 2)
        assert len(frontier) == 2
        best = min(frontier, key=lambda p: p.cost.geometric_mean)
        assert best.decisions[PRODUCER + 1] is b


SPARK, FLINK = ("sparklite",), ("flinklite",)  # start-ups 6.0 s, 4.5 s


def _across(options, **kwargs):
    return _step(options, across=True, **kwargs)


class TestAcrossPlatformSets:
    """The partial holds (1, 2); each option adds its own interval.  No
    step charges a start-up: a complete plan pays each of its platforms'
    once, so a survivor owes those of the platforms only it touches."""

    def test_top_level_margin_is_what_the_survivor_owes(self):
        # (2, 5) owes nothing beyond (2.5, 5.5) on sparklite: it drops it.
        cheap, dear = _option(1.0, 3.0), _option(1.5, 3.5, platforms=SPARK)
        chosen, stats = _across([cheap, dear])
        assert chosen == [cheap]
        assert (stats["plans_enumerated"], stats["plans_pruned"]) == (2, 1)
        close = _option(0.9, 3.5, platforms=SPARK)
        assert _across([cheap, close])[0] == [cheap, close]
        # Only the platforms the other plan lacks count: flinklite's 4.5 s.
        spark = _option(1.0, 3.0, platforms=SPARK)  # (2, 5)
        both = _option(1.5, 3.5, platforms=SPARK + FLINK)  # (2.5, 5.5)
        assert _across([spark, both])[0] == [spark]
        assert _across([spark, _option(0.9, 3.5, platforms=SPARK + FLINK)]
                       )[1]["plans_pruned"] == 0
        # A whole plan that may detour through sparklite keeps the
        # unpruned optimum.
        ctx = RheemContext()
        data = ctx.load_collection(list(range(40)), sim_factor=200_000.0)
        plan = data.map(lambda x: x * 2 % 97).distinct().sort().to_plan()
        costs = []
        for prune in (True, False):
            optimizer = ctx.optimizer(
                allowed_platforms={"pystreams", "sparklite", "driver"})
            optimizer.prune = prune
            best, __ = optimizer.pick_best(plan)
            costs.append((repr(best.cost.lower), repr(best.cost.upper)))
        assert costs[0] == costs[1]

    def test_in_a_body_the_margin_is_what_only_the_survivor_owes(self):
        # The job pays a body's start-ups later: an equal sparklite body
        # plan owes 6 s more, so it may not drop the pystreams one ...
        spark, py = _option(1.0, 3.0, platforms=SPARK), _option(1.0, 3.0)
        chosen, stats = _across([spark, py])
        assert chosen == [spark, py] and stats["plans_pruned"] == 0
        # ... and a pystreams plan owes nothing: it drops any dearer one,
        # however little dearer, and a strictly cheaper later one goes
        # ahead of the sparklite plan.
        chosen, stats = _across([py, spark])
        assert chosen == [py] and stats["plans_pruned"] == 1
        assert _across([py, _option(1.5, 3.5, platforms=SPARK)])[0] == [py]
        cheaper = _option(0.9, 2.9)
        chosen, stats = _across([spark, cheaper])
        assert chosen == [cheaper] and stats["plans_pruned"] == 1
        # A sparklite plan cheaper by more than the 6 s it owes wins.
        chosen, __ = _across([_option(8.0, 10.0), spark])
        assert chosen == [spark]
        # Within the platform sets of one loop decision's group, too.
        flink = _option(2.0, 4.0, platforms=("pystreams", "flinklite"))
        assert _across([_option(1.0, 3.0), flink])[0] != [flink]
        assert flink not in _across([_option(1.0, 3.0), flink])[0]

    def test_zero_start_up_platforms_collapse(self):
        py = _option(1.0, 3.0)
        chosen, stats = _across(
            [py, _option(1.0, 3.0, platforms=("jgraph",)),
             _option(1.0, 3.0, platforms=("pystreams", "jgraph"))])
        assert chosen == [py] and stats["plans_pruned"] == 2
        # A later plan cheaper on both bounds drops the earlier one.
        jgraph = _option(0.5, 2.5, platforms=("jgraph",))
        chosen, stats = _across([py, jgraph])
        assert chosen == [jgraph] and stats["plans_pruned"] == 1
        # Cheaper on one bound only: both stay.
        assert len(_across([py, _option(0.5, 3.5, platforms=("jgraph",))]
                           )[0]) == 2

    def test_a_zero_lower_bound_never_dominates(self):
        # Both totals are [0, 3]: equal on every bound, yet both stay.
        chosen, stats = _across([_option(0.0, 1.0),
                                 _option(0.0, 1.0, platforms=("jgraph",))],
                                cost=(0.0, 2.0))
        assert len(chosen) == 2 and stats["plans_pruned"] == 0

    def test_a_later_tie_never_drops_an_earlier_plan(self):
        # Free start-ups: the earlier plan drops the tying later one.
        jgraph = _option(1.0, 3.0, platforms=("jgraph",))
        py = _option(1.0, 3.0)
        chosen, stats = _across([jgraph, py])
        assert chosen == [jgraph] and stats["plans_pruned"] == 1
        # (2, 5) + S(sparklite) = (8, 11) ties the later (8, 11) exactly.
        # Across a start-up a tie keeps both: a complete plan adds it at
        # another point of its float sum, so either may round lower.
        spark, dear = _option(1.0, 3.0, platforms=SPARK), _option(7.0, 9.0)
        chosen, stats = _across([spark, dear])
        assert chosen == [spark, dear] and stats["plans_pruned"] == 0
        assert len(_across([dear, spark])[0]) == 2
        # A strictly cheaper later plan does drop it.
        dearer = _option(1.5, 3.5, platforms=SPARK)
        chosen, stats = _across([dearer, py])
        assert chosen == [py] and stats["plans_pruned"] == 1

    def test_a_resume_cancels_the_started_platforms(self):
        # sparklite runs already: it is in both plans, so no margin.
        py, spark = _option(1.0, 3.0), _option(1.0, 3.0, platforms=SPARK)
        chosen, stats = _across([spark, py], started=SPARK)
        assert chosen == [spark] and stats["plans_pruned"] == 1
        assert len(_across([spark, py])[0]) == 2
        # A whole resumed plan keeps the unpruned optimum.
        ctx = RheemContext()
        plan = _loop_plan(ctx, "repeat", ["double", "sort"], 30, 20_000.0,
                          False)
        costs = []
        for prune in (True, False):
            optimizer = ctx.optimizer()
            optimizer.prune = prune
            best, __ = optimizer.pick_best(plan, reuse=ReuseProbe(
                roots={}, needed=set(), started=frozenset(SPARK)))
            costs.append((repr(best.cost.lower), repr(best.cost.upper)))
        assert costs[0] == costs[1]

    def test_monetary_weights_the_margin(self):
        # flinklite's 4.5 s cost 4.5 * 9.60 / 3600 = $0.012: a later plan
        # cheaper by $0.05 pays it off, but not 4.5 s of time.
        py, flink = _option(1.0, 3.0), _option(0.95, 2.95, platforms=FLINK)
        chosen, __ = _across([py, flink], objective=monetary())
        assert chosen == [flink]
        assert len(_across([py, flink])[0]) == 2
        # The survivor owes it: $0.012 under $0.02 of savings.
        flink = _option(0.98, 2.98, platforms=FLINK)
        chosen, __ = _across([flink, py], objective=monetary())
        assert chosen == [flink]
        assert len(_across([flink, py])[0]) == 2

    @pytest.mark.parametrize("iterations", [1, 2])
    @pytest.mark.parametrize("steps", [["double", "even", "double"],
                                       ["sort", "distinct"],
                                       ["double", "even", "sort"]])
    def test_a_body_detour_through_a_cold_platform_keeps_the_optimum(
            self, steps, iterations):
        # At 200k records a body step may detour through sparklite; no
        # outer operator does, so the job pays its start-up for the body.
        ctx = RheemContext()
        plan = _loop_plan(ctx, "repeat", steps, iterations, 200_000.0,
                          False)
        allowed = {"pystreams", "sparklite", "driver"}
        costs = []
        for prune in (True, False):
            optimizer = ctx.optimizer(allowed_platforms=allowed)
            optimizer.prune = prune
            best, __ = optimizer.pick_best(plan)
            costs.append((repr(best.cost.lower), repr(best.cost.upper)))
        assert costs[0] == costs[1]

    def test_no_drop_in_a_body_run_zero_times(self):
        spark, py = _option(1.5, 3.5, platforms=SPARK), _option(1.0, 3.0)
        chosen, stats = _step([spark, py])
        assert chosen == [py, spark] and stats["plans_pruned"] == 0
        assert _across([spark, py])[0] == [py]

        def body_frontiers(expected, nested=1):
            """Platform sets of the body plans a loop keeps, per loop."""
            ctx = RheemContext()
            data = ctx.load_collection(list(range(40)), sim_factor=1e6)

            def body(state):
                return state.map(lambda x: x * 2 % 97).distinct()

            def loop(state):
                return state.do_while(lambda records: False, body,
                                      expected=nested)

            out = data.do_while(lambda records: False, loop,
                                expected=expected)
            seen = []
            decide = Optimizer._loop_decisions

            def spy(self, *args, **kwargs):
                decisions = decide(self, *args, **kwargs)
                seen.append(sorted(sorted(d.platforms) for d in decisions))
                return decisions

            with mock.patch.object(Optimizer, "_loop_decisions", spy):
                ctx.optimizer().pick_best(out.to_plan())
            return seen

        admit = Optimizer._admit
        with mock.patch.object(
                Optimizer, "_admit",
                lambda self, *args: admit(self, *args[:-1], False)):
            within_only = body_frontiers(0)
        # A body run zero times, and a body nested in it, keep every plan.
        assert body_frontiers(0) == within_only
        once, inner_zero = body_frontiers(1), body_frontiers(1, nested=0)
        assert len(once[0]) < len(within_only[0])
        assert len(inner_zero[0]) == len(within_only[0])


# A loop body is a short chain of steps over the loop variable.
body_steps = st.lists(st.sampled_from(["double", "even", "distinct",
                                       "sort", "sample"]),
                      min_size=1, max_size=2)


def _loop_plan(ctx, kind, steps, iterations, sim_factor, invariant):
    data = ctx.load_collection(list(range(40)), sim_factor=sim_factor)
    if invariant:
        data = data.cache()
    seed = ctx.load_collection(list(range(8)), sim_factor=sim_factor)

    def body(state, *invariants):
        dq = state
        for step in steps:
            if step == "double":
                dq = dq.map(lambda x: x * 2 % 97)
            elif step == "even":
                dq = dq.filter(lambda x: x % 2 == 0)
            elif step == "distinct":
                dq = dq.distinct()
            elif step == "sort":
                dq = dq.sort()
            elif invariants:
                dq = invariants[0].sample(size=4, broadcasts=[dq])
        return dq

    extra = [data] if invariant else []
    if kind == "repeat":
        out = seed.repeat(iterations, body, invariants=extra)
    else:
        out = seed.do_while(lambda records: len(records) > 1, body,
                            invariants=extra, expected=iterations)
    return out.map(lambda x: x + 1).to_plan()


class TestLosslessLoops:
    @given(st.sampled_from(["repeat", "do_while"]), body_steps,
           st.sampled_from([2, 30]), st.sampled_from([1.0, 20_000.0]),
           st.booleans(),
           st.sampled_from([("pystreams", "sparklite"),
                            ("pystreams", "flinklite"),
                            ("pystreams", "sparklite", "flinklite")]))
    @settings(max_examples=10)
    def test_dominance_keeps_the_unpruned_optimum(
            self, kind, steps, iterations, sim_factor, invariant, platforms):
        ctx = RheemContext()
        plan = _loop_plan(ctx, kind, steps, iterations, sim_factor,
                          invariant)
        allowed = set(platforms) | {"driver"}

        def optimum(prune=True):
            optimizer = ctx.optimizer(allowed_platforms=allowed)
            optimizer.prune = prune
            return optimizer.pick_best(plan)[0]

        best = optimum()
        reference = optimum(prune=False)
        assert (repr(best.cost.lower), repr(best.cost.upper)) == (
            repr(reference.cost.lower), repr(reference.cost.upper))
