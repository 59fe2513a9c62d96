"""Dominated loop decisions: skipped without changing what enumeration picks.

``Optimizer._extend`` drops a ``LoopDecision`` beaten on every cost term
(conversion per input slot, ``lower``, ``upper``) by an *earlier* option
of its (output channel, platform set) group.  The unit tests drive one
``_extend`` step over hand-built options with a pre-filled conversion
table; the property test holds whole loop plans to the unpruned optimum.
"""

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import RheemContext
from repro.core.channels import ChannelDescriptor, ConversionPath
from repro.core.cost import CostEstimate
from repro.core.optimizer import LoopDecision, Optimizer, PartialPlan
from test_enumeration_golden import _describe

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


def _step(options):
    """One loop step from a single partial holding ``HAVE``: the frontier
    (winner first) and the step's counters."""
    optimizer = RheemContext().optimizer()
    op = SimpleNamespace(
        id=8, inputs=[SimpleNamespace(op=SimpleNamespace(id=PRODUCER))],
        side_inputs=[])
    partial = PartialPlan(cost=CostEstimate(1.0, 2.0),
                          open_channels={PRODUCER: HAVE})
    paths = {(HAVE.name, RDD.name, PRODUCER): ConversionPath([], 0.5),
             (HAVE.name, DATASET.name, PRODUCER): ConversionPath([], 0.25),
             (HAVE.name, NOWHERE.name, PRODUCER): None}
    frontier = optimizer._extend(
        op, options, [partial], cards={}, bprs={}, to_close={PRODUCER},
        keep_open=True, include_startup=False, paths=paths, intern={})
    frontier.sort(key=lambda p: p.gm)
    return [p.decisions[8] for p in frontier], optimizer.stats


class TestDominanceRule:
    def test_identical_vectors_keep_the_first(self):
        first, second = _option(1.0, 3.0), _option(1.0, 3.0)
        chosen, stats = _step([first, second])
        assert chosen == [first] and chosen[0] is first
        assert stats["plans_dominated"] == 1
        # The skipped option still counts as enumerated and pruned.
        assert stats["plans_enumerated"] == 2
        assert stats["plans_pruned"] == 1

    def test_a_later_dominator_does_not_drop_an_earlier_option(self):
        dear, cheap = _option(2.0, 4.0), _option(1.0, 3.0)
        chosen, stats = _step([dear, cheap])
        assert chosen[0] is cheap
        assert stats["plans_dominated"] == 0
        assert (stats["plans_enumerated"], stats["plans_pruned"]) == (2, 1)

    def test_conversion_terms_enter_the_vector(self):
        # Cheaper on its own interval, but its input needs a conversion
        # the first option does not: neither dominates the other.
        plain, converted = _option(1.0, 3.0), _option(0.5, 2.5, want=RDD)
        __, stats = _step([plain, converted])
        assert stats["plans_dominated"] == 0
        # The other way round, the converted option is beaten everywhere.
        __, stats = _step([_option(1.0, 3.0, want=RDD),
                           _option(1.0, 3.0, want=DATASET),
                           _option(1.5, 3.0, want=RDD)])
        assert stats["plans_dominated"] == 1
        assert stats["conversion_paths_solved"] == 3

    def test_an_unreachable_option_is_neither_skipped_nor_counted(self):
        # Beaten on its interval, but never wired: it is tried, counted as
        # one wiring attempt, and enumerates nothing.
        kept, unreachable = _option(1.0, 3.0), _option(5.0, 9.0, want=NOWHERE)
        chosen, stats = _step([kept, unreachable])
        assert chosen == [kept]
        assert stats["plans_dominated"] == 0
        assert stats["plans_enumerated"] == 1
        assert stats["conversion_paths_solved"] == 1
        # Nor does an unreachable option dominate a later, dearer one.
        dear = _option(5.0, 9.0)
        chosen, stats = _step([_option(1.0, 3.0, want=NOWHERE), dear])
        assert chosen == [dear] and stats["plans_dominated"] == 0

    def test_groups_are_never_compared(self):
        base = _option(1.0, 3.0)
        other_output = _option(2.0, 4.0, out=DATASET)
        other_platforms = _option(2.0, 4.0, platforms=("pystreams", "flinklite"))
        chosen, stats = _step([base, other_output, other_platforms])
        assert stats["plans_dominated"] == 0
        assert chosen == [base, other_output, other_platforms]

    def test_a_zero_lower_bound_never_dominates(self):
        # The geometric mean of [0, 10] is its midpoint, 5; that of
        # [1e-9, 10] is ~1e-4: being <= on every term is not enough here.
        __, stats = _step([_option(0.0, 10.0), _option(0.0, 10.0)])
        # The partial's own lower bound keeps both totals positive, but a
        # zero-lower option is never trusted to dominate.
        assert stats["plans_dominated"] == 0


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
            best, __ = optimizer.pick_best(plan)
            return best, optimizer.stats

        best, stats = optimum()
        reference, __ = optimum(prune=False)
        assert (repr(best.cost.lower), repr(best.cost.upper)) == (
            repr(reference.cost.lower), repr(reference.cost.upper))
        # Against the same step with nothing skipped: the same counters,
        # down to the skipped candidates, and the same decisions.
        with mock.patch.object(Optimizer, "_undominated",
                               lambda self, prepared, *args:
                               (prepared, 0, 0)):
            undropped, every = optimum()
        assert every["plans_dominated"] == 0
        assert {**stats, "plans_dominated": 0} == every
        assert _describe(plan.operators(), best) \
            == _describe(plan.operators(), undropped)
