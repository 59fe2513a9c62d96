"""Tests for channels and the channel conversion graph."""

import pytest
from hypothesis import given, strategies as st

from repro.core.channels import (
    Channel,
    ChannelConversionError,
    ChannelConversionGraph,
    ChannelDescriptor,
    Conversion,
)

A = ChannelDescriptor("t.a", "t", True)
B = ChannelDescriptor("t.b", "t", False)
C = ChannelDescriptor("t.c", "t", True)
D = ChannelDescriptor("t.d", "t", True)


def _conv(src, dst, rate, overhead=0.0):
    return Conversion(src, dst, lambda ch, ctx: ch.with_payload(
        ch.payload, dst, ch.actual_count), mb_per_s=rate, overhead_s=overhead)


def _graph(edges):
    graph = ChannelConversionGraph()
    for src, dst, rate, overhead in edges:
        graph.register_conversion(_conv(src, dst, rate, overhead))
    return graph


class TestChannel:
    def test_sim_metadata(self):
        ch = Channel(A, [1, 2], sim_factor=100.0, bytes_per_record=50.0,
                     actual_count=2)
        assert ch.sim_cardinality == 200.0
        assert ch.sim_mb == pytest.approx(200 * 50 / 1e6)

    def test_unmeasured_cardinality_raises(self):
        with pytest.raises(ValueError):
            Channel(A, None).sim_cardinality

    def test_with_payload_keeps_metadata(self):
        ch = Channel(A, [1], sim_factor=3.0, bytes_per_record=7.0,
                     actual_count=1)
        out = ch.with_payload([1, 2], B, actual_count=2)
        assert out.descriptor == B
        assert out.sim_factor == 3.0
        assert out.bytes_per_record == 7.0


class TestRegistry:
    def test_conflicting_descriptor_rejected(self):
        graph = ChannelConversionGraph()
        graph.register_channel(A)
        with pytest.raises(ValueError):
            graph.register_channel(ChannelDescriptor("t.a", "other", True))

    def test_unknown_descriptor_lookup(self):
        with pytest.raises(ChannelConversionError):
            ChannelConversionGraph().descriptor("nope")


class TestCheapestPath:
    def test_identity_path_is_free(self):
        graph = _graph([(A, B, 100, 0)])
        path = graph.cheapest_path(A, A, 1000)
        assert path.steps == [] and path.cost == 0.0

    def test_direct_vs_detour(self):
        # A->B direct is slow; A->C->B is cheaper.
        graph = _graph([(A, B, 1, 0), (A, C, 1000, 0), (C, B, 1000, 0)])
        path = graph.cheapest_path(A, B, 1_000_000, 100)  # 100 MB
        assert [s.target.name for s in path.steps] == ["t.c", "t.b"]

    def test_overheads_flip_choice_for_small_data(self):
        graph = _graph([(A, B, 1, 0.0), (A, C, 1000, 5.0), (C, B, 1000, 5.0)])
        small = graph.cheapest_path(A, B, 10, 100)
        assert len(small.steps) == 1  # direct wins when data is tiny

    def test_unreachable_raises(self):
        graph = _graph([(A, B, 100, 0)])
        with pytest.raises(ChannelConversionError):
            graph.cheapest_path(B, A, 10)

    def test_cost_matches_sum_of_steps(self):
        graph = _graph([(A, C, 10, 1.0), (C, B, 20, 2.0)])
        path = graph.cheapest_path(A, B, 1_000_000, 100)
        expected = (1.0 + 100 / 10) + (2.0 + 100 / 20)
        assert path.cost == pytest.approx(expected)


class TestMulticast:
    def test_single_target_equals_cheapest_path(self):
        graph = _graph([(A, B, 100, 0.5)])
        tree = graph.multicast_tree(A, [B], 1000, 100)
        assert tree.cost == graph.cheapest_path(A, B, 1000, 100).cost

    def test_shared_prefix_counted_once(self):
        # A -> C (expensive), then C -> B and C -> D (cheap): the A->C hop
        # should be paid once for both targets.
        graph = _graph([(A, C, 1, 0), (C, B, 1000, 0), (C, D, 1000, 0)])
        tree = graph.multicast_tree(A, [B, D], 1_000_000, 100)
        a_to_c = 100 / 1
        assert tree.cost == pytest.approx(a_to_c + 0.1 + 0.1)

    def test_branching_requires_reusable_node(self):
        # B is non-reusable: the tree may not SHARE a fan-out at B — it must
        # either pay the A->B hop once per target, or branch at reusable A.
        edges = [(A, B, 10, 0), (B, C, 10, 0), (B, D, 10, 0)]
        tree = _graph(edges).multicast_tree(A, [C, D], 1_000_000, 100)
        assert tree.cost == pytest.approx(2 * 10 + 2 * 10)  # A->B paid twice
        # With a reusable middle channel the shared hop is paid once.
        b_reusable = ChannelDescriptor("t.b2", "t", True)
        edges2 = [(A, b_reusable, 10, 0), (b_reusable, C, 10, 0),
                  (b_reusable, D, 10, 0)]
        tree2 = _graph(edges2).multicast_tree(A, [C, D], 1_000_000, 100)
        assert tree2.cost == pytest.approx(10 + 10 + 10)

    def test_unreachable_target_raises(self):
        graph = _graph([(A, B, 10, 0)])
        with pytest.raises(ChannelConversionError):
            graph.multicast_tree(A, [B, C], 10)

    def test_apply_shares_common_steps(self):
        calls = []

        def make(src, dst):
            def convert(ch, ctx):
                calls.append(dst.name)
                return ch.with_payload(ch.payload, dst, ch.actual_count)
            return Conversion(src, dst, convert, mb_per_s=100)

        graph = ChannelConversionGraph()
        for conv in (make(A, C), make(C, B), make(C, D)):
            graph.register_conversion(conv)
        tree = graph.multicast_tree(A, [B, D], 100, 100)

        class Ctx:
            from repro.simulation import CostMeter
            meter = CostMeter()
        out = tree.apply(Channel(A, [1], actual_count=1), Ctx())
        assert set(out) == {"t.b", "t.d"}
        assert calls.count("t.c") == 1  # shared hop executed once

    @given(st.integers(1, 4))
    def test_tree_cost_never_exceeds_independent_paths(self, k):
        graph = _graph([(A, C, 5, 0.1), (C, B, 7, 0.1), (C, D, 9, 0.1),
                        (A, B, 2, 0.1), (A, D, 3, 0.1)])
        targets = [B, D][:k % 2 + 1]
        tree = graph.multicast_tree(A, targets, 10_000, 100)
        independent = sum(graph.cheapest_path(A, t, 10_000, 100).cost
                          for t in targets)
        assert tree.cost <= independent + 1e-9


_NODES = [ChannelDescriptor(f"p.{i}", "p", True) for i in range(6)]
_QUERIES = st.tuples(st.integers(0, 5), st.integers(0, 5),
                     st.floats(0, 1e9), st.floats(1, 1e4))


class TestSearchHasNoMemory:
    """``cheapest_path`` is a function of the graph and its arguments."""

    @pytest.mark.parametrize("order", [(45_000, 50_500), (50_500, 45_000)])
    def test_a_neighbouring_volume_asked_first_does_not_flip_the_path(
            self, order):
        # Direct edge: 1 s + 1000 MB/s.  Detour: two hops at 10 MB/s.  The
        # lines cross at ~5.025 MB, inside one quarter-octave of volume.
        graph = _graph([(A, B, 1000, 1.0), (A, C, 10, 0), (C, B, 10, 0)])
        got = {records: graph.cheapest_path(A, B, records, 100)
               for records in order}
        assert [s.target.name for s in got[45_000].steps] == ["t.c", "t.b"]
        assert got[45_000].cost == pytest.approx(0.9)
        assert [s.target.name for s in got[50_500].steps] == ["t.b"]
        assert got[50_500].cost == pytest.approx(1.00505)

    def test_a_conversion_registered_later_is_searched(self):
        graph = _graph([(A, C, 10, 0), (C, B, 10, 0)])
        before = graph.cheapest_path(A, B, 1_000_000, 100)
        assert len(before.steps) == 2
        # A much faster direct conversion appears (new platform plugged in).
        graph.register_conversion(_conv(A, B, 1_000_000))
        after = graph.cheapest_path(A, B, 1_000_000, 100)
        assert [s.target.name for s in after.steps] == ["t.b"]
        assert after.cost < before.cost

    @given(
        edges=st.lists(st.tuples(
            st.integers(0, 5), st.integers(0, 5),
            st.floats(0.5, 5000), st.floats(0, 5)), max_size=14),
        asked_before=st.lists(_QUERIES, max_size=4),
        query=_QUERIES)
    def test_cost_is_the_brute_force_minimum_whatever_was_asked_before(
            self, edges, asked_before, query):
        graph = ChannelConversionGraph()
        for node in _NODES:
            graph.register_channel(node)
        convs = [_conv(_NODES[i], _NODES[j], rate, overhead)
                 for i, j, rate, overhead in edges if i != j]
        for conv in convs:
            graph.register_conversion(conv)
        for i, j, records, width in asked_before:
            try:
                graph.cheapest_path(_NODES[i], _NODES[j], records, width)
            except ChannelConversionError:
                pass
        source, target, records, width = query

        def cheapest(node, seen, cost):
            """Minimum over the simple paths ``node -> target``."""
            if node == target:
                return cost
            return min((cheapest(
                _NODES.index(conv.target), seen | {node},
                cost + conv.estimate_cost(records, width))
                for conv in convs
                if conv.source == _NODES[node]
                and _NODES.index(conv.target) not in seen | {node}),
                default=float("inf"))

        expected = cheapest(source, frozenset(), 0.0)
        if expected == float("inf"):
            with pytest.raises(ChannelConversionError):
                graph.cheapest_path(_NODES[source], _NODES[target],
                                    records, width)
        else:
            path = graph.cheapest_path(_NODES[source], _NODES[target],
                                       records, width)
            assert path.cost == expected
            along = 0.0
            for step in path.steps:
                along += step.estimate_cost(records, width)
            assert path.cost == along
            hops = [_NODES[source]] + [s.target for s in path.steps]
            assert [s.source for s in path.steps] == hops[:-1]
            assert hops[-1] == _NODES[target]


class TestMulticastReachability:
    def test_disconnected_descriptor_is_pruned_from_the_dp(self):
        # An isolated descriptor (registered, no edges) must not enlarge
        # the Steiner DP or break tree construction.
        graph = _graph([(A, C, 10, 0), (C, B, 1000, 0), (C, D, 1000, 0)])
        island = ChannelDescriptor("t.island", "t", True)
        graph.register_channel(island)
        tree = graph.multicast_tree(A, [B, D], 1_000_000, 100)
        assert set(tree.paths) == {"t.b", "t.d"}
        assert "t.island" not in graph.paths_from(A, 1_000_000, 100)

    def test_unreachable_target_error_names_the_island(self):
        graph = _graph([(A, B, 10, 0)])
        island = ChannelDescriptor("t.island", "t", True)
        graph.register_channel(island)
        with pytest.raises(ChannelConversionError, match="island"):
            graph.multicast_tree(A, [B, island], 1000, 100)
