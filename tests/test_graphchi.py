"""Tests for the GraphChi analog (the out-of-core graph platform)."""

import pytest

from repro import RheemContext


class TestPlatformIntegration:
    def _pagerank(self, ctx, sim_factor, pin=None):
        edges = [(i, (i * 7) % 40) for i in range(400)]
        dq = (ctx.load_collection(edges, sim_factor=sim_factor,
                                  bytes_per_record=16)
              .pagerank(iterations=10))
        if pin:
            dq.op.with_target_platform(pin)
        return dq

    def test_registered_and_runnable(self):
        ctx = RheemContext()
        assert any(p.name == "graphchi" for p in ctx.platforms)
        res = self._pagerank(ctx, 1000.0, pin="graphchi").execute()
        assert "graphchi" in res.platforms
        ranks = dict(res.output)
        assert sum(ranks.values()) == pytest.approx(1.0)

    def test_survives_graphs_that_kill_jgraph(self):
        # ~50M simulated edges x 16 B x JGraph's object overhead >> its
        # 2 GB heap — but GraphChi is out-of-core.
        ctx = RheemContext()
        from repro.simulation.cluster import SimulatedOutOfMemory
        with pytest.raises(SimulatedOutOfMemory):
            self._pagerank(ctx, 125_000.0, pin="jgraph").execute()
        res = self._pagerank(RheemContext(), 125_000.0,
                             pin="graphchi").execute()
        assert "graphchi" in res.platforms

    def test_costs_reflect_per_iteration_streaming(self):
        few = self._pagerank(RheemContext(), 50_000.0, pin="graphchi")
        r_few = few.execute()
        # Rebuild with more iterations.
        ctx = RheemContext()
        edges = [(i, (i * 7) % 40) for i in range(400)]
        dq = (ctx.load_collection(edges, sim_factor=50_000.0,
                                  bytes_per_record=16)
              .pagerank(iterations=40))
        dq.op.with_target_platform("graphchi")
        r_many = dq.execute()
        assert r_many.runtime > 2 * r_few.runtime  # io grows with iterations

    def test_latin_alias(self):
        from repro.latin import resolve_platform
        assert resolve_platform("GraphChi") == "graphchi"
