"""Tests for the simulated-scale semantics: sim factors through operators,
join scaling modes, declared group counts, memory feasibility."""

import pytest

from repro import RheemContext
from repro.simulation.cluster import SimulatedOutOfMemory


def _result_channelish(res):
    return res


class TestJoinSimModes:
    def _run(self, ctx, sim_mode):
        left = ctx.load_collection([(i % 5, "l") for i in range(10)],
                                   sim_factor=100.0)
        right = ctx.load_collection([(i % 5, "r") for i in range(10)],
                                    sim_factor=100.0)
        return left.join(right, lambda t: t[0], lambda t: t[0],
                         sim_mode=sim_mode)

    def test_same_actual_results(self, ctx):
        linear = sorted(self._run(ctx, "linear").collect())
        product = sorted(self._run(RheemContext(), "product").collect())
        assert linear == product
        assert len(linear) == 20

    def test_product_mode_charges_more(self):
        # Quadratic output scaling must cost (much) more simulated time.
        ctx_a, ctx_b = RheemContext(), RheemContext()
        linear = self._run(ctx_a, "linear").execute(
            allowed_platforms={"pystreams", "driver"})
        product = self._run(ctx_b, "product").execute(
            allowed_platforms={"pystreams", "driver"})
        assert product.runtime > 10 * linear.runtime

    def test_invalid_mode_rejected(self, ctx):
        with pytest.raises(ValueError):
            self._run(ctx, "quadratic")


class TestSimGroups:
    def test_declared_group_count_bounds_downstream_cost(self):
        def run(sim_groups):
            ctx = RheemContext()
            data = ctx.load_collection([(i % 4, 1) for i in range(100)],
                                       sim_factor=1e6)
            agg = data.reduce_by_key(lambda t: t[0],
                                     lambda a, b: (a[0], a[1] + b[1]),
                                     sim_groups=sim_groups)
            # A post-aggregation map's cost depends on the group count.
            return agg.map(lambda t: t).execute(
                allowed_platforms={"pystreams", "driver"})

        undeclared = run(None)   # groups inherit the 1e6 factor
        declared = run(4.0)      # truly four groups
        assert sorted(undeclared.output) == sorted(declared.output)
        assert declared.runtime < undeclared.runtime

    def test_estimator_pins_declared_groups(self, ctx):
        from repro.core.operators import ReduceBy
        from repro.core.cardinality import CardinalityEstimate
        from repro.core.operators import EstimationContext
        op = ReduceBy(lambda t: t[0], lambda a, b: a, sim_groups=25)
        est = op.estimate_cardinality([CardinalityEstimate.exact(1e9)],
                                      EstimationContext())
        assert est.is_exact and est.upper == 25


class TestMemoryFeasibility:
    def _pagerank(self, ctx, sim_factor, pin=None):
        edges = [(i, (i * 7) % 50) for i in range(500)]
        dq = (ctx.load_collection(edges, sim_factor=sim_factor,
                                  bytes_per_record=16)
              .pagerank(iterations=5))
        if pin:
            dq.op.with_target_platform(pin)
        return dq

    def test_optimizer_avoids_infeasible_platform(self):
        # Huge graph: jgraph would OOM; the optimizer must route elsewhere.
        ctx = RheemContext()
        res = self._pagerank(ctx, sim_factor=1e6).execute()
        assert "jgraph" not in res.platforms

    def test_small_graph_may_use_jgraph(self):
        ctx = RheemContext()
        res = self._pagerank(ctx, sim_factor=100.0).execute()
        assert "jgraph" in res.platforms

    def test_explicit_pin_overrides_and_fails_at_runtime(self):
        ctx = RheemContext()
        with pytest.raises(SimulatedOutOfMemory):
            self._pagerank(ctx, sim_factor=1e6, pin="jgraph").execute()


class TestDiskBackedChannels:
    def test_pgres_relations_do_not_count_against_memory(self):
        # A relation bigger than pgres' RAM is fine (disk-backed)...
        ctx = RheemContext()
        rows = [{"k": i} for i in range(100)]
        ctx.pgres.create_table("big", ["k"], rows, sim_factor=5e6,
                               bytes_per_row=100.0)  # 50 TB simulated
        out = (ctx.read_table("big")
               .filter_range("k", 0, 10, selectivity=0.11)
               .execute(allowed_platforms={"pgres", "driver"}))
        assert len(out.output) == 11

    def test_collections_do_count(self):
        # ...but materializing it as a driver collection is fatal.
        ctx = RheemContext()
        ctx.vfs.write("hdfs://big", ["x"] * 100, sim_factor=5e6,
                      bytes_per_record=100.0)
        with pytest.raises(SimulatedOutOfMemory):
            ctx.read_text_file("hdfs://big").collect(
                allowed_platforms={"pystreams", "driver"})


class TestCriticalPathWithLoops:
    def test_loop_iterations_wait_for_preparation(self, ctx):
        # The first loop iteration must start AFTER the (slow) preparation
        # of its invariant input, so total > preparation time.
        ctx.vfs.write("hdfs://pts", ["1"] * 100, sim_factor=2e6,
                      bytes_per_record=700.0)  # slow to read + parse
        data = (ctx.read_text_file("hdfs://pts")
                .map(float, name="parse").cache())
        seed = ctx.load_collection([0.0])
        out = seed.repeat(
            3, lambda s, inv: inv.sample(size=2, method="random_jump",
                                         broadcasts=[s])
            .reduce(lambda a, b: a + b),
            invariants=[data])
        res = out.execute(allowed_platforms={"flinklite", "pystreams",
                                             "driver"})
        # The preparation stage is the long non-iteration one (file read).
        prep = max((t for t in res.tracker.records
                    if ".it" not in t.stage_id), key=lambda t: t.duration)
        assert prep.duration > 1.0
        first_iter = min(t.start for t in res.tracker.records
                         if ".it0." in t.stage_id)
        assert first_iter >= prep.end - 1e-9
