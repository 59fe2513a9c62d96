"""Integration tests for the four applications of Section 2."""

import pytest

from repro import RheemContext
from repro.apps import (
    BigDansing,
    ML4all,
    XdbQuery,
    crocopr,
    q5_quanta,
    run_all_into_pgres,
    run_all_on_spark,
    run_polystore,
    sgd_hinge,
    tax_rule,
)
from repro.apps.ml4all import Algorithm
from repro.algorithms import pagerank_edges
from repro.workloads import (
    TpchLite,
    write_community,
    write_points,
    write_tax,
)
from repro.workloads.graphs import community_edges
from repro.workloads.tax import parse_tax


def _tax_data(ctx, count=200, sim_rows=10_000, violations=4):
    corrupted = write_tax(ctx, "hdfs://tax", count, sim_rows, violations)
    data = (ctx.read_text_file("hdfs://tax")
            .map(parse_tax, name="parse-tax", bytes_per_record=60))
    return data, corrupted


class TestBigDansing:
    def test_detects_exactly_the_planted_violators(self, ctx):
        data, corrupted = _tax_data(ctx)
        result = BigDansing(ctx).detect(data, tax_rule())
        offenders = {pair[0]["rid"] for pair in result.output}
        assert corrupted <= offenders
        # The planted offenders violate against MANY records; genuine pairs
        # among clean records are possible but every corrupted id must show.

    def test_iejoin_and_cartesian_agree(self, ctx):
        data, __ = _tax_data(ctx, count=80)
        fast = BigDansing(ctx).detect(data, tax_rule(), method="iejoin")
        ctx2 = RheemContext()
        data2, __ = _tax_data(ctx2, count=80)
        slow = BigDansing(ctx2).detect(data2, tax_rule(), method="cartesian")
        key = lambda p: (p[0]["rid"], p[1]["rid"])
        assert sorted(map(key, fast.output)) == sorted(map(key, slow.output))

    def test_iejoin_is_cheaper_than_cartesian(self, ctx):
        data, __ = _tax_data(ctx, sim_rows=200_000)
        fast = BigDansing(ctx).detect(data, tax_rule(), method="iejoin")
        ctx2 = RheemContext()
        data2, __ = _tax_data(ctx2, sim_rows=200_000)
        slow = BigDansing(ctx2).detect(data2, tax_rule(), method="cartesian")
        assert fast.runtime < slow.runtime / 5

    def test_repair_targets_corrupted_records(self, ctx):
        data, corrupted = _tax_data(ctx)
        result = BigDansing(ctx).repair(data, tax_rule())
        fixed_ids = {fix.rid for fix in result.output}
        assert corrupted <= fixed_ids
        assert all(fix.attribute == "tax" for fix in result.output)

    def test_unknown_method_rejected(self, ctx):
        data, __ = _tax_data(ctx)
        with pytest.raises(ValueError):
            BigDansing(ctx).detect(data, tax_rule(), method="magic")


class TestML4all:
    def test_sgd_learns_the_separator_direction(self, ctx):
        from repro.workloads.points import labelled_points
        lines, true_w = labelled_points(800, 3, noise=0.0, seed=11)
        ctx.vfs.write("hdfs://pts", lines, sim_factor=100.0,
                      bytes_per_record=60)
        result = ML4all(ctx).train("hdfs://pts", sgd_hinge(3, 0.1),
                                   iterations=300, sample_size=12)
        learned = result.output[0]
        cosine = (sum(a * b for a, b in zip(learned, true_w))
                  / (sum(a * a for a in learned) ** 0.5
                     * sum(b * b for b in true_w) ** 0.5))
        assert cosine > 0.8

    def test_convergence_based_training_stops_early(self, ctx):
        write_points(ctx, "hdfs://pts", "rcv1", percent=100)
        algo = sgd_hinge(12)
        algo.converge = lambda old, new: True  # converge on first compare
        result = ML4all(ctx).train("hdfs://pts", algo, iterations=500)
        # With an impossible-to-miss tolerance it stops almost immediately.
        iterations_run = sum(
            1 for t in result.tracker.records if ".it" in t.stage_id
        )
        assert iterations_run < 500

    def test_mixed_platform_beats_forced_spark(self, ctx):
        write_points(ctx, "hdfs://pts", "higgs", percent=100)
        free = ML4all(ctx).train("hdfs://pts", sgd_hinge(28), iterations=50)
        ctx2 = RheemContext()
        write_points(ctx2, "hdfs://pts", "higgs", percent=100)
        forced = ML4all(ctx2).train(
            "hdfs://pts", sgd_hinge(28), iterations=50,
            sample_method="random",
            allowed_platforms={"sparklite", "driver"})
        assert free.runtime < forced.runtime


class TestXdb:
    def test_query_builder_matches_manual_computation(self, ctx):
        rows = [{"k": i, "g": i % 3, "v": float(i)} for i in range(30)]
        ctx.pgres.create_table("m", ["k", "g", "v"], rows)
        out = (XdbQuery(ctx, "m").where("k", 10, None)
               .group_sum("g", lambda r: r["v"]).run())
        expected = {}
        for r in rows:
            if r["k"] >= 10:
                expected[r["g"]] = expected.get(r["g"], 0.0) + r["v"]
        assert dict(out.output) == expected

    def test_query_join(self, ctx):
        ctx.pgres.create_table("a", ["k", "x"],
                               [{"k": i, "x": i * 10} for i in range(5)])
        ctx.pgres.create_table("b", ["k", "y"],
                               [{"k": i % 2, "y": i} for i in range(4)])
        out = XdbQuery(ctx, "a").join(XdbQuery(ctx, "b"), "k", "k").run()
        assert all(row["k"] in (0, 1) for row in out.output)
        assert len(out.output) == 4

    def test_crocopr_equals_reference_pagerank(self, ctx):
        write_community(ctx, "hdfs://c1", 1, sim_mb=10.0)
        write_community(ctx, "hdfs://c2", 2, sim_mb=10.0)
        result = crocopr(ctx, "hdfs://c1", "hdfs://c2", iterations=10)
        shared = sorted(set(community_edges(1)) & set(community_edges(2)))
        reference = pagerank_edges(shared, iterations=10)
        got = dict(result.output)
        assert set(got) == set(reference)
        for vertex, rank in reference.items():
            assert got[vertex] == pytest.approx(rank)

    def test_crocopr_output_sorted_by_rank(self, ctx):
        write_community(ctx, "hdfs://c1", 1, sim_mb=10.0)
        write_community(ctx, "hdfs://c2", 2, sim_mb=10.0)
        result = crocopr(ctx, "hdfs://c1", "hdfs://c2")
        ranks = [rank for __, rank in result.output]
        assert ranks == sorted(ranks, reverse=True)


class TestDataCivQ5:
    def test_all_placements_agree_on_the_answer(self):
        answers = []
        for runner in (run_polystore, run_all_into_pgres, run_all_on_spark):
            outcome = runner(RheemContext(), sf=1)
            answers.append(sorted(outcome.result))
        assert answers[0] == answers[1] == answers[2]
        assert answers[0]  # non-empty revenue report

    def test_polystore_beats_load_into_postgres(self):
        direct = run_polystore(RheemContext(), sf=1)
        loaded = run_all_into_pgres(RheemContext(), sf=1)
        assert direct.runtime < loaded.runtime
        assert loaded.migration_s > 0

    def test_unknown_placement_rejected(self):
        ctx = RheemContext()
        TpchLite().place_for_q5(ctx)
        with pytest.raises(ValueError):
            q5_quanta(ctx, 1, "clay-tablets")


class TestMoreAlgorithms:
    def test_logistic_sgd_learns_direction(self, ctx):
        from repro.apps import logistic_sgd
        from repro.workloads.points import labelled_points
        lines, true_w = labelled_points(600, 3, noise=0.0, seed=21)
        ctx.vfs.write("hdfs://lg", lines, sim_factor=50.0,
                      bytes_per_record=60)
        result = ML4all(ctx).train("hdfs://lg", logistic_sgd(3, 0.5),
                                   iterations=250, sample_size=16)
        learned = result.output[0]
        cosine = (sum(a * b for a, b in zip(learned, true_w))
                  / (sum(a * a for a in learned) ** 0.5
                     * sum(b * b for b in true_w) ** 0.5))
        assert cosine > 0.8

    def test_kmeans_recovers_separated_clusters(self, ctx):
        import random
        from repro.apps import kmeans
        rng = random.Random(8)
        centers = [(-5.0, -5.0), (5.0, 5.0)]
        lines = []
        for __ in range(400):
            cx, cy = centers[rng.randrange(2)]
            lines.append(f"0,{cx + rng.gauss(0, 0.3)},"
                         f"{cy + rng.gauss(0, 0.3)}")
        ctx.vfs.write("hdfs://km", lines, sim_factor=100.0,
                      bytes_per_record=40)
        result = ML4all(ctx).train("hdfs://km", kmeans(2, k=2),
                                   iterations=60, sample_size=40)
        learned = sorted(result.output[0])
        for found, true in zip(learned, sorted(centers)):
            for f, t in zip(found, true):
                assert abs(f - t) < 1.0

    def test_kmeans_empty_cluster_keeps_centroid(self):
        from repro.apps.ml4all import kmeans
        algo = kmeans(2, k=2, seed=3)
        centroids = algo.stage()
        sums = (((0,) + (0.0, 0.0)), ((1,) + (4.0, 6.0)))
        updated = algo.update(sums, [centroids])
        assert updated[0] == centroids[0]       # empty: unchanged
        assert updated[1] == (4.0, 6.0)         # mean of the singleton
