"""Tests for the synthetic workload generators."""

import pytest

from repro import RheemContext
from repro.workloads import (
    TpchLite,
    community_edges,
    labelled_points,
    parse_edge,
    parse_point,
    parse_tax,
    power_law_edges,
    tax_records,
    write_abstracts,
    write_community,
    write_pagelinks,
    write_points,
    write_tax,
    zipf_lines,
)
from repro.workloads.tpch import ACTUAL_ROWS, parse_row


class TestText:
    def test_zipf_is_skewed_and_deterministic(self):
        lines = zipf_lines(500, vocabulary=100, seed=1)
        assert lines == zipf_lines(500, vocabulary=100, seed=1)
        counts = {}
        for line in lines:
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
        assert counts["w0"] > counts.get("w50", 0)

    def test_write_abstracts_scales_percent(self):
        ctx = RheemContext()
        write_abstracts(ctx, "hdfs://a", percent=10)
        write_abstracts(ctx, "hdfs://b", percent=100)
        a = ctx.vfs.read("hdfs://a").sim_record_count
        b = ctx.vfs.read("hdfs://b").sim_record_count
        assert b == pytest.approx(10 * a)

    def test_percent_validation(self):
        with pytest.raises(ValueError):
            write_abstracts(RheemContext(), "hdfs://x", percent=0)


class TestPoints:
    def test_points_are_roughly_separable(self):
        lines, true_w = labelled_points(300, 4, noise=0.0, seed=2)
        correct = 0
        for line in lines:
            label, *xs = parse_point(line)
            margin = sum(w * x for w, x in zip(true_w, xs))
            correct += (margin > 0) == (label > 0)
        assert correct == 300

    def test_dataset_catalog(self):
        ctx = RheemContext()
        spec = write_points(ctx, "hdfs://p", "higgs", percent=50)
        assert spec.dimensions == 28
        vf = ctx.vfs.read("hdfs://p")
        assert vf.sim_record_count == pytest.approx(5_500_000)

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            write_points(RheemContext(), "hdfs://p", "imagenet")


class TestGraphs:
    def test_power_law_no_self_loops(self):
        edges = power_law_edges(500, 50, seed=3)
        assert len(edges) == 500
        assert all(a != b for a, b in edges)

    def test_hubs_attract_more_edges(self):
        edges = power_law_edges(2000, 100, seed=4)
        degree = {}
        for a, b in edges:
            degree[b] = degree.get(b, 0) + 1
        assert degree.get(0, 0) > degree.get(90, 0)

    def test_communities_share_edges(self):
        a = set(community_edges(1, seed=5))
        b = set(community_edges(2, seed=5))
        assert a & b          # non-trivial intersection
        assert a - b and b - a  # but not identical

    def test_write_helpers_set_sim_sizes(self):
        ctx = RheemContext()
        write_pagelinks(ctx, "hdfs://g", percent=10)
        assert ctx.vfs.read("hdfs://g").sim_record_count == \
            pytest.approx(17_000_000)
        write_community(ctx, "hdfs://c", 1, sim_mb=200.0)
        assert ctx.vfs.read("hdfs://c").sim_mb == pytest.approx(200.0)

    def test_parse_edge(self):
        assert parse_edge("3 5") == (3, 5)


class TestTax:
    def test_violations_are_detectable(self):
        records, corrupted = tax_records(200, violations=5, seed=6)
        assert len(corrupted) == 5
        clean = [r for r in records if r.rid not in corrupted]
        dirty = [records[rid] for rid in corrupted]
        for bad in dirty:
            # A corrupted record out-earns and under-pays some clean record.
            assert any(bad.salary > c.salary and bad.tax < c.tax
                       for c in clean)

    def test_clean_records_satisfy_constraint(self):
        records, corrupted = tax_records(100, violations=0, seed=7)
        clean = sorted(records, key=lambda r: r.salary)
        for earlier, later in zip(clean, clean[1:]):
            assert not (later.salary > earlier.salary
                        and later.tax < earlier.tax)

    def test_write_and_parse_roundtrip(self):
        ctx = RheemContext()
        corrupted = write_tax(ctx, "hdfs://tax", 50, sim_rows=5000,
                              violations=3)
        rows = [parse_tax(l) for l in ctx.vfs.read("hdfs://tax").records]
        assert len(rows) == 50
        assert {r["rid"] for r in rows} >= corrupted

    def test_too_many_violations_rejected(self):
        with pytest.raises(ValueError):
            tax_records(5, violations=6)


class TestTpch:
    def test_row_counts_and_sim_factors(self):
        gen = TpchLite(scale_factor=10)
        assert len(gen.lineitem()) == ACTUAL_ROWS["lineitem"]
        assert gen.sim_factor("lineitem") == pytest.approx(
            60_000_000 / ACTUAL_ROWS["lineitem"])

    def test_foreign_keys_resolve(self):
        gen = TpchLite()
        orders = {o["orderkey"] for o in gen.orders()}
        customers = {c["custkey"] for c in gen.customer()}
        suppliers = {s["suppkey"] for s in gen.supplier()}
        for item in gen.lineitem():
            assert item["orderkey"] in orders
            assert item["suppkey"] in suppliers
        for order in gen.orders():
            assert order["custkey"] in customers

    def test_csv_roundtrip(self):
        gen = TpchLite()
        row = gen.lineitem()[0]
        from repro.workloads.tpch import _to_csv
        assert parse_row("lineitem", _to_csv("lineitem", row)) == row

    @pytest.mark.parametrize("table", sorted(ACTUAL_ROWS))
    def test_csv_roundtrip_every_table(self, table):
        from repro.workloads.tpch import _to_csv
        rows = TpchLite().table(table)
        parsed = [parse_row(table, _to_csv(table, r)) for r in rows]
        assert parsed == rows
        # Same column order and exact types, not just equal values.
        assert [list(r) for r in parsed] == [list(r) for r in rows]
        assert all(type(a[c]) is type(b[c])
                   for a, b in zip(parsed, rows) for c in a)

    def test_parse_row_short_and_malformed_lines(self):
        assert parse_row("orders", "7|3") == {"orderkey": 7, "custkey": 3}
        assert parse_row("region", "1|ASIA|extra") == {
            "regionkey": 1, "name": "ASIA"}
        with pytest.raises(ValueError):
            parse_row("lineitem", "1|2|not-a-price|0.05")
        with pytest.raises(ValueError):
            parse_row("orders", "1|x|1994")

    def test_placements(self):
        ctx = RheemContext()
        TpchLite().place_for_q5(ctx)
        assert ctx.vfs.exists("hdfs://tpch/lineitem.csv")
        assert ctx.vfs.exists("file://tpch/nation.csv")
        assert ctx.pgres.has_table("customer")
        assert not ctx.pgres.has_table("lineitem")
