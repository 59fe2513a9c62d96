"""Tests for the REST interface, the plan visualizer/EXPLAIN, the xDB SQL
front end and the CLI."""

import io
import json

import pytest

from repro import RheemContext
from repro.api import PlanDocumentError, RheemService, build_quanta
from repro.apps.xdb_sql import SqlError, parse_sql, run_sql, sql_query
from repro.server import JobServer, make_wsgi_app
from repro.studio import explain, plan_to_dot, render_ascii
from conftest import wordcount

WORDCOUNT_DOC = {
    "operators": [
        {"name": "lines", "kind": "textfile_source",
         "path": "hdfs://api/x.txt"},
        {"name": "words", "kind": "flatmap", "input": "lines",
         "expr": "x.split()"},
        {"name": "pairs", "kind": "map", "input": "words",
         "expr": "(x, 1)"},
        {"name": "counts", "kind": "reduceby", "input": "pairs",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"},
    ],
    "sink": {"name": "counts"},
}


def _ctx_with_corpus():
    ctx = RheemContext()
    ctx.vfs.write("hdfs://api/x.txt", ["a b", "b"], sim_factor=10.0)
    return ctx


class TestJsonPlans:
    def test_document_builds_and_runs(self):
        ctx = _ctx_with_corpus()
        out = build_quanta(ctx, WORDCOUNT_DOC).collect()
        assert sorted(out) == [("a", 1), ("b", 2)]

    def test_platform_pins_use_paper_names(self):
        ctx = _ctx_with_corpus()
        doc = json.loads(json.dumps(WORDCOUNT_DOC))
        doc["operators"][1]["platform"] = "Spark"
        result = build_quanta(ctx, doc).execute()
        assert "sparklite" in result.platforms

    def test_join_union_sample_kinds(self):
        ctx = RheemContext()
        doc = {
            "operators": [
                {"name": "a", "kind": "collection_source",
                 "data": [[1, "x"], [2, "y"]]},
                {"name": "b", "kind": "collection_source",
                 "data": [[1, "z"]]},
                {"name": "j", "kind": "join", "left": "a", "right": "b",
                 "left_key": "x[0]", "right_key": "x[0]"},
            ],
            "sink": {"name": "j"},
        }
        out = build_quanta(ctx, doc).collect()
        assert out == [([1, "x"], [1, "z"])]

    def test_errors_are_reported(self):
        ctx = RheemContext()
        with pytest.raises(PlanDocumentError):
            build_quanta(ctx, {"operators": [
                {"name": "x", "kind": "teleport"}], "sink": {"name": "x"}})
        with pytest.raises(PlanDocumentError):
            build_quanta(ctx, {"operators": [], "sink": {"name": "ghost"}})
        with pytest.raises(PlanDocumentError):
            build_quanta(ctx, {"operators": []})

    @pytest.mark.parametrize("field, kind, others, source", [
        (field, kind, others, source)
        for field, kind, others in [
            ("expr", "map", {}), ("expr", "flatmap", {}),
            ("expr", "filter", {}), ("key", "sort", {}),
            ("key", "groupby", {}), ("key", "reduceby", {"reducer": "a"}),
            ("reducer", "reduceby", {"key": "x"}), ("reducer", "reduce", {}),
            ("left_key", "join", {"right_key": "x"}),
            ("right_key", "join", {"left_key": "x"})]
        for source in [
            "x)+(1",  # pasted into ``lambda x: (...)`` this used to compile
            "x; y", "", "  ", 5, None, ["x"]]
        if (kind, source) != ("sort", None)])  # a sort key is optional
    def test_a_udf_source_must_be_one_expression(self, field, kind, others,
                                                 source):
        doc = {"operators": [
            {"name": "xs", "kind": "collection_source", "data": [1, 2]},
            {"name": "udf", "kind": kind, "input": "xs", "left": "xs",
             "right": "xs", **others, field: source}],
            "sink": {"name": "udf"}}
        with pytest.raises(PlanDocumentError, match="'udf'"):
            build_quanta(RheemContext(), doc)
        response = RheemService(RheemContext()).submit(doc)
        assert response["status"] == "error"
        assert response["kind"] == "PlanDocumentError"

    def test_surrounding_whitespace_is_not_part_of_the_expression(self):
        doc = {"operators": [
            {"name": "xs", "kind": "collection_source", "data": [1, 2]},
            {"name": "m", "kind": "map", "input": "xs",
             "expr": "  x + 1\n"}], "sink": {"name": "m"}}
        assert build_quanta(RheemContext(), doc).collect() == [2, 3]


class TestRestService:
    def test_submit_ok(self):
        service = RheemService(_ctx_with_corpus())
        response = service.submit(WORDCOUNT_DOC)
        assert response["status"] == "ok"
        assert sorted(map(tuple, response["output"])) == [("a", 1), ("b", 2)]
        assert response["runtime"] > 0
        assert response["price_usd"] >= 0

    def test_submit_error_shape(self):
        service = RheemService(RheemContext())
        response = service.submit({"operators": [], "sink": {"name": "x"}})
        assert response["status"] == "error"
        assert "unknown dataset" in response["error"]

    def test_monetary_objective_via_document(self):
        ctx = RheemContext()
        from repro.workloads import write_abstracts
        write_abstracts(ctx, "hdfs://api/x.txt", 10)
        doc = json.loads(json.dumps(WORDCOUNT_DOC))
        doc["execution"] = {"objective": "monetary"}
        response = RheemService(ctx).submit(doc)
        assert response["status"] == "ok"
        assert response["platforms"] == ["pystreams"]

    def _call(self, app, method="POST", path="/jobs", body=b""):
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        environ = {"REQUEST_METHOD": method, "PATH_INFO": path,
                   "CONTENT_LENGTH": str(len(body)),
                   "wsgi.input": io.BytesIO(body)}
        chunks = app(environ, start_response)
        return captured["status"], json.loads(b"".join(chunks))

    def test_wsgi_roundtrip(self):
        with JobServer(_ctx_with_corpus(), workers=1) as server:
            body = json.dumps(WORDCOUNT_DOC).encode()
            status, payload = self._call(make_wsgi_app(server), body=body)
        assert status == "200 OK"
        assert payload["status"] == "ok"

    def test_wsgi_rejects_bad_requests(self):
        with JobServer(RheemContext(), workers=1) as server:
            app = make_wsgi_app(server)
            status, __ = self._call(app, method="GET")
            assert status.startswith("404")
            status, payload = self._call(app, body=b"{not json")
        assert status.startswith("400")
        assert payload["status"] == "error"


class TestStudio:
    def _plan(self, ctx):
        ctx.vfs.write("hdfs://st/x.txt", ["a b"], sim_factor=5.0)
        return wordcount(ctx, "hdfs://st/x.txt").to_plan()

    def test_render_ascii_lists_operators(self, ctx):
        text = render_ascii(self._plan(ctx))
        assert "textfile-source" in text and "reduceby" in text
        assert "<-" in text

    def test_dot_output_is_wellformed(self, ctx):
        dot = plan_to_dot(self._plan(ctx))
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert dot.count("->") >= 3

    def test_dot_includes_loop_cluster(self, ctx):
        data = ctx.load_collection([1]).cache()
        seed = ctx.load_collection([0])
        plan = seed.repeat(2, lambda s, inv: s.map(lambda v: v + 1),
                           invariants=[data]).to_plan()
        dot = plan_to_dot(plan)
        assert "cluster_loop" in dot

    def test_explain_shows_choices_and_movement(self, ctx):
        ctx.pgres.create_table("t", ["k"], [{"k": i} for i in range(10)],
                               sim_factor=1e6)
        plan = (ctx.read_table("t")
                .map(lambda r: (r["k"] % 5, 1), bytes_per_record=16)
                .reduce_by_key(lambda t: t[0],
                               lambda a, b: (a[0], a[1] + b[1]))
                .to_plan())
        text = explain(ctx, plan)
        assert "estimated cost" in text
        assert "pgres" in text
        assert "->" in text


class TestXdbSql:
    def _ctx(self):
        ctx = RheemContext()
        customers = [{"custkey": i, "nationkey": i % 5,
                      "acctbal": float(100 * i)} for i in range(20)]
        nations = [{"nationkey": i, "regionkey": i % 2,
                    "nname": f"N{i}"} for i in range(5)]
        ctx.pgres.create_table("customer",
                               ["custkey", "nationkey", "acctbal"], customers)
        ctx.pgres.create_table("nation",
                               ["nationkey", "regionkey", "nname"], nations)
        return ctx

    def test_group_sum(self):
        ctx = self._ctx()
        out = run_sql(ctx, """
            SELECT nationkey, SUM(acctbal) FROM customer
            WHERE acctbal >= 500 GROUP BY nationkey
        """)
        expected = {}
        for i in range(20):
            if 100 * i >= 500:
                expected[i % 5] = expected.get(i % 5, 0) + 100.0 * i
        assert dict(out.output) == expected

    def test_join_with_filter(self):
        ctx = self._ctx()
        out = run_sql(ctx, """
            SELECT custkey FROM customer c
            JOIN nation n ON c.nationkey = n.nationkey
            WHERE n.regionkey = 1
        """)
        keys = sorted(r["custkey"] for r in out.output)
        assert keys == sorted(i for i in range(20) if (i % 5) % 2 == 1)

    def test_equality_and_ranges(self):
        ctx = self._ctx()
        out = run_sql(ctx, "SELECT custkey FROM customer "
                           "WHERE custkey > 15 AND custkey <= 18")
        assert sorted(r["custkey"] for r in out.output) == [16, 17, 18]

    def test_parser_rejects_nonsense(self):
        with pytest.raises(SqlError):
            parse_sql("DELETE FROM customer")
        with pytest.raises(SqlError):
            parse_sql("SELECT a FROM t WHERE a LIKE 'x'")
        with pytest.raises(SqlError):
            run_sql(self._ctx(), "SELECT a FROM customer GROUP BY a")

    def test_query_compiles_to_cross_platform_plan(self):
        ctx = self._ctx()
        query = sql_query(ctx, "SELECT custkey, acctbal FROM customer")
        result = query.run()
        assert len(result.output) == 20


class TestCli:
    def test_run_script(self, tmp_path, capsys):
        from repro.__main__ import main
        script = tmp_path / "wc.latin"
        script.write_text("""
            lines = load 'hdfs://data/abstracts.txt';
            words = flatmap lines -> { x.split() };
            n = count words;
            dump n;
        """)
        code = main(["run", str(script), "--abstracts", "1"])
        assert code == 0
        assert "n:" in capsys.readouterr().out

    def test_no_subcommand_is_a_usage_error(self, capsys):
        from repro.__main__ import main
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "subcommand" in err

    def test_unknown_subcommand_exits_2(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_run_requires_a_script_argument(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 2

    def test_serve_rejects_non_numeric_port(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as err:
            main(["serve", "--port", "not-a-number"])
        assert err.value.code == 2

    def test_run_rejects_non_numeric_seed_percent(self, tmp_path):
        from repro.__main__ import main
        script = tmp_path / "x.latin"
        script.write_text("dump 1;")
        with pytest.raises(SystemExit) as err:
            main(["run", str(script), "--abstracts", "lots"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["run", "trace", "lint"])
    def test_unseeded_corpus_is_one_error_line_not_a_traceback(self, command):
        # The README's own command without --abstracts, as a user runs it.
        import os
        import subprocess
        import sys
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command,
             os.path.join(root, "examples", "wordcount.latin")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: FileNotFound: ")
        assert "--abstracts" in lines[0]

    def test_script_level_failures_exit_2(self, tmp_path, capsys):
        from repro.__main__ import main
        bad = tmp_path / "bad.latin"
        bad.write_text("x = frobnicate y;")
        unseeded = tmp_path / "unseeded.latin"
        unseeded.write_text(
            "a = load 'hdfs://data/pagelinks.txt';\ndump a;")
        pinned = tmp_path / "pinned.latin"
        pinned.write_text(
            "a = load 'hdfs://data/abstracts.txt';\n"
            "b = pagerank a with platform 'Postgres';\ndump b;")
        for argv, kind in [
            (["run", str(bad)], "LatinSyntaxError"),
            (["run", str(pinned), "--abstracts", "1"], "PlanAnalysisError"),
            (["run", str(tmp_path / "missing.latin")], "FileNotFoundError"),
            (["trace", str(unseeded)], "FileNotFound"),
        ]:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kind}: ")
            assert err.count("\n") == 1
        assert "--pagelinks" in err

    def test_lint_parses_and_reports(self, tmp_path, capsys):
        from repro.__main__ import main
        script = tmp_path / "clean.py"
        script.write_text(
            "from repro import RheemContext\n"
            "ctx = RheemContext()\n"
            "ctx.load_collection([1, 2, 3]).map(lambda x: x + 1).collect()\n")
        assert main(["lint", str(script)]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestSerdeKindCoverage:
    def test_full_kind_matrix(self):
        ctx = RheemContext()
        ctx.pgres.create_table("kv", ["k", "v"],
                               [{"k": i % 3, "v": i} for i in range(12)])
        doc = {
            "operators": [
                {"name": "rows", "kind": "table_source", "table": "kv"},
                {"name": "vals", "kind": "map", "input": "rows",
                 "expr": "(x['k'], x['v'])"},
                {"name": "big", "kind": "filter", "input": "vals",
                 "expr": "x[1] >= 2"},
                {"name": "agg", "kind": "reduceby", "input": "big",
                 "key": "x[0]", "reducer": "(a[0], a[1] + b[1])",
                 "sim_groups": 3},
                {"name": "ordered", "kind": "sort", "input": "agg",
                 "key": "-x[1]"},
            ],
            "sink": {"name": "ordered"},
        }
        out = build_quanta(ctx, doc).collect()
        expected = {}
        for i in range(12):
            if i >= 2:
                expected[i % 3] = expected.get(i % 3, 0) + i
        assert dict(out) == expected
        assert [v for __, v in out] == sorted(expected.values(),
                                              reverse=True)

    def test_sample_groupby_cache_pagerank_kinds(self):
        ctx = RheemContext()
        doc = {
            "operators": [
                {"name": "edges", "kind": "collection_source",
                 "data": [[0, 1], [1, 0], [1, 2]]},
                {"name": "tupled", "kind": "map", "input": "edges",
                 "expr": "(x[0], x[1])"},
                {"name": "cached", "kind": "cache", "input": "tupled"},
                {"name": "ranks", "kind": "pagerank", "input": "cached",
                 "iterations": 5},
                {"name": "few", "kind": "sample", "input": "ranks",
                 "size": 2, "method": "first"},
                {"name": "n", "kind": "count", "input": "few"},
            ],
            "sink": {"name": "n"},
        }
        assert build_quanta(ctx, doc).collect() == [2]

    def test_env_collection_and_union(self):
        ctx = RheemContext()
        doc = {
            "operators": [
                {"name": "a", "kind": "collection_source", "env": "xs"},
                {"name": "b", "kind": "collection_source", "data": [9]},
                {"name": "u", "kind": "union", "left": "a", "right": "b"},
                {"name": "d", "kind": "distinct", "input": "u"},
            ],
            "sink": {"name": "d"},
        }
        out = build_quanta(ctx, doc, env={"xs": [1, 1, 2]}).collect()
        assert sorted(out) == [1, 2, 9]
