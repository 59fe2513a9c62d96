"""Tests for the RheemLatin language: lexer, parser, interpreter."""

import pytest

from repro import RheemContext
from repro.latin import (
    Assign,
    Dump,
    Interpreter,
    LatinSyntaxError,
    Store,
    parse,
    resolve_platform,
    run_script,
    tokenize,
)


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("x = map y -> { a + 1 };")
        assert [t.kind for t in tokens] == \
            ["ident", "=", "ident", "ident", "->", "expr", ";"]

    def test_strings_and_numbers(self):
        tokens = tokenize("lines = load 'hdfs://f'; s = sample lines 10;")
        assert tokens[3].kind == "string" and tokens[3].value == "hdfs://f"
        assert tokens[9].kind == "number"

    def test_comments_skipped(self):
        tokens = tokenize("-- a comment\nx = distinct y;")
        assert tokens[0].value == "x"

    def test_nested_braces_captured(self):
        tokens = tokenize("x = map y -> { {'k': v for v in [1]} };")
        assert "{'k': v for v in [1]}" in tokens[5].value

    def test_unterminated_string(self):
        with pytest.raises(LatinSyntaxError):
            tokenize("x = load 'oops;")

    def test_unterminated_brace(self):
        with pytest.raises(LatinSyntaxError):
            tokenize("x = map y -> { broken;")

    def test_stray_character(self):
        with pytest.raises(LatinSyntaxError):
            tokenize("x = y @ z;")


class TestParser:
    def test_statement_kinds(self):
        statements = parse("""
            lines = load 'hdfs://f';
            words = flatmap lines -> { x.split() };
            store words 'hdfs://out';
            dump words;
        """)
        assert isinstance(statements[0], Assign)
        assert isinstance(statements[2], Store)
        assert isinstance(statements[3], Dump)

    def test_join_parses_both_sides(self):
        (stmt,) = parse("j = join a by { x[0] }, b by { x[1] };")
        assert stmt.op.sources == ["a", "b"]
        assert len(stmt.op.codes) == 2

    def test_with_clauses(self):
        (stmt,) = parse(
            "m = map d -> { x } with broadcast w with platform 'Spark';")
        assert stmt.op.broadcasts == ["w"]
        assert stmt.op.platform == "Spark"

    def test_repeat_body_is_raw(self):
        (stmt,) = parse("w = repeat 5 { w = map w -> { x }; };")
        assert stmt.op.options["iterations"] == 5
        assert "map w" in stmt.op.codes[0]

    def test_missing_semicolon(self):
        with pytest.raises(LatinSyntaxError):
            parse("x = distinct y")

    def test_unknown_with_clause(self):
        with pytest.raises(LatinSyntaxError):
            parse("x = distinct y with sprinkles z;")


class TestInterpreter:
    def test_wordcount_script(self):
        ctx = RheemContext()
        ctx.vfs.write("hdfs://f", ["a b a"], sim_factor=1.0)
        results = run_script("""
            lines = load 'hdfs://f';
            words = flatmap lines -> { x.split() };
            pairs = map words -> { (x, 1) };
            counts = reduceby pairs by { x[0] } with { (a[0], a[1]+b[1]) };
            dump counts;
        """, ctx)
        assert sorted(results["counts"]) == [("a", 2), ("b", 1)]

    def test_env_names_visible_in_expressions(self):
        ctx = RheemContext()
        results = run_script("""
            data = load collection nums;
            out = map data -> { double(x) };
            dump out;
        """, ctx, env={"nums": [1, 2], "double": lambda v: v * 2})
        assert results["out"] == [2, 4]

    def test_platform_pinning_via_alias(self):
        ctx = RheemContext()
        ctx.vfs.write("hdfs://f", ["a"] * 5, sim_factor=1.0)
        interp = Interpreter(ctx)
        interp.run("""
            lines = load 'hdfs://f';
            upper = map lines -> { x.upper() } with platform 'Spark';
            dump upper;
        """)
        assert interp.results["upper"] == ["A"] * 5

    def test_store_writes_vfs(self):
        ctx = RheemContext()
        run_script("""
            d = load collection nums;
            store d 'hdfs://out/x';
        """, ctx, env={"nums": [7]})
        assert ctx.vfs.read("hdfs://out/x").records == ["7"]

    def test_unknown_dataset_reported(self):
        with pytest.raises(LatinSyntaxError):
            run_script("x = distinct ghost;", RheemContext())

    def test_unknown_keyword_reported(self):
        with pytest.raises(LatinSyntaxError):
            run_script("x = frobnicate y;", RheemContext())

    @pytest.mark.parametrize("block", ["x), 0 and (x", "x), boom(), (x"])
    def test_code_block_cannot_escape_its_lambda(self, block):
        ran = []
        with pytest.raises(LatinSyntaxError, match="line 3:"):
            run_script(f"""
                d = load collection nums;
                m = map d -> {{ {block} }};
                dump m;
            """, RheemContext(),
                env={"nums": [1], "boom": lambda: ran.append(1)})
        assert not ran

    def test_keyword_extension(self):
        ctx = RheemContext()
        interp = Interpreter(ctx, env={"nums": [3, 1, 2]})

        def head(interpreter, op, line):
            src = interpreter.datasets[op.sources[0]]
            return src.sort().sample(size=int(op.options["args"][0]),
                                     method="first")

        interp.register_keyword("head", head)
        interp.run("""
            d = load collection nums;
            top = head d 2;
            dump top;
        """)
        assert interp.results["top"] == [1, 2]

    def test_repeat_with_invariant_and_broadcast(self):
        ctx = RheemContext()
        results = run_script("""
            data = load collection nums;
            base = cache data;
            w = load collection w0;
            w = repeat 3 {
              s = sample base 2 method 'first' with broadcast w;
              t = map s -> { x + bc[0][0] } with broadcast w;
              w = reduce t -> { a + b };
            };
            dump w;
        """, ctx, env={"nums": [1, 1], "w0": [0]})
        # iter1: w=2, iter2: 1+2 twice -> 6, iter3: 1+6 twice -> 14
        assert results["w"] == [14]

    def test_repeat_requires_single_loop_var(self):
        ctx = RheemContext()
        with pytest.raises(LatinSyntaxError):
            run_script("""
                a = load collection nums;
                b = repeat 2 { c = map a -> { x }; };
            """, ctx, env={"nums": [1]})


class TestPlatformAliases:
    def test_paper_names_resolve(self):
        assert resolve_platform("JavaStreams") == "pystreams"
        assert resolve_platform("Spark") == "sparklite"
        assert resolve_platform("Postgres") == "pgres"
        assert resolve_platform("Giraph") == "graphlite"

    def test_unknown_name_passes_through(self):
        assert resolve_platform("sparklite") == "sparklite"


class TestMoreStatements:
    def test_join_union_intersect(self):
        ctx = RheemContext()
        results = run_script("""
            a = load collection left;
            b = load collection right;
            j = join a by { x[0] }, b by { x[0] };
            u = union a, b;
            i = intersect a, b;
            dump j;
            dump u;
            dump i;
        """, ctx, env={"left": [(1, "l"), (2, "l")],
                       "right": [(2, "r"), (3, "r")]})
        assert results["j"] == [((2, "l"), (2, "r"))]
        assert sorted(results["u"]) == [(1, "l"), (2, "l"), (2, "r"), (3, "r")]
        assert results["i"] == []

    def test_group_sort_count(self):
        ctx = RheemContext()
        results = run_script("""
            nums = load collection values;
            g = group nums by { x % 2 };
            s = sort nums by { -x };
            n = count nums;
            dump g;
            dump s;
            dump n;
        """, ctx, env={"values": [3, 1, 2, 4]})
        groups = {k: sorted(v) for k, v in results["g"]}
        assert groups == {0: [2, 4], 1: [1, 3]}
        assert results["s"] == [4, 3, 2, 1]
        assert results["n"] == [4]

    def test_pagerank_statement(self):
        ctx = RheemContext()
        results = run_script("""
            edges = load collection links;
            ranks = pagerank edges iterations 5;
            dump ranks;
        """, ctx, env={"links": [(0, 1), (1, 0), (1, 2)]})
        assert {v for v, __ in results["ranks"]} == {0, 1, 2}

    def test_load_table_statement(self):
        ctx = RheemContext()
        ctx.pgres.create_table("users", ["name"], [{"name": "ada"}])
        results = run_script("""
            u = load table 'users';
            names = map u -> { x['name'] };
            dump names;
        """, ctx)
        assert results["names"] == ["ada"]
