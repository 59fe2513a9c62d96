"""The static plan analyzer: typeflow, UDF introspection, lint rules,
structural validation and the surfaces that expose diagnostics (optimizer,
CLI, REST, studio)."""

import random

import pytest

from repro import RheemContext
from repro.analysis import (
    Severity,
    all_rules,
    analyze_plan,
    introspect_udf,
)
from repro.analysis.collector import collecting
from repro.analysis.typeflow import (
    ANY,
    NUMBER,
    TEXT,
    QType,
    compatible,
    list_of,
    pair_of,
)
from repro.core import operators as ops
from repro.core.optimizer import OptimizationError, PlanAnalysisError
from repro.core.plan import PlanValidationError, RheemPlan, topological_order
from repro.core.udf import Udf


@pytest.fixture
def ctx():
    return RheemContext()


# ---------------------------------------------------------------- typeflow
class TestTypeflow:
    def test_compatibility_lattice(self):
        assert compatible(ANY, NUMBER)
        assert compatible(NUMBER, ANY)
        assert compatible(pair_of(TEXT, NUMBER), pair_of(TEXT, NUMBER))
        assert not compatible(TEXT, NUMBER)
        assert not compatible(pair_of(TEXT, NUMBER), pair_of(NUMBER, TEXT))
        # unparameterized tuple matches any arity
        assert compatible(QType("tuple"), pair_of(TEXT, NUMBER))
        assert compatible(list_of(NUMBER), list_of(ANY))

    def test_annotated_udf_chain_is_typed(self, ctx):
        def parse(line: str) -> float:
            return float(line)

        plan = ctx.read_text_file("hdfs://x.txt").map(parse).to_plan()
        report = analyze_plan(plan)
        assert report.ok

    def test_type_mismatch_is_an_error(self, ctx):
        def shout(s: str) -> str:
            return s.upper()

        plan = ctx.load_collection([1, 2, 3]).map(shout).to_plan()
        report = analyze_plan(plan)
        assert "RP002" in report.rule_ids()
        assert not report.ok

    def test_untyped_lambdas_never_error(self, ctx):
        plan = (ctx.load_collection([1, 2, 3])
                .map(lambda x: str(x)).filter(lambda s: s).to_plan())
        assert analyze_plan(plan).ok


# ------------------------------------------------------- udf introspection
class TestUdfIntrospection:
    def test_pure_udf_is_clean(self):
        report = introspect_udf(lambda x: x * 2)
        assert report.clean

    def test_nondeterminism_is_detected(self):
        report = introspect_udf(lambda x: x + random.random())
        assert "random" in report.nondeterministic_calls

    def test_mutable_closure_capture_is_detected(self):
        seen = []

        def track(x):
            seen.append(x)
            return x

        report = introspect_udf(track)
        assert report.mutable_captures

    def test_a_bound_method_is_scanned_through_its_function(self):
        class Jitter:
            def apply(self, x):
                return x + random.random()

        report = introspect_udf(Jitter().apply)
        assert report.nondeterministic_calls == ["random"]

    def test_global_write_is_detected(self):
        src = "def bump(x):\n    global counter\n    counter = x\n    return x"
        env = {}
        exec(src, env)
        report = introspect_udf(env["bump"])
        assert "counter" in report.global_writes

    def test_impure_udf_decays_confidence(self, ctx):
        plan = (ctx.load_collection(list(range(10)))
                .map(lambda x: x * random.random()).to_plan())
        report = analyze_plan(plan, ctx)
        assert report.confidence_penalties
        optimizer = ctx.optimizer()
        best, cards = optimizer.pick_best(plan)
        map_op = next(op for op in plan.operators() if op.name == "map")
        clean_ctx = RheemContext()
        clean = (clean_ctx.load_collection(list(range(10)))
                 .map(lambda x: x * 2.0).to_plan())
        __, clean_cards = clean_ctx.optimizer().pick_best(clean)
        clean_map = next(op for op in clean.operators() if op.name == "map")
        assert (cards[map_op.id].confidence
                < clean_cards[clean_map.id].confidence)


# ---------------------------------------------------------------- rules
class TestRules:
    def test_registry_is_severity_tiered(self):
        rules = all_rules()
        ids = {r.rule_id for r in rules}
        assert {"RP001", "RP003", "RP005", "RP011"} <= ids
        assert len(ids) >= 10
        assert any(r.severity == Severity.ERROR for r in rules)
        assert any(r.severity == Severity.WARNING for r in rules)
        assert any(r.severity == Severity.INFO for r in rules)

    def test_dead_operator(self, ctx):
        dq = ctx.load_collection([1, 2, 3])
        dq.map(lambda x: -x)  # dangling branch
        plan = dq.map(lambda x: x + 1).to_plan()
        report = analyze_plan(plan)
        assert "RP001" in report.rule_ids()

    def test_cartesian_without_restriction(self, ctx):
        left = ctx.load_collection([1, 2])
        right = ctx.load_collection([3, 4])
        plan = left.cartesian(right).to_plan()
        assert "RP003" in analyze_plan(plan).rule_ids()

    def test_filtered_cartesian_is_quiet(self, ctx):
        left = ctx.load_collection([1, 2])
        right = ctx.load_collection([3, 4])
        plan = (left.cartesian(right)
                .filter(lambda t: t[0] < t[1]).to_plan())
        assert "RP003" not in analyze_plan(plan).rule_ids()

    def test_uncached_loop_invariant(self, ctx):
        inv = ctx.load_collection(list(range(5))).map(lambda x: x * 2)
        dq = ctx.load_collection([1.0]).repeat(
            3, lambda v, i: v.map(lambda x: x + 1), invariants=[inv])
        report = analyze_plan(dq.to_plan())
        assert "RP004" in report.rule_ids()

    def test_cached_loop_invariant_is_quiet(self, ctx):
        inv = ctx.load_collection(list(range(5))).map(lambda x: x * 2).cache()
        dq = ctx.load_collection([1.0]).repeat(
            3, lambda v, i: v.map(lambda x: x + 1), invariants=[inv])
        report = analyze_plan(dq.to_plan())
        assert "RP004" not in report.rule_ids()

    def test_platform_capability_mismatch(self, ctx):
        dq = ctx.load_collection([(1, 2)]).pagerank(iterations=2)
        dq.op.with_target_platform("pgres")  # pgres cannot run pagerank
        plan = dq.to_plan()
        report = analyze_plan(plan, ctx)
        assert "RP005" in report.rule_ids()
        with pytest.raises(PlanAnalysisError):
            ctx.optimizer().pick_best(plan)

    def test_duplicate_source_scan(self, ctx):
        a = ctx.read_text_file("hdfs://data/x.txt")
        b = ctx.read_text_file("hdfs://data/x.txt")
        plan = a.union(b).to_plan()
        assert "RP007" in analyze_plan(plan).rule_ids()

    def test_nondeterministic_udf(self, ctx):
        plan = (ctx.load_collection([1, 2])
                .map(lambda x: x * random.random()).to_plan())
        assert "RP009" in analyze_plan(plan).rule_ids()

    def test_missing_selectivity_hint_and_udf_fix(self, ctx):
        noisy = ctx.load_collection([1, 2]).filter(lambda x: x > 1).to_plan()
        assert "RP011" in analyze_plan(noisy).rule_ids()
        quiet = (ctx.load_collection([1, 2])
                 .filter(Udf(lambda x: x > 1, selectivity=0.5)).to_plan())
        assert "RP011" not in analyze_plan(quiet).rule_ids()

    def test_union_type_divergence(self, ctx):
        nums = ctx.load_collection([1, 2, 3])
        texts = ctx.load_collection(["a", "b"])
        plan = nums.union(texts).to_plan()
        assert "RP012" in analyze_plan(plan).rule_ids()

    def test_unused_loop_input(self, ctx):
        inv = ctx.load_collection([9]).cache()
        dq = ctx.load_collection([1.0]).repeat(
            2, lambda v, i: v.map(lambda x: x + 1),  # ignores the invariant
            invariants=[inv])
        assert "RP013" in analyze_plan(dq.to_plan()).rule_ids()

    def test_unstable_global_is_named(self, ctx):
        namespace = {"rng": random.Random(7)}
        exec("def jitter(x):\n    return x + rng.random()", namespace)
        plan = ctx.load_collection([1, 2]).map(namespace["jitter"]).to_plan()
        [found] = [d for d in analyze_plan(plan).diagnostics
                   if d.rule_id == "RP014"]
        assert found.message.startswith(
            "attribute 'udf' reads global 'rng' (Random);")

    def test_suppression_is_per_operator(self, ctx):
        left = ctx.load_collection([1, 2])
        right = ctx.load_collection([3, 4])
        cart = left.cartesian(right)
        cart.op.suppress_lint("RP003")
        assert "RP003" not in analyze_plan(cart.to_plan()).rule_ids()


# ---------------------------------------------------- structural validation
class TestValidation:
    def test_validate_collects_all_violations(self):
        broken_a = ops.Map(Udf(lambda x: x))          # input 0 unwired
        sink_a = ops.CollectionSink()
        sink_a.connect(0, broken_a)
        broken_b = ops.Filter(Udf(lambda x: x))       # input 0 unwired
        sink_b = ops.CollectionSink()
        sink_b.connect(0, broken_b)
        with pytest.raises(PlanValidationError) as err:
            RheemPlan([sink_a, sink_b])
        diags = err.value.diagnostics
        # both unwired inputs AND the missing source, in one raise
        assert len(diags) >= 3
        assert {d.rule_id for d in diags} == {"RP100", "RP103"}
        assert all(d.severity == Severity.ERROR for d in diags)

    def test_cycle_detection_via_side_input(self, ctx):
        dq = ctx.load_collection([1]).map(lambda x: x)
        plan = dq.map(lambda x: x).to_plan()
        topo = plan.operators()
        # wire a feedback edge after construction: analysis must re-traverse
        topo[1].broadcast(topo[2])
        report = analyze_plan(plan)
        assert "RP102" in report.rule_ids()
        assert not report.ok

    def test_topological_order_handles_5000_operators(self, ctx):
        dq = ctx.load_collection([1])
        for __ in range(5000):
            dq = dq.map(lambda x: x)
        plan = dq.to_plan()  # would overflow a recursive traversal
        ordered = topological_order(plan.sinks)
        assert len(ordered) == 5002  # source + 5000 maps + sink
        assert analyze_plan(plan).ok


# ------------------------------------------------------------- optimizer
class TestOptimizerIntegration:
    def test_errors_abort_before_enumeration(self, ctx):
        def shout(s: str) -> str:
            return s.upper()

        plan = ctx.load_collection([1, 2]).map(shout).to_plan()
        with pytest.raises(PlanAnalysisError) as err:
            ctx.optimizer().pick_best(plan)
        assert isinstance(err.value, OptimizationError)
        assert "RP002" in {d.rule_id for d in err.value.report.errors}

    def test_warnings_annotate_but_do_not_abort(self, ctx):
        dq = ctx.load_collection([1, 2]).map(lambda x: x * random.random())
        result = dq.execute()
        assert "RP009" in {d.rule_id for d in result.diagnostics}

    def test_analysis_can_be_disabled(self, ctx):
        def shout(s: str) -> str:
            return s.upper()

        plan = ctx.load_collection([1, 2]).map(shout).to_plan()
        optimizer = ctx.optimizer()
        optimizer.analysis = False
        best, __ = optimizer.pick_best(plan)  # no PlanAnalysisError
        assert best is not None


# ----------------------------------------------------------- surfaces
class TestSurfaces:
    def test_rest_response_carries_diagnostics(self):
        from repro.api import RheemService

        service = RheemService()
        doc = {
            "operators": [
                {"name": "nums", "kind": "collection_source",
                 "data": [1, 2, 3]},
                {"name": "kept", "kind": "filter", "input": "nums",
                 "expr": "x > 1"},
            ],
            "sink": {"name": "kept"},
        }
        response = service.submit(doc)
        assert response["status"] == "ok"
        rules = {d["rule"] for d in response["diagnostics"]}
        assert "RP011" in rules  # filter without selectivity hint

    def test_studio_colors_flagged_nodes(self, ctx):
        from repro.studio import plan_to_dot, render_diagnostics

        plan = (ctx.load_collection([1, 2])
                .map(lambda x: x * random.random()).to_plan())
        analyze_plan(plan)
        dot = plan_to_dot(plan)
        assert "fillcolor" in dot and "RP009" in dot
        assert "RP009" in render_diagnostics(plan)

    def test_collector_catches_unoptimized_plans(self, ctx):
        with collecting() as collector:
            ctx.load_collection([1, 2]).filter(lambda x: x).to_plan()
            reports = collector.finalize()
        assert len(reports) == 1
        __, report = reports[0]
        assert "RP011" in report.rule_ids()


# ----------------------------------------------------------------- CLI
class TestCliLint:
    def _lint(self, tmp_path, source, name="script.py"):
        from repro.__main__ import main

        script = tmp_path / name
        script.write_text(source)
        return main(["lint", str(script)])

    def test_no_subcommand_exits_2(self, capsys):
        from repro.__main__ import main

        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_run_parses_seed_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "wc.latin"
        script.write_text("""
            lines = load 'hdfs://data/abstracts.txt';
            n = count lines;
            dump n;
        """)
        assert main(["run", str(script), "--abstracts", "1"]) == 0
        assert "n:" in capsys.readouterr().out

    def test_serve_parser_rejects_bad_port(self):
        from repro.__main__ import main

        # bad port type must be an argparse error (exit 2), not a crash
        with pytest.raises(SystemExit) as err:
            main(["serve", "--port", "not-a-number"])
        assert err.value.code == 2

    def test_lint_clean_script_exits_0(self, tmp_path, capsys):
        code = self._lint(tmp_path, """
from repro import RheemContext

ctx = RheemContext()
out = ctx.load_collection([1, 2, 3]).map(lambda x: x + 1).collect()
""")
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_bad_plan_reports_both_rules_and_fails(self, tmp_path,
                                                        capsys):
        code = self._lint(tmp_path, """
from repro import RheemContext

ctx = RheemContext()
dq = ctx.load_collection([1, 2, 3])
dq.map(lambda x: -x)  # dead branch

def as_num(x: str) -> float:
    return float(x)

dq.map(as_num).collect()
""")
        out = capsys.readouterr().out
        assert code == 1
        assert "RP002" in out and "RP001" in out
        assert "<#" in out  # operator locations

    def test_lint_latin_script(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "wc.latin"
        script.write_text("""
            lines = load 'hdfs://data/abstracts.txt';
            words = flatmap lines -> { x.split() };
            n = count words;
            dump n;
        """)
        assert main(["lint", str(script), "--abstracts", "1"]) == 0
        assert "plan" in capsys.readouterr().out
