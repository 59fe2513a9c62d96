"""The harness's own tests: ``pytest perfbench/tests`` (not part of tier-1).

They hold the benchmark to its contract — every named metric present
with its unit, seeds reproducible, wrong outputs counted as failures,
span self times adding up — on the ``--quick`` sizing.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import compare, harness, layers, reference  # noqa: E402
from perfbench.recorder import Node  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    QUICK, SESSIONS, WORKLOADS, ServeThread, check_reply, cold_kinds,
    run_round)

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _results(directory: Path, suffix: str) -> dict[str, dict]:
    out = {}
    for name in WORKLOADS:
        with open(directory / (name + suffix), encoding="utf-8") as handle:
            out[name] = json.load(handle)
    return out


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> tuple[dict[str, dict], float]:
    out = tmp_path_factory.mktemp("quick")
    started = time.perf_counter()
    subprocess.run([*RUN, "--quick", "--out", str(out)], check=True,
                   capture_output=True, timeout=170)
    return _results(out, ".json"), time.perf_counter() - started


@pytest.fixture(scope="module")
def quick_traced(tmp_path_factory) -> tuple[dict[str, dict], Path]:
    out = tmp_path_factory.mktemp("quick-traced")
    subprocess.run([*RUN, "--quick", "--traced", "--out", str(out)],
                   check=True, capture_output=True, timeout=170)
    return _results(out, ".traced.json"), out


# ------------------------------------------------------------ the contract
def test_benchmark_json_names_the_metrics_the_code_emits():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_quick_run_is_quick_and_reports_every_end_to_end_metric(quick):
    results, seconds = quick
    assert seconds < 30
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    for name, result in results.items():
        assert result["failed"] == 0 and result["correct"], name
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for metric in result["metrics"].values():
            assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_traced_run_reports_every_per_layer_metric(quick_traced):
    results, __ = quick_traced
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for name, result in results.items():
        assert result["failed"] == 0, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(math.isfinite(v) for v in values.values())
        # 0 stands for "this layer is not on this workload's path":
        # the shard pipe exists on the process backend only.
        assert (values["server.pipe_ms"] > 0) == (name == "serve_process")
        assert (values["api.build_ms"] > 0) == name.startswith("serve")
        assert values["core.optimizer.optimize_ms"] > 0
        assert values["host.ref_loop_ms"] > 0


def test_serving_backends_agree_on_simulated_runtime(quick):
    results, __ = quick
    thread, process = (results[n]["metrics"]["sim_runtime_s"]["value"]
                       for n in ("serve_thread", "serve_process"))
    assert thread == process


# ------------------------------------------------------------------- seeds
@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_job_list_other_seed_other_list(name):
    def digest(seed: int) -> str:
        session = SESSIONS[name](seed, QUICK, None)
        session.generate()
        return session.job_list_digest()

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


# ------------------------------------------------------------------ checks
def test_corrupted_outputs_fail_their_checks():
    q5, wide, __, __, wordcount, __ = cold_kinds(QUICK)
    for kind in (q5, wide, wordcount):
        kind.generate(3)
    good = list(q5.expected)
    assert q5.check(good)
    assert q5.check([(n, r * (1 + 1e-12)) for n, r in good])
    assert not q5.check([(n, r * (1 + 1e-6)) for n, r in good])
    assert not q5.check(good[:-1])
    counts = list(wordcount.expected)
    assert wordcount.check(list(reversed(counts)))
    assert not wordcount.check([(counts[0][0], counts[0][1] + 1),
                                *counts[1:]])
    merged = sorted({x + i for i, branch in enumerate(wide.branches)
                     for x in branch if (x + i) % 3 != 0})
    assert wide.check(list(reversed(merged)))
    assert not wide.check(merged[1:])


def test_digest_rounds_floats_to_nine_significant_digits():
    assert reference.digest([1.0000000001]) == reference.digest([1.0])
    assert reference.digest([1.00000001]) != reference.digest([1.0])


def test_a_bad_document_must_be_refused_with_a_structured_400():
    refused = {"status": "error", "kind": "PlanDocumentError", "error": "x"}
    assert check_reply(False, None, False, 400, refused)
    assert not check_reply(False, None, False, 200,
                           {"status": "ok", "output": []})
    assert not check_reply(False, None, False, 500, refused)
    assert not check_reply(False, None, False, 400,
                           {"status": "error", "error": "no kind"})
    assert not check_reply(False, None, False, 400, None)


def test_wrong_replies_raise_the_failed_count():
    """A server that answers 200 with an empty output to everything gets
    every job counted as failed: the good ones for their output, the bad
    documents for not having been refused."""
    session = ServeThread(1, QUICK, None)
    session.generate()

    def always_ok(environ, start_response):
        start_response("200 OK", [("Content-Type", "application/json")])
        return [b'{"status": "ok", "output": [], "runtime": 1.0}']

    session.app = always_ok
    samples, __, __ = run_round(session, session.job_list(0))
    assert {s.kind for s in samples} == {"hot", "fresh", "bad"}
    assert not any(s.ok for s in samples)
    assert all(s.sim_s == 0.0 for s in samples)


# ------------------------------------------------------------------- spans
def _trees(path: Path) -> list[Node]:
    """Rebuild the job trees from a spans file."""
    nodes: dict[int, Node] = {}
    roots = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            node = Node(record["name"], record["start"], record["end"],
                        record)
            nodes[record["id"]] = node
            if record["parent"] is None:
                roots.append(node)
            else:
                nodes[record["parent"]].children.append(node)
    return roots


@pytest.mark.parametrize("name", ["cold_optimize", "warm_execute"])
def test_span_self_times_add_up_to_the_wall(quick_traced, name):
    results, out = quick_traced
    trees = _trees(out / f"{name}.spans.jsonl")
    assert trees and all(t.name == "client.job" for t in trees)
    for tree in trees:
        # Wrapper spans and the program's own spans, in one tree.
        assert {"core.optimizer.optimize", "core.plancache.key",
                "core.executor.execute", "executor.run"} \
            <= {node.name for node in tree.walk()}
        shares = layers.self_times(tree)
        assert sum(shares.values()) == pytest.approx(tree.dur, rel=1e-9)
        # What no named layer accounts for is the client span's own time.
        assert shares.get("client", 0.0) + shares.get("other", 0.0) \
            < 0.05 * tree.dur
    unattributed = results[name]["metrics"]["trace.unattributed_share"]
    assert unattributed["value"] < 0.05


def test_overlapping_children_share_their_parent():
    root = Node("client.job", 0.0, 10.0)
    run = Node("executor.run", 1.0, 9.0)
    root.children.append(run)
    for platform in ("pystreams", "flinklite"):     # two lanes, 6 s each
        run.children.append(Node("stage:s", 2.0, 8.0,
                                 {"platform": platform}))
    shares = layers.self_times(root)
    assert shares == pytest.approx({"client": 2.0, "platforms.pystreams": 4.0,
                                    "platforms.flinklite": 4.0})


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert layers.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert layers.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)
    assert layers.tail([float(i) for i in range(12)]) == (50.0, 5.5)


# ----------------------------------------------------------------- compare
def _fake_run(directory: Path, value: float, failed: int = 0) -> str:
    directory.mkdir()
    result = {"workload": "cold_optimize", "trace": 0, "attempted": 10,
              "failed": failed, "correct": not failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, unit, *__ in layers.END_TO_END},
              "detail": {"host_ref_loop_ms": 50.0, "job_list_digest": "d"}}
    with open(directory / "cold_optimize.json", "w") as handle:
        json.dump(result, handle)
    return str(directory)


def test_compare_verdicts(tmp_path, capsys):
    steady = [_fake_run(tmp_path / f"a{i}", v)
              for i, v in enumerate((100.0, 101.0, 99.0))]
    same = [_fake_run(tmp_path / f"b{i}", v)
            for i, v in enumerate((100.5, 99.5, 101.5))]
    slower = [_fake_run(tmp_path / f"c{i}", v)
              for i, v in enumerate((130.0, 131.0, 129.0))]
    noisy = [_fake_run(tmp_path / f"d{i}", v)
             for i, v in enumerate((70.0, 100.0, 140.0))]
    failing = [_fake_run(tmp_path / f"e{i}", 100.0, failed=1)
               for i in range(3)]
    assert compare.compare(steady, same) == 0
    assert "regressed" not in capsys.readouterr().out
    # 30 % more of everything: worse where lower is better, better where
    # higher is.
    assert compare.compare(steady, slower) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "improved" in out
    assert compare.compare(steady, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.compare(steady, failing) == 1

    assert compare.verdict([100.0] * 3, [104.0] * 3, "lower", 0.10) \
        == ("unchanged", pytest.approx(0.04))
    assert compare.verdict([100.0] * 3, [96.0] * 3, "higher", 0.10)[0] \
        == "unchanged"
    assert compare.verdict([100.0] * 3, [80.0] * 3, "higher", 0.10)[0] \
        == "regressed"


# ------------------------------------------------------------- noise guard
def test_noise_guard_spread_and_reference_loop():
    assert harness.spread([10.0]) == 0.0
    assert harness.spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert harness.spread([8.0, 10.0, 10.0, 14.0]) \
        > harness.NOISE_WARNING_SPREAD
    assert harness.ref_loop_ms() > 0
