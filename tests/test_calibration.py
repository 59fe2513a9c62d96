"""The online calibration loop (trace → cost model) and its bugfix sweep.

Covers the :mod:`repro.learn.calibration` pieces (bounded corpus, drift
tracking, refit triggers), the cost-pipeline bugfixes that ride along
(no-op cost publications, strict ``params_from_json`` validation,
calibration hygiene for sniffed/fault-injected runs), the end-to-end
self-tuning path on both job-server backends, and the beam-search
enumeration fallback for very wide plans.
"""

import json
import math
import threading
import time
from pathlib import Path

import pytest
from conftest import wordcount

from repro import RheemContext
from repro.api import RheemService
from repro.core.cost import OperatorCostParams
from repro.core.executor import Sniffer
from repro.core.faults import FaultInjector
from repro.core.monitor import OperatorObservation, StageObservation
from repro.learn import (
    CalibrationCorpus,
    CostCalibrator,
    observation_from_json,
    observation_to_json,
    params_from_json,
    predict_stage,
)
from repro.server import JobServer, make_wsgi_app
from repro.simulation import VirtualCluster
from repro.trace import MetricsRegistry

CORPUS_PATH = "hdfs://cal/corpus.txt"

#: The optimizer's belief that pystreams is free — the mis-costing the
#: calibration loop must discover and repair from committed traces.
MISCOSTED = {f"pystreams.{kind}": OperatorCostParams(0.0, 0.0, 0.0)
             for kind in ("source", "flatmap", "map", "reduceby", "sink")}

WORDCOUNT_DOC = {
    "operators": [
        {"name": "lines", "kind": "textfile_source", "path": CORPUS_PATH},
        {"name": "words", "kind": "flatmap", "input": "lines",
         "expr": "x.split()"},
        {"name": "pairs", "kind": "map", "input": "words",
         "expr": "(x, 1)"},
        {"name": "counts", "kind": "reduceby", "input": "pairs",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"},
    ],
    "sink": {"name": "counts"},
}


def _miscosted_ctx():
    """A context whose optimizer wrongly believes pystreams is free.

    Module-level and argument-free on purpose: the process-backend job
    server pickles it into worker shards as the context factory.  The
    workload is large enough (7.5M simulated source records) that the
    truth strongly prefers a distributed platform; result reuse is off so
    identical resubmissions re-execute and keep producing observations.
    """
    ctx = RheemContext(cost_params=dict(MISCOSTED),
                       config={"result_reuse": False})
    ctx.vfs.write(CORPUS_PATH, ["a b c d"] * 500, sim_factor=15_000.0)
    return ctx


def _obs(stage_id="s1", platform="pystreams", duration=2.0, known=0.0,
         ops=(("map", 1e6, 1e6),)):
    return StageObservation(
        stage_id, platform, duration, known,
        [OperatorObservation(platform, kind, 1.0, cin, cout)
         for kind, cin, cout in ops])


def _wait_for_refit(server, minimum=1, timeout=30.0):
    """Refits run on worker threads after the response is published."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.snapshot()["calibration"]["refits"] >= minimum:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"no refit after {timeout}s: {server.snapshot()['calibration']}")


# =========================================================== wire format
class TestObservationWire:
    def test_roundtrip(self):
        obs = _obs(duration=3.5, known=0.25,
                   ops=(("map", 10.0, 20.0), ("filter", 20.0, 5.0)))
        doc = observation_to_json(obs)
        json.dumps(doc)  # must be JSON-able as-is (shard pipe payload)
        back = observation_from_json(doc)
        assert back == obs

    def test_a_parent_written_vectorize_tag_is_ignored(self, capsys, tmp_path):
        # Two wordcount stages logged by the parent commit, one per value
        # of the ``vectorize`` tag it still wrote.
        path = Path(__file__).parent / "fixtures" / \
            "calibration_corpus_parent.json"
        docs = json.loads(path.read_text())
        assert sorted(doc["vectorize"] for doc in docs) == [False, True]
        loaded = [observation_from_json(doc) for doc in docs]
        assert all(not hasattr(obs, "vectorize") for obs in loaded)
        assert "vectorize" not in observation_to_json(loaded[0])
        # Same stage, same charges on both of the parent's planes: one
        # bucket, both samples kept, and the offline learner reads the file.
        assert loaded[0] == loaded[1]
        corpus = CalibrationCorpus()
        assert all(corpus.add(obs) for obs in loaded)
        assert (corpus.bucket_count, len(corpus.samples())) == (1, 2)
        from repro.__main__ import main
        assert main(["learn", "--observations", str(path),
                     "--out", str(tmp_path / "params.json"),
                     "--generations", "2", "--population", "4"]) == 0
        assert "loaded 2 stage observations" in capsys.readouterr().out


# ================================================================ corpus
class TestCalibrationCorpus:
    def test_bounded_per_bucket(self):
        corpus = CalibrationCorpus(per_bucket=4)
        for i in range(20):
            assert corpus.add(_obs(stage_id=f"s{i}"))
        assert len(corpus) == 4  # same bucket: bounded, newest retained
        assert corpus.bucket_count == 1

    def test_hot_bucket_cannot_evict_rare_regimes(self):
        corpus = CalibrationCorpus(per_bucket=4)
        corpus.add(_obs(platform="sparklite"))
        for i in range(50):
            corpus.add(_obs(stage_id=f"hot{i}", platform="pystreams"))
        platforms = {o.platform for o in corpus.samples()}
        assert platforms == {"pystreams", "sparklite"}

    def test_conversion_only_stages_dropped(self):
        corpus = CalibrationCorpus()
        assert corpus.add(StageObservation("conv", "sparklite",
                                           2.0, 2.0, [])) is False
        assert len(corpus) == 0

    def test_per_bucket_validated(self):
        with pytest.raises(ValueError):
            CalibrationCorpus(per_bucket=0)


# ============================================================ calibrator
class TestCostCalibrator:
    def _calibrator(self, publishes, **kwargs):
        kwargs.setdefault("min_samples", 3)
        kwargs.setdefault("population_size", 8)
        kwargs.setdefault("generations", 4)
        return CostCalibrator(VirtualCluster(), publishes.append, **kwargs)

    def test_sample_count_trigger_fires_and_publishes(self):
        publishes = []
        cal = self._calibrator(publishes)
        assert cal.observe([_obs(stage_id="a"), _obs(stage_id="b")]) is False
        assert publishes == []
        assert cal.observe([_obs(stage_id="c")]) is True
        assert len(publishes) == 1
        assert "pystreams.map" in publishes[0]
        stats = cal.stats()
        assert stats["refits"] == 1 and stats["pending"] == 0

    def test_drift_trigger_fires_before_sample_count(self):
        publishes = []
        # Predictions are wildly off (duration 100 vs ~1 predicted), so
        # the drift EWMA crosses 0.35 after two samples.
        cal = self._calibrator(publishes, min_samples=100,
                               drift_threshold=0.35, drift_min_samples=2)
        refit = False
        for i in range(4):
            refit = refit or cal.observe(
                [_obs(stage_id=f"s{i}", duration=100.0)])
        assert refit and len(publishes) == 1

    def test_merge_keeps_unobserved_prior_keys(self):
        publishes = []
        prior = {"sparklite.join": OperatorCostParams(3.0, 1.0, 0.2)}
        cal = self._calibrator(publishes, initial_params=prior, min_samples=1)
        assert cal.observe([_obs()]) is True
        merged = publishes[0]
        assert merged["sparklite.join"] == prior["sparklite.join"]
        assert "pystreams.map" in merged

    def test_refit_reduces_drift_gauge(self):
        registry = MetricsRegistry()
        publishes = []
        cal = self._calibrator(publishes, min_samples=4, metrics=registry,
                               population_size=16, generations=12)
        cal.observe([_obs(stage_id=f"s{i}", duration=50.0)
                     for i in range(3)])
        drift_before = registry.snapshot()["gauges"]["calibration.drift"]
        cal.observe([_obs(stage_id="s3", duration=50.0)])
        snap = registry.snapshot()
        assert snap["counters"]["calibration.refits"] == 1
        assert snap["counters"]["calibration.samples"] == 4
        assert snap["gauges"]["calibration.drift"] < drift_before
        assert snap["histograms"]["calibration.refit_seconds"]["count"] == 1

    def test_observe_is_safe_under_concurrency(self):
        publishes = []
        cal = self._calibrator(publishes, min_samples=8)
        threads = [threading.Thread(target=lambda k=k: cal.observe(
            [_obs(stage_id=f"t{k}-{i}") for i in range(4)]))
            for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cal.stats()["corpus_size"] >= 1
        assert publishes  # at least one refit fired across the threads

    def test_predict_with_defaults_fills_missing_keys(self):
        record = _obs(duration=0.0, known=0.5)
        # The drift path prices a key the calibrator never fitted with
        # the engineering prior instead of skipping it.
        assert predict_stage(
            record, {}, VirtualCluster()) == pytest.approx(1.5)


# ============================== satellite: executor calibration gating
class TestExecutionHygiene:
    """Sniffer and fault-injection runs must never teach the cost model
    (they measure perturbed executions, not production truth)."""

    def _corpus(self, ctx):
        ctx.vfs.write(CORPUS_PATH, ["to be or not to be"] * 40,
                      sim_factor=1_000.0)
        return CORPUS_PATH

    def test_clean_run_is_calibration_ok(self, ctx):
        result = ctx.execute(wordcount(ctx, self._corpus(ctx)).to_plan())
        assert result.calibration_ok is True

    def test_sniffed_run_is_not_calibration_ok(self, ctx):
        dq = wordcount(ctx, self._corpus(ctx))
        flatmap_op = dq.op.inputs[0].op.inputs[0].op
        result = dq.execute(sniffers=[Sniffer(flatmap_op.id,
                                              lambda _: None)])
        assert result.calibration_ok is False

    def test_fault_injected_run_is_not_calibration_ok(self, ctx):
        plan = wordcount(ctx, self._corpus(ctx)).to_plan()
        exec_plan, __ = ctx.optimize(plan)
        stage = exec_plan.build_stages(break_after=set())[0].id
        result = ctx.execute(wordcount(ctx, self._corpus(ctx)).to_plan(),
                             fault_injector=FaultInjector(
                                 failures={stage: 1}),
                             max_stage_retries=2)
        assert result.calibration_ok is False

    def test_service_attaches_observations_only_when_asked(self, ctx):
        self._corpus(ctx)
        service = RheemService(ctx)
        plain = service.submit(WORDCOUNT_DOC)
        assert "calibration_observations" not in plain
        observed = service.submit(WORDCOUNT_DOC, observations=True)
        docs = observed["calibration_observations"]
        assert docs and all("duration_s" in d for d in docs)
        json.dumps(docs)  # pipe-safe


# ================================ satellite: no-op publish regression
class TestNoOpPublish:
    """Republishing the already-current parameters (a convergent refit)
    must not bump the cost-model version or flush the warm caches."""

    def _warm(self, ctx):
        ctx.vfs.write(CORPUS_PATH, ["to be or not to be"] * 40,
                      sim_factor=1_000.0)
        plan = wordcount(ctx, CORPUS_PATH).to_plan()
        ctx.execute(plan)
        ctx.execute(wordcount(ctx, CORPUS_PATH).to_plan())

    def test_equal_publish_is_version_stable(self, ctx):
        params = {"pystreams.map": OperatorCostParams(2.0, 0.0, 0.1)}
        ctx.publish_cost_params(params)
        version = ctx.cost_model.version
        ctx.publish_cost_params(dict(params))  # equal, distinct dict
        assert ctx.cost_model.version == version
        ctx.publish_cost_params(
            {"pystreams.map": OperatorCostParams(2.5, 0.0, 0.1)})
        assert ctx.cost_model.version == version + 1

    def test_noop_publish_preserves_warm_cache_hits(self, ctx):
        self._warm(ctx)
        counters = ctx.metrics.snapshot()["counters"]
        assert counters.get("intermediate.hits", 0) >= 1
        plan_stats = dict(ctx.plan_cache.stats)
        store_len = len(ctx.result_store)
        ctx.publish_cost_params(ctx.cost_params_snapshot())
        # Nothing was flushed...
        assert len(ctx.result_store) == store_len
        assert ctx.result_store.stats["flushes"] == 0
        assert ctx.plan_cache.stats == plan_stats
        # ... so the next resubmission still hits the warm stores.
        before = ctx.metrics.snapshot()["counters"]
        ctx.execute(wordcount(ctx, CORPUS_PATH).to_plan())
        after = ctx.metrics.snapshot()["counters"]
        assert after.get("intermediate.hits", 0) > \
            before.get("intermediate.hits", 0)

    def test_real_publish_still_flushes(self, ctx):
        self._warm(ctx)
        ctx.publish_cost_params(
            {"pystreams.map": OperatorCostParams(2.0, 0.0, 0.1)})
        assert len(ctx.result_store) == 0
        assert ctx.result_store.stats["flushes"] == 1


# ============================= satellite: params_from_json validation
class TestParamsValidation:
    def _doc(self, **fields):
        entry = {"alpha": 1.0, "beta": 0.0, "delta": 0.0}
        entry.update(fields)
        return json.dumps({"pystreams.map": entry})

    def test_valid_document_accepted(self):
        params = params_from_json(self._doc(alpha=1.5, beta=0.25))
        assert params["pystreams.map"].alpha == 1.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_values_rejected_by_key(self, bad):
        doc = self._doc()
        doc = doc.replace('"alpha": 1.0', f'"alpha": {bad!r}'.replace(
            "nan", "NaN").replace("inf", "Infinity"))
        with pytest.raises(ValueError, match=r"pystreams\.map"):
            params_from_json(doc)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            params_from_json(self._doc(beta=-0.5))

    def test_non_numeric_and_bool_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            params_from_json(self._doc(alpha="fast"))
        with pytest.raises(ValueError, match="delta"):
            params_from_json(self._doc(delta=True))

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            params_from_json(json.dumps(
                {"pystreams.map": {"alpha": 1.0, "delta": 0.0}}))

    def test_non_mapping_shapes_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            params_from_json("[1, 2]")
        with pytest.raises(ValueError, match="pystreams.map"):
            params_from_json('{"pystreams.map": [1.0, 0.0, 0.0]}')
        with pytest.raises(ValueError):
            params_from_json("{not json")


# =========================================== end-to-end: thread backend
class TestServerCalibrationThread:
    def test_refit_repairs_a_miscosted_workload(self):
        calibration = {"min_samples": 2, "population_size": 16,
                       "generations": 12}
        with JobServer(_miscosted_ctx(), workers=2, calibrate=True,
                       calibration=calibration) as server:
            first = server.submit_sync(WORDCOUNT_DOC, timeout=60)
            assert first["status"] == "ok"
            assert first["platforms"] == ["pystreams"]  # the lie in action
            second = server.submit_sync(WORDCOUNT_DOC, timeout=60)
            assert second["status"] == "ok"
            _wait_for_refit(server)
            healed = server.submit_sync(WORDCOUNT_DOC, timeout=60)
            assert healed["status"] == "ok"
            # The refit repriced pystreams from committed traces: the
            # optimizer now routes to a distributed platform and the
            # simulated runtime drops by far more than the 1.5x bar.
            assert set(healed["platforms"]) & {"sparklite", "flinklite"}
            assert first["runtime"] / healed["runtime"] >= 1.5
            snap = server.snapshot()["calibration"]
            assert snap["refits"] >= 1 and snap["corpus_size"] >= 1
        counters = server.metrics_snapshot()["counters"]
        assert counters["calibration.refits"] >= 1
        assert counters["calibration.samples"] >= 2
        assert "calibration.drift" in server.metrics_snapshot()["gauges"]

    def test_metrics_endpoint_exposes_calibration(self):
        calibration = {"min_samples": 1, "population_size": 8,
                       "generations": 4}
        with JobServer(_miscosted_ctx(), workers=1, calibrate=True,
                       calibration=calibration) as server:
            app = make_wsgi_app(server)
            assert server.submit_sync(WORDCOUNT_DOC,
                                      timeout=60)["status"] == "ok"
            _wait_for_refit(server)
            captured = {}

            def start_response(status, headers):
                captured["status"] = status

            chunks = app({"REQUEST_METHOD": "GET", "PATH_INFO": "/metrics",
                          "QUERY_STRING": ""}, start_response)
            payload = json.loads(b"".join(chunks))
            assert captured["status"] == "200 OK"
            assert payload["counters"]["calibration.refits"] >= 1
            assert math.isfinite(payload["gauges"]["calibration.drift"])

    def test_server_without_calibrate_has_no_calibrator(self):
        with JobServer(RheemContext(), workers=1) as server:
            assert server.calibrator is None
            assert "calibration" not in server.snapshot()


# ========================================== end-to-end: process backend
class TestServerCalibrationProcess:
    def test_refit_broadcast_heals_every_shard(self):
        calibration = {"min_samples": 2, "population_size": 16,
                       "generations": 12,
                       "initial_params": dict(MISCOSTED)}
        server = JobServer(context_factory=_miscosted_ctx, workers=2,
                          backend="process", tracing=False, calibrate=True,
                          calibration=calibration)
        try:
            first = server.submit_sync(WORDCOUNT_DOC, timeout=60)
            assert first["status"] == "ok"
            assert first["platforms"] == ["pystreams"]
            assert server.submit_sync(WORDCOUNT_DOC,
                                      timeout=60)["status"] == "ok"
            _wait_for_refit(server)
            # The publish was broadcast: EVERY shard replans away from
            # the mis-priced platform, not just the sticky home shard.
            healed_everywhere = server.warm(WORDCOUNT_DOC)
            assert len(healed_everywhere) == 2
            for response in healed_everywhere:
                assert response["status"] == "ok"
                assert set(response["platforms"]) & \
                    {"sparklite", "flinklite"}
                assert first["runtime"] / response["runtime"] >= 1.5
            counters = server.metrics_snapshot()["counters"]
            assert counters["calibration.refits"] >= 1
            assert counters["calibration.samples"] >= 2
        finally:
            server.shutdown()


# ======================================================= beam enumeration
def _chain_plan(ctx, n, path="hdfs://beam/x.txt"):
    dq = ctx.read_text_file(path).map(lambda line: line, name="m0")
    for i in range(1, n):
        dq = dq.map(lambda x: x, name=f"m{i}")
    return dq.to_plan()


class TestBeamEnumeration:
    @pytest.fixture()
    def beam_ctx(self):
        ctx = RheemContext()
        ctx.vfs.write("hdfs://beam/x.txt", ["a"] * 100, sim_factor=2_000.0)
        return ctx

    def test_small_plans_are_bit_for_bit_unaffected(self, beam_ctx):
        plan = _chain_plan(beam_ctx, 12)
        default = beam_ctx.optimizer()
        best_default, __ = default.pick_best(plan)
        lossless = beam_ctx.optimizer()
        lossless.beam_threshold = None
        best_lossless, __ = lossless.pick_best(plan)
        assert best_default.cost.geometric_mean == \
            best_lossless.cost.geometric_mean
        assert default.stats == lossless.stats
        assert default.stats["plans_beam_dropped"] == 0

    def test_wide_plan_engages_the_beam_and_stays_fast(self, beam_ctx):
        plan = _chain_plan(beam_ctx, 100)
        optimizer = beam_ctx.optimizer()
        start = time.perf_counter()
        best, __ = optimizer.pick_best(plan)
        elapsed = time.perf_counter() - start
        assert optimizer.stats["plans_beam_dropped"] > 0
        assert elapsed < 5.0
        assert best.cost.geometric_mean > 0

    def test_beam_is_deterministic(self, beam_ctx):
        plan = _chain_plan(beam_ctx, 60)
        a = beam_ctx.optimizer()
        best_a, __ = a.pick_best(plan)
        b = beam_ctx.optimizer()
        best_b, __ = b.pick_best(plan)
        assert best_a.cost.geometric_mean == best_b.cost.geometric_mean
        assert a.stats == b.stats

    def test_beam_matches_lossless_optimum_mid_size(self, beam_ctx):
        # Just above the threshold the beam still finds the lossless
        # optimum on chain topologies (signature diversity is what the
        # beam truncates; a chain's optimum survives easily).
        plan = _chain_plan(beam_ctx, 60)
        beamed = beam_ctx.optimizer()
        best_beam, __ = beamed.pick_best(plan)
        lossless = beam_ctx.optimizer()
        lossless.beam_threshold = None
        best_full, __ = lossless.pick_best(plan)
        assert beamed.stats["plans_beam_dropped"] > 0
        assert best_beam.cost.geometric_mean == pytest.approx(
            best_full.cost.geometric_mean)
