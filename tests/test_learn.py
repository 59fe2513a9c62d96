"""Tests for the cost learner: loss, GA fitting, log generation."""

import pytest

from repro.core.cost import OperatorCostParams, kind_params
from repro.core.monitor import OperatorObservation, StageObservation
from repro.learn import (
    GeneratorConfig,
    GeneticCostLearner,
    LogGenerator,
    corpus_loss,
    predict_stage,
    relative_loss,
    stage_weights,
)
from repro.simulation import VirtualCluster


def _record(stage_id, platform, duration, ops, known=0.0):
    return StageObservation(stage_id, platform, duration, known,
                            [OperatorObservation(platform, kind, 1.0, cin, cout)
                             for kind, cin, cout in ops])


class TestLoss:
    def test_perfect_prediction_loss_floor(self):
        # The smoothing keeps the loss > 0 even for perfect predictions.
        assert relative_loss(10.0, 10.0, smoothing=1.0) == \
            pytest.approx((1 / 11) ** 2)

    def test_loss_grows_with_error(self):
        assert relative_loss(10, 20) > relative_loss(10, 11)

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            relative_loss(1, 1, smoothing=0)

    def test_stage_weights_favor_frequent_operators(self):
        records = [
            _record("s1", "p", 1.0, [("map", 10, 10)]),
            _record("s2", "p", 1.0, [("map", 10, 10)]),
            _record("s3", "p", 1.0, [("rare", 10, 10)]),
        ]
        w = stage_weights(records)
        assert w[0] == w[1] > w[2]

    def test_corpus_loss_empty(self):
        assert corpus_loss([], lambda r: 0.0) == 0.0


class TestPrediction:
    def test_predict_stage_uses_profile_units(self):
        cluster = VirtualCluster()
        record = _record("s", "pystreams", 0.0, [("map", 1e6, 1e6)], known=0.5)
        params = {"pystreams.map": kind_params("map")}
        # 1e6 records * 1e-6 s + known 0.5
        assert predict_stage(record, params, cluster) == pytest.approx(1.5)

    def test_missing_key_falls_back_to_kind_defaults(self):
        cluster = VirtualCluster()
        record = _record("s", "pystreams", 0.0,
                         [("map", 1e6, 1e6), ("join", 1e6, 1e6)], known=0.5)
        learned = {"pystreams.map": OperatorCostParams(0.0, 0.0, 3.0)}
        # map from the learned entry (3 s), join from its kind default
        # (alpha = beta = 1: 2e6 records * 1e-6 s) + known 0.5
        assert predict_stage(record, learned, cluster) == pytest.approx(5.5)
        assert predict_stage(record, {}, cluster) == pytest.approx(3.5)


#: ``(platform, kind)`` pairs whose engine charge is NOT the default
#: estimate: each makes every stage it runs in over-estimated.  The
#: optimizer's estimate and the engines' charge are one function once
#: this set is empty.
ESTIMATE_ABOVE_CHARGE = {"pystreams.sink", "pystreams.cache",
                         "flinklite.cache"}


class TestEstimateMatchesCharge:
    """On the generator's log, the default prediction of a stage is what
    the engines charged for it, except where a pinned pair runs."""

    def test_default_prediction_reproduces_the_charge(self):
        cluster = VirtualCluster()
        pinned = 0
        for obs in LogGenerator().generate():
            predicted = predict_stage(obs, {}, cluster)
            keys = {f"{o.platform}.{o.op_kind}" for o in obs.operators}
            if keys & ESTIMATE_ABOVE_CHARGE:
                pinned += 1
                assert predicted > obs.duration_s, obs.stage_id
            else:
                # Exact but for summation order (a few Spark/Flink stages).
                assert predicted == pytest.approx(obs.duration_s,
                                                  rel=1e-12), obs.stage_id
        assert pinned == 144


class TestGenerator:
    def test_produces_records_for_every_topology(self):
        config = GeneratorConfig(sizes=(100,), sim_factors=(50.0,),
                                 selectivities=(0.5,), udf_weights=(1.0,))
        records = LogGenerator(config).generate()
        assert records
        platforms = {r.platform for r in records}
        assert {"pystreams", "sparklite", "flinklite"} <= platforms

    def test_records_have_positive_durations(self):
        config = GeneratorConfig(sizes=(100,), sim_factors=(50.0,),
                                 selectivities=(0.5,), udf_weights=(1.0,))
        records = LogGenerator(config).generate()
        assert all(r.duration_s >= 0 for r in records)


#: The parameters a small fit of the generator's first 40 stages finds
#: (population 8, 3 generations, seed 7), recorded from the learner as it
#: was; any change to how a stage is predicted moves the loss bits.
GOLDEN_FIT_PARAMS = {
    "flinklite.collect_sink": (0.0, 33.0, 0.0),
    "flinklite.distinct": (1.0, 0.0, 0.0),
    "flinklite.filter": (1.0, 0.0, 0.0),
    "flinklite.map": (1.0, 0.0, 0.0),
    "flinklite.sort": (1.0, 0.0, 0.0),
    "flinklite.source": (1.0, 0.0, 0.0),
    "pgres.distinct": (1.0, 0.0, 0.0),
    "pgres.filter": (1.0, 0.0, 0.0),
    "pgres.map": (1.0, 0.0, 0.0),
    "pgres.sort": (1.0, 0.0, 0.0),
    "pystreams.distinct": (1.0, 0.0, 0.0),
    "pystreams.filter": (1.0, 0.0, 0.0),
    "pystreams.map": (1.0, 0.0, 0.0),
    "pystreams.sink": (1.0, 0.0, 0.0),
    "pystreams.sort": (1.0, 0.0, 0.0),
    "pystreams.source": (1.0, 0.0, 0.0),
    "sparklite.collect_sink": (0.0, 33.0, 0.0),
    "sparklite.distinct": (1.0, 0.0, 0.0),
    "sparklite.filter": (1.0, 0.0, 0.0),
    "sparklite.map": (1.0, 0.0, 0.0),
    "sparklite.sort": (1.0, 0.0, 0.0),
    "sparklite.source": (1.0, 0.0, 0.0),
}
GOLDEN_FIT_LOSS = 0.2902277272083317


class TestGeneticLearner:
    def _records(self):
        config = GeneratorConfig(sizes=(150,), sim_factors=(2_000.0,),
                                 selectivities=(0.4,), udf_weights=(1.0, 3.0))
        return LogGenerator(config).generate()

    def test_fit_never_worse_than_defaults(self):
        cluster = VirtualCluster()
        records = self._records()
        learner = GeneticCostLearner(cluster, records, seed=3)
        fit = learner.fit(population_size=24, generations=20)
        defaults = {k: kind_params(k.split(".", 1)[1]) for k in learner.keys}
        base = corpus_loss(records,
                           lambda r: predict_stage(r, defaults, cluster))
        assert fit.loss <= base + 1e-9
        assert len(fit.history) == 20
        assert fit.history == sorted(fit.history, reverse=True) or \
            min(fit.history) == fit.history[-1]

    def test_fit_is_deterministic_for_a_seed(self):
        cluster = VirtualCluster()
        records = self._records()
        a = GeneticCostLearner(cluster, records, seed=5).fit(12, 8)
        b = GeneticCostLearner(cluster, records, seed=5).fit(12, 8)
        assert a.loss == b.loss

    def test_golden_fit(self):
        records = LogGenerator().generate()[:40]
        fit = GeneticCostLearner(VirtualCluster(), records, seed=7).fit(
            population_size=8, generations=3)
        assert {key: (p.alpha, p.beta, p.delta)
                for key, p in fit.params.items()} == GOLDEN_FIT_PARAMS
        assert fit.loss == GOLDEN_FIT_LOSS
        assert fit.history == [GOLDEN_FIT_LOSS] * 3

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            GeneticCostLearner(VirtualCluster(), []).fit()

    def test_learned_params_bounded(self):
        cluster = VirtualCluster()
        learner = GeneticCostLearner(cluster, self._records(), seed=9)
        fit = learner.fit(population_size=16, generations=10)
        for params in fit.params.values():
            assert 0 <= params.alpha <= learner.ALPHA_RANGE[1]
            assert 0 <= params.beta <= learner.BETA_RANGE[1]
            assert 0 <= params.delta <= learner.DELTA_RANGE[1]


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        from repro.learn import load_params, params_from_json, \
            params_to_json, save_params

        params = {"sparklite.map": OperatorCostParams(1.5, 0.25, 0.01),
                  "pystreams.filter": OperatorCostParams(0.9, 0.0, 0.0)}
        assert params_from_json(params_to_json(params)) == params
        path = tmp_path / "cost_params.json"
        save_params(params, path)
        assert load_params(path) == params

    def test_malformed_document_rejected(self):
        from repro.learn import params_from_json
        with pytest.raises(ValueError):
            params_from_json('{"x": {"alpha": 1}}')
        with pytest.raises(ValueError):
            params_from_json('[1, 2]')

    def test_loaded_params_drive_a_context(self, tmp_path):
        from repro import RheemContext
        from repro.learn import load_params, save_params

        save_params({"pystreams.map": OperatorCostParams(0.0, 0.0, 42.0)},
                    tmp_path / "p.json")
        ctx = RheemContext(cost_params=load_params(tmp_path / "p.json"))
        cost = ctx.cost_model.operator_cost(
            "pystreams", "map",
            __import__("repro.core.cardinality",
                       fromlist=["CardinalityEstimate"]
                       ).CardinalityEstimate.exact(10),
            __import__("repro.core.cardinality",
                       fromlist=["CardinalityEstimate"]
                       ).CardinalityEstimate.exact(10))
        assert cost.geometric_mean == pytest.approx(42.0)


class TestConversionOnlyStages:
    """Stages without operator observations (pure channel conversions)
    must still reach the calibration log — dropping their known_seconds
    would bias the fit."""

    def test_monitor_records_conversion_only_stages(self):
        from repro.core.monitor import Monitor
        from repro.simulation.clock import CostMeter

        meter = CostMeter()
        meter.charge(2.0, "hdfs.read", category="io")
        monitor = Monitor()
        monitor.ledger.record("conv", 0, "sparklite", 0.0, meter)
        (obs,) = monitor.stage_observations
        assert obs.operators == []
        assert obs.known_seconds == pytest.approx(2.0)
        assert obs.platform == "sparklite"

    def test_prediction_falls_back_to_known_seconds(self):
        record = StageObservation("conv", "sparklite", 2.0, 2.0, [])
        assert predict_stage(record, {}, VirtualCluster()) == 2.0

    def test_learner_consumes_mixed_logs(self):
        config = GeneratorConfig(sizes=(150,), sim_factors=(2_000.0,),
                                 selectivities=(0.4,), udf_weights=(1.0,))
        records = LogGenerator(config).generate()
        records.append(StageObservation("conv", "sparklite", 2.0, 2.0, []))
        learner = GeneticCostLearner(VirtualCluster(), records, seed=3)
        fit = learner.fit(population_size=12, generations=6)
        assert fit.loss >= 0
        # No parameter key is minted for an operator-free stage.
        assert all("conv" not in key for key in learner.keys)

    def test_fit_reports_metrics(self):
        from repro.trace import MetricsRegistry

        registry = MetricsRegistry()
        config = GeneratorConfig(sizes=(150,), sim_factors=(2_000.0,),
                                 selectivities=(0.4,), udf_weights=(1.0,))
        records = LogGenerator(config).generate()
        learner = GeneticCostLearner(VirtualCluster(), records, seed=3,
                                     metrics=registry)
        fit = learner.fit(population_size=12, generations=6)
        snap = registry.snapshot()
        assert snap["counters"]["learn.fits"] == 1
        assert snap["counters"]["learn.generations"] == 6
        assert snap["gauges"]["learn.best_loss"] == pytest.approx(fit.loss)
