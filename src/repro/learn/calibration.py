"""Online cost-model calibration: closing the trace → cost-model loop.

Section 4.5 of the paper argues cost models must be *learned* from
stage-level execution logs rather than hand-tuned; "RHEEMix in the Data
Jungle" goes further and keeps re-learning them online while the system
serves traffic.  This module is that loop's stationary half:

* :class:`CalibrationCorpus` — a bounded, stratified store of committed
  :class:`~repro.core.monitor.StageObservation` samples, bucketed by
  (platform, dominant operator kind, cardinality band) so one chatty
  workload cannot crowd every other regime out;
* :class:`CostCalibrator` — ingests observations, tracks an
  observed-vs-predicted drift EWMA, and when a refit trigger fires
  (sample count or drift threshold) runs the
  :class:`~repro.learn.genetic.GeneticCostLearner` off the hot path and
  publishes the merged parameters through a caller-supplied publish
  callback (``RheemContext.publish_cost_params`` or the job server's
  shard broadcast).

Hygiene rules mirror the result store's: sniffer and fault-injection
runs never contribute samples (the executor marks eligibility on the
:class:`~repro.core.executor.ExecutionResult`).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Mapping

from ..concurrency import OrderedLock
from ..core.channels import volume_band
from ..core.cost import OperatorCostParams, kind_params
from ..core.monitor import OperatorObservation, StageObservation
from ..simulation.cluster import VirtualCluster
from ..trace import NO_TRACER, MetricsRegistry, Tracer
from .genetic import GeneticCostLearner


def predict_stage_with_defaults(
    record: StageObservation,
    params: Mapping[str, OperatorCostParams],
    cluster: VirtualCluster,
) -> float:
    """Model prediction of one stage's runtime, with default fallback.

    Unlike :func:`~repro.learn.genetic.predict_stage` (which skips
    operators absent from ``params`` — correct while *fitting* only the
    keys under study), drift measurement needs a prediction for every
    stage, so missing keys fall back to the engineering-prior kind
    defaults exactly as :meth:`CostModel.params_for` does.
    """
    total = record.known_seconds
    for obs in record.operators:
        p = params.get(f"{obs.platform}.{obs.op_kind}")
        if p is None:
            p = kind_params(obs.op_kind)
        profile = cluster.profile(obs.platform)
        units = p.alpha * obs.cin + p.beta * obs.cout
        total += p.delta + profile.cpu_seconds(units, obs.work)
    return total


# --------------------------------------------------------------- wire format
def observation_to_json(obs: StageObservation) -> dict:
    """JSON-able dict for one stage observation (shard → server pipe)."""
    return {
        "stage_id": obs.stage_id,
        "platform": obs.platform,
        "duration_s": obs.duration_s,
        "known_seconds": obs.known_seconds,
        "operators": [
            {"platform": o.platform, "op_kind": o.op_kind, "work": o.work,
             "cin": o.cin, "cout": o.cout}
            for o in obs.operators],
    }


def observation_from_json(doc: Mapping) -> StageObservation:
    """Inverse of :func:`observation_to_json`; fields it does not name
    (an older writer's data-plane tag) are ignored."""
    operators = [
        OperatorObservation(str(o["platform"]), str(o["op_kind"]),
                            float(o["work"]), float(o["cin"]),
                            float(o["cout"]))
        for o in doc.get("operators", ())]
    return StageObservation(
        str(doc["stage_id"]), str(doc["platform"]),
        float(doc["duration_s"]), float(doc["known_seconds"]),
        operators)


# -------------------------------------------------------------------- corpus
class CalibrationCorpus:
    """Bounded per-(platform, op-kind, cardinality-band) sample store.

    Each bucket is a ``deque(maxlen=per_bucket)``: a hot workload keeps
    refreshing its own bucket without evicting rarer regimes, and the
    total footprint is bounded by ``per_bucket * live buckets``.
    """

    def __init__(self, per_bucket: int = 32) -> None:
        if per_bucket < 1:
            raise ValueError(f"per_bucket must be >= 1, got {per_bucket}")
        self.per_bucket = per_bucket
        self._buckets: dict[tuple, deque[StageObservation]] = {}

    @staticmethod
    def bucket_key(obs: StageObservation) -> tuple:
        """Stratification key: the stage's dominant (largest-input)
        operator decides which regime the sample belongs to."""
        dominant = max(obs.operators,
                       key=lambda o: (o.cin, o.cout, o.op_kind))
        return (obs.platform, dominant.op_kind,
                volume_band(max(dominant.cin, 1.0)))

    def add(self, obs: StageObservation) -> bool:
        """Ingest one observation; returns whether it was kept.

        Conversion-only stages (no operator observations) carry nothing
        learnable — their metered seconds are already ``known`` to the
        model — so they are dropped here rather than diluting the fit.
        """
        if not obs.operators:
            return False
        key = self.bucket_key(obs)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque(maxlen=self.per_bucket)
        bucket.append(obs)
        return True

    def samples(self) -> list[StageObservation]:
        """All retained samples, in deterministic bucket order."""
        out: list[StageObservation] = []
        for key in sorted(self._buckets):
            out.extend(self._buckets[key])
        return out

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)


# ---------------------------------------------------------------- calibrator
class CostCalibrator:
    """Accumulates production observations and re-fits the cost model.

    Args:
        cluster: Supplies per-platform unit costs for prediction/fitting.
        publish: Callback receiving the merged parameter dict on refit
            (``RheemContext.publish_cost_params`` on the thread backend,
            the job server's broadcast on the process backend).  Called
            *outside* the corpus lock.
        initial_params: The currently published parameters (drift is
            measured against these until the first refit).
        min_samples: Sample-count refit trigger.
        drift_threshold: Observed-vs-predicted relative-error EWMA level
            that triggers an early refit (with at least
            ``drift_min_samples`` fresh samples).
        population_size / generations / elite / seed: GA budget — kept
            deliberately small; refits run on the server's drain thread,
            off the job hot path, but still share the process.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        publish: Callable[[dict[str, OperatorCostParams]], None],
        *,
        initial_params: Mapping[str, OperatorCostParams] | None = None,
        min_samples: int = 24,
        drift_threshold: float = 0.35,
        drift_min_samples: int = 6,
        per_bucket: int = 32,
        population_size: int = 24,
        generations: int = 40,
        elite: int = 2,
        seed: int = 7,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.cluster = cluster
        self.publish = publish
        self.min_samples = int(min_samples)
        self.drift_threshold = float(drift_threshold)
        self.drift_min_samples = int(drift_min_samples)
        self.population_size = int(population_size)
        self.generations = int(generations)
        self.elite = int(elite)
        self.seed = int(seed)
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.corpus = CalibrationCorpus(per_bucket)
        # Rank 18 in the lock registry: below context.publish (20), so a
        # refit may publish while other threads keep observing; publish
        # itself runs with the corpus lock RELEASED (the process-backend
        # broadcast takes server.pool, rank 12).
        self._lock = OrderedLock("calibration.corpus", metrics)
        self.params: dict[str, OperatorCostParams] = dict(initial_params or {})
        self._pending = 0
        self._drift = 0.0
        self._refits = 0
        self._fitting = False

    # ------------------------------------------------------------ ingestion
    def observe(self, observations: Iterable[StageObservation]) -> bool:
        """Ingest committed stage observations; refit when a trigger fires.

        Returns ``True`` when a refit ran (and was published).  Safe to
        call from multiple threads; at most one refit is in flight.
        """
        due = False
        samples: list[StageObservation] = []
        with self._lock:
            ingested = 0
            for obs in observations:
                if not self.corpus.add(obs):
                    continue
                ingested += 1
                rel = self._relative_error(obs, self.params)
                self._drift = 0.8 * self._drift + 0.2 * rel
            if ingested:
                self._pending += ingested
            if self.metrics is not None:
                if ingested:
                    self.metrics.counter("calibration.samples").inc(ingested)
                    self.metrics.gauge("calibration.drift").set(self._drift)
                    self.metrics.gauge("calibration.corpus_size").set(
                        len(self.corpus))
            due = (not self._fitting
                   and (self._pending >= self.min_samples
                        or (self._drift >= self.drift_threshold
                            and self._pending >= self.drift_min_samples)))
            if due:
                self._fitting = True
                self._pending = 0
                samples = self.corpus.samples()
        if not due:
            return False
        try:
            return self._refit(samples) is not None
        finally:
            with self._lock:
                self._fitting = False

    def _relative_error(self, obs: StageObservation,
                        params: Mapping[str, OperatorCostParams]) -> float:
        predicted = predict_stage_with_defaults(obs, params, self.cluster)
        observed = obs.duration_s
        scale = max(abs(observed), abs(predicted), 1e-9)
        return abs(observed - predicted) / scale

    # ---------------------------------------------------------------- refit
    def _refit(self, samples: list[StageObservation]):
        """Fit the GA on ``samples`` and publish the merged parameters.

        Runs with the corpus lock released: observation ingestion keeps
        flowing while the GA grinds, and the publish callback is free to
        take lower-ranked locks (the shard-pool broadcast).
        """
        if not samples:
            return None
        start = time.perf_counter()
        with self.tracer.span("calibration.refit", samples=len(samples),
                              refit=self._refits + 1):
            learner = GeneticCostLearner(self.cluster, samples,
                                         seed=self.seed, metrics=self.metrics)
            result = learner.fit(population_size=self.population_size,
                                 generations=self.generations,
                                 elite=self.elite)
        # Merge over the previous belief: keys the corpus never observed
        # keep their prior values instead of silently reverting.
        merged = dict(self.params)
        merged.update(result.params)
        self.publish(merged)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.params = merged
            self._refits += 1
            # Re-seed the drift EWMA under the published parameters so
            # the gauge shows convergence, not stale pre-fit error.
            self._drift = sum(self._relative_error(o, merged)
                              for o in samples) / len(samples)
            drift = self._drift
        if self.metrics is not None:
            self.metrics.counter("calibration.refits").inc()
            self.metrics.histogram("calibration.refit_seconds").observe(
                elapsed)
            self.metrics.gauge("calibration.drift").set(drift)
            self.metrics.gauge("calibration.fit_loss").set(result.loss)
        return result

    # ------------------------------------------------------------- plumbing
    def stats(self) -> dict:
        """A consistent snapshot of the calibrator's state (for tests and
        the server's status endpoint)."""
        with self._lock:
            return {
                "pending": self._pending,
                "drift": self._drift,
                "refits": self._refits,
                "corpus_size": len(self.corpus),
                "buckets": self.corpus.bucket_count,
            }
