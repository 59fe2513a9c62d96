"""Genetic-algorithm cost-model fitting (Section 4.5 of the paper).

Execution logs only record *stage* runtimes, never isolated operator times
(isolated profiling is unrealistic when engines pipeline operators).  The
learner therefore solves ``x_min = argmin_x loss(t, sum_i f_i(x, C_i))``
over the per-(platform, operator-kind) parameters ``alpha`` (work per input
record), ``beta`` (work per output record) and ``delta`` (fixed seconds),
with a genetic algorithm — which, as the paper notes, imposes almost no
restrictions on the loss function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.cost import OperatorCostParams, kind_params, params_for
from ..core.monitor import StageObservation
from ..simulation.cluster import VirtualCluster
from ..trace import MetricsRegistry
from .loss import corpus_loss


def predict_stage(
    record: StageObservation,
    params: Mapping[str, OperatorCostParams],
    cluster: VirtualCluster,
) -> float:
    """Model prediction of one stage's runtime from its observations.

    Operators without a ``params`` entry are priced with their kind
    defaults (:func:`~repro.core.cost.params_for`).  While fitting, every
    key of the corpus is in the genome, so the fallback never fires.
    """
    total = record.known_seconds
    for obs in record.operators:
        p = params_for(params, obs.platform, obs.op_kind)
        total += p.seconds(cluster.profile(obs.platform), obs.cin, obs.cout,
                           obs.work)
    return total


@dataclass
class FitResult:
    """Outcome of a learning run."""

    params: dict[str, OperatorCostParams]
    loss: float
    generations: int
    history: list[float]


class GeneticCostLearner:
    """Fits operator cost parameters to stage-level execution logs.

    Args:
        cluster: Supplies unit costs (tuple cost / parallelism per platform);
            only the alpha/beta/delta shape parameters are learned, matching
            the paper's split between hardware config and cost functions.
        records: Stage observations (e.g. from the log generator).
        seed: RNG seed for reproducible fits.
        metrics: Optional registry receiving fit counters/gauges (shared
            with the monitor and the REST service).
    """

    ALPHA_RANGE = (0.0, 8.0)
    BETA_RANGE = (0.0, 40.0)  # collect-style operators are record-expensive
    DELTA_RANGE = (0.0, 0.5)

    def __init__(self, cluster: VirtualCluster,
                 records: Sequence[StageObservation],
                 seed: int = 7,
                 metrics: MetricsRegistry | None = None) -> None:
        self.cluster = cluster
        self.records = list(records)
        self.metrics = metrics
        self.rng = random.Random(seed)
        keys = {f"{o.platform}.{o.op_kind}"
                for r in self.records for o in r.operators}
        self.keys = sorted(keys)

    # ------------------------------------------------------------ encoding
    def _decode(self, genome: list[float]) -> dict[str, OperatorCostParams]:
        params = {}
        for i, key in enumerate(self.keys):
            alpha, beta, delta = genome[3 * i: 3 * i + 3]
            params[key] = OperatorCostParams(alpha, beta, delta)
        return params

    def _random_genome(self) -> list[float]:
        genome: list[float] = []
        for __ in self.keys:
            genome.append(self.rng.uniform(*self.ALPHA_RANGE))
            genome.append(self.rng.uniform(*self.BETA_RANGE))
            genome.append(self.rng.uniform(*self.DELTA_RANGE))
        return genome

    def _fitness(self, genome: list[float]) -> float:
        params = self._decode(genome)
        return corpus_loss(
            self.records,
            lambda r: predict_stage(r, params, self.cluster))

    # ----------------------------------------------------------- operators
    def _tournament(self, population, fitnesses, k: int = 3) -> list[float]:
        best = None
        for __ in range(k):
            i = self.rng.randrange(len(population))
            if best is None or fitnesses[i] < fitnesses[best]:
                best = i
        return list(population[best])

    def _crossover(self, a: list[float], b: list[float]) -> list[float]:
        """Blend crossover: each gene a random mix of the parents."""
        child = []
        for x, y in zip(a, b):
            w = self.rng.random()
            child.append(w * x + (1 - w) * y)
        return child

    def _mutate(self, genome: list[float], rate: float = 0.15) -> None:
        bounds = [self.ALPHA_RANGE, self.BETA_RANGE, self.DELTA_RANGE]
        for i in range(len(genome)):
            if self.rng.random() < rate:
                lo, hi = bounds[i % 3]
                span = hi - lo
                genome[i] = min(hi, max(lo, genome[i] + self.rng.gauss(
                    0.0, 0.15 * span)))

    # ---------------------------------------------------------------- fit
    def fit(self, population_size: int = 60, generations: int = 120,
            elite: int = 4) -> FitResult:
        """Run the GA; returns the best parameters found."""
        if not self.records:
            raise ValueError("cannot fit a cost model to an empty log")
        population = [self._random_genome() for __ in range(population_size)]
        # Seed one individual at the engineering prior (the uniform kind
        # defaults) so the fit can only improve on the hand-written model.
        prior = []
        for key in self.keys:
            p = kind_params(key.split(".", 1)[1])
            prior.extend([min(p.alpha, self.ALPHA_RANGE[1]),
                          min(p.beta, self.BETA_RANGE[1]),
                          min(p.delta, self.DELTA_RANGE[1])])
        population[0] = prior
        fitnesses = [self._fitness(g) for g in population]
        history: list[float] = []
        for __ in range(generations):
            ranked = sorted(range(len(population)), key=lambda i: fitnesses[i])
            next_pop = [list(population[i]) for i in ranked[:elite]]
            while len(next_pop) < population_size:
                a = self._tournament(population, fitnesses)
                b = self._tournament(population, fitnesses)
                child = self._crossover(a, b)
                self._mutate(child)
                next_pop.append(child)
            population = next_pop
            fitnesses = [self._fitness(g) for g in population]
            history.append(min(fitnesses))
        best_idx = min(range(len(population)), key=lambda i: fitnesses[i])
        if self.metrics is not None:
            self.metrics.counter("learn.fits").inc()
            self.metrics.counter("learn.generations").inc(generations)
            self.metrics.counter("learn.observations").inc(len(self.records))
            self.metrics.gauge("learn.best_loss").set(fitnesses[best_idx])
        return FitResult(
            params=self._decode(population[best_idx]),
            loss=fitnesses[best_idx],
            generations=generations,
            history=history,
        )
