"""ML4all: the gradient-descent abstraction on top of Rheem.

ML4all (Section 2.2 of the paper) abstracts most ML tasks into three phases
built from seven logical operators:

* preparation — **Transform** (parse/normalize), **Stage** (initialize);
* processing — **Sample**, **Compute** (gradients), **Update** (weights);
* convergence — **Loop** / **Converge**.

All seven map onto Rheem operators; the plugged-in IO-efficient samplers
(``random_jump`` / ``shuffled_partition``) are what lets the processing
phase run each iteration without rescanning the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Callable, Sequence

from ..core.context import DataQuanta, RheemContext
from ..core.executor import ExecutionResult
from ..workloads.points import parse_point

Vector = Sequence[float]


@dataclass
class Algorithm:
    """One gradient-style algorithm in ML4all's seven-operator vocabulary.

    Attributes:
        transform: Raw record -> data point (the Transform operator).
        stage: Initial model state (the Stage operator).
        compute: ``(point, weights) -> gradient contribution``.
        combine: Associative combiner of gradient contributions.
        update: ``(combined gradient, weights) -> new weights``.
        converge: Optional ``(old, new) -> bool`` early-stop test; ``None``
            runs the fixed iteration count.
    """

    transform: Callable
    stage: Callable[[], Vector]
    compute: Callable
    combine: Callable
    update: Callable
    converge: Callable[[Vector, Vector], bool] | None = None


# The gradient kernels run per sampled point, so they use builtins
# (``map``, ``sum``, list comprehensions).  Every value must stay the same
# operation on the same operands in the same order as the plain formula —
# ``sum`` adds floats the same way whatever iterable feeds it — so that
# the weights are bit-identical.  A gradient is d weight terms plus a count.


def _combine(a, b):
    """Sum two gradient contributions, the count included."""
    return tuple(map(add, a, b))


def _update(learning_rate: float) -> Callable:
    """``w - learning_rate * gradient / count``, one weight at a time."""

    def update(gradient, weights):
        count = max(gradient[-1], 1)
        # zip stops at the d weights, before the count.
        return tuple([wi - learning_rate * gi / count
                      for wi, gi in zip(weights[0], gradient)])

    return update


def sgd_hinge(dimensions: int, learning_rate: float = 0.05,
              regularizer: float = 1e-4) -> Algorithm:
    """Stochastic gradient descent on hinge loss (linear SVM)."""

    def compute(point, weights):
        label, features = point[0], point[1:]
        w = weights[0]
        margin = label * sum(map(mul, w, features))
        if margin >= 1.0:
            gradient = [regularizer * wi for wi in w]
        else:
            gradient = [regularizer * wi - label * xi
                        for wi, xi in zip(w, features)]
        gradient.append(1)
        return tuple(gradient)

    return Algorithm(
        transform=parse_point,
        stage=lambda: tuple(0.0 for __ in range(dimensions)),
        compute=compute,
        combine=_combine,
        update=_update(learning_rate),
    )


def logistic_sgd(dimensions: int, learning_rate: float = 0.1) -> Algorithm:
    """Stochastic gradient descent on logistic loss."""
    import math

    def compute(point, weights):
        label, features = point[0], point[1:]
        margin = label * sum(map(mul, weights[0], features))
        factor = -label / (1.0 + math.exp(min(margin, 50.0)))
        gradient = [factor * xi for xi in features]
        gradient.append(1)
        return tuple(gradient)

    return Algorithm(
        transform=parse_point,
        stage=lambda: tuple(0.0 for __ in range(dimensions)),
        compute=compute,
        combine=_combine,
        update=_update(learning_rate),
    )


def kmeans(dimensions: int, k: int, seed: int = 13) -> Algorithm:
    """Mini-batch k-means in the same seven-operator vocabulary.

    The model state is the tuple of ``k`` centroids; Compute assigns each
    sampled point to its nearest centroid and emits per-cluster partial
    sums, Update recomputes the centroids (empty clusters keep theirs).
    """
    import random

    rng = random.Random(seed)

    def stage():
        return tuple(tuple(rng.uniform(-1.0, 1.0) for __ in range(dimensions))
                     for __ in range(k))

    def compute(point, centroids_state):
        centroids = centroids_state[0]
        *features, = point[1:] if len(point) > dimensions else point
        best = min(range(k), key=lambda c: sum(
            (fi - ci) ** 2 for fi, ci in zip(features, centroids[c])))
        sums = [(0,) + (0.0,) * dimensions] * k
        sums[best] = (1,) + tuple(features)
        return tuple(sums)

    def combine(a, b):
        return tuple(
            (ca[0] + cb[0],) + tuple(x + y for x, y in zip(ca[1:], cb[1:]))
            for ca, cb in zip(a, b))

    def update(sums, centroids_state):
        centroids = centroids_state[0]
        new = []
        for c in range(k):
            count = sums[c][0]
            if count == 0:
                new.append(centroids[c])
            else:
                new.append(tuple(x / count for x in sums[c][1:]))
        return tuple(new)

    return Algorithm(
        transform=parse_point,
        stage=stage,
        compute=compute,
        combine=combine,
        update=update,
    )


class ML4all:
    """Trains gradient-style models through Rheem plans."""

    def __init__(self, ctx: RheemContext) -> None:
        self.ctx = ctx

    def training_quanta(
        self,
        data_path: str,
        algorithm: Algorithm,
        iterations: int = 100,
        sample_size: int = 10,
        sample_method: str = "random_jump",
    ) -> DataQuanta:
        """Build the training dataflow (Figure 3(a)'s SGD plan shape)."""
        points = (self.ctx.read_text_file(data_path)
                  .map(algorithm.transform, name="transform",
                       bytes_per_record=64)
                  .cache())
        weights = self.ctx.load_collection([algorithm.stage()],
                                           bytes_per_record=24)

        def body(w: DataQuanta, invariant_points: DataQuanta) -> DataQuanta:
            sampled = invariant_points.sample(
                size=sample_size, method=sample_method, broadcasts=[w])
            gradients = sampled.map(algorithm.compute, name="compute",
                                    broadcasts=[w])
            combined = gradients.reduce(algorithm.combine)
            return combined.map(algorithm.update, name="update",
                                broadcasts=[w])

        if algorithm.converge is None:
            return weights.repeat(iterations, body, invariants=[points])
        converge = algorithm.converge

        def condition(previous: list | None, records: list) -> bool:
            # The executor hands over this loop run's previous weights.
            return previous is None or not converge(previous[0], records[0])

        return weights.do_while(condition, body, invariants=[points],
                                expected=iterations,
                                max_iterations=iterations)

    def train(self, data_path: str, algorithm: Algorithm,
              iterations: int = 100, sample_size: int = 10,
              sample_method: str = "random_jump",
              **execute_kwargs) -> ExecutionResult:
        """Train and return the result (payload: ``[final_weights]``)."""
        quanta = self.training_quanta(data_path, algorithm, iterations,
                                      sample_size, sample_method)
        return quanta.execute(**execute_kwargs)
