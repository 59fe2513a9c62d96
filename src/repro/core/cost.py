"""The optimizer's cost model (Section 4.1 / 4.5 of the paper).

The cost of an execution operator is derived from its *resource usage*
(dominantly CPU in the reproduction, with I/O and network charged by the
engines and conversions) and the platform's *unit costs*.  Following the
paper's ``r_CPU := cin * (alpha + beta) + delta`` formulation, each
(platform, operator-kind) pair carries three learnable parameters:

* ``alpha`` — work units per input record,
* ``beta``  — work units per output record,
* ``delta`` — fixed start/scheduling overhead in seconds.

Costs are intervals with a confidence, propagated from the cardinality
intervals.  The default parameters mirror the simulation profiles exactly
(a perfectly calibrated model); :mod:`repro.learn` re-fits them from
execution logs, and the ablation benchmark compares both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..simulation.cluster import VirtualCluster
from ..simulation.profiles import PlatformProfile
from .cardinality import CardinalityEstimate


def geometric_mean(lower: float, upper: float) -> float:
    """What plans compare by: the bounds' geometric mean (0: midpoint)."""
    if lower <= 0:
        return (lower + upper) / 2
    return math.sqrt(lower * upper)


@dataclass(frozen=True)
class CostEstimate:
    """Simulated-seconds interval with a confidence."""

    lower: float
    upper: float
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if self.lower < 0 or self.upper < self.lower:
            raise ValueError(f"invalid cost interval [{self.lower}, {self.upper}]")

    @classmethod
    def zero(cls) -> "CostEstimate":
        return cls(0.0, 0.0, 1.0)

    @classmethod
    def fixed(cls, seconds: float) -> "CostEstimate":
        return cls(seconds, seconds, 1.0)

    @property
    def geometric_mean(self) -> float:
        """Scalar used to compare plans (paper: geometric mean of bounds)."""
        return geometric_mean(self.lower, self.upper)

    def plus(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(
            self.lower + other.lower,
            self.upper + other.upper,
            min(self.confidence, other.confidence),
        )

    def times(self, factor: float) -> "CostEstimate":
        return CostEstimate(self.lower * factor, self.upper * factor,
                            self.confidence)

    def __str__(self) -> str:
        return f"[{self.lower:.3f}s..{self.upper:.3f}s]@{self.confidence:.0%}"


def fixed_seconds(seconds: float) -> float:
    """``CostEstimate.fixed(seconds).lower`` without building the estimate
    where ``seconds`` is valid; any other term is left to the estimate's
    own check to refuse."""
    return seconds if seconds >= 0 else CostEstimate.fixed(seconds).lower


@dataclass
class OperatorCostParams:
    """Learnable resource-usage parameters of one operator kind."""

    alpha: float = 1.0
    beta: float = 0.0
    delta: float = 0.0

    def seconds(self, profile: PlatformProfile, cin: float, cout: float,
                work: float = 1.0) -> float:
        """Simulated seconds of one operator run on ``profile``: the one
        price the engines charge, the optimizer estimates and the learner
        fits."""
        return self.delta + profile.cpu_seconds(
            self.alpha * cin + self.beta * cout, work)


#: Per-operator-kind default parameters, shared by the engines (which charge
#: simulated time with them) and the cost model (which predicts it).  Binary
#: operators see the SUM of their input cardinalities as ``cin``.
KIND_PARAM_DEFAULTS: dict[str, OperatorCostParams] = {
    "join": OperatorCostParams(alpha=1.0, beta=1.0),
    "cartesian": OperatorCostParams(alpha=0.0, beta=1.0),
    "iejoin": OperatorCostParams(alpha=1.0, beta=1.0),
    "flatmap": OperatorCostParams(alpha=1.0, beta=0.5),
    "pagerank": OperatorCostParams(alpha=1.0, beta=1.0),
    # Efficient sampling operators touch only the sample (ML4all's plugged
    # random-jump / shuffled-partition samplers)...
    "sample": OperatorCostParams(alpha=0.0, beta=1.0),
    # ...whereas scan-based sampling reads everything.
    "sample_scan": OperatorCostParams(alpha=1.0, beta=0.0),
    "groupby": OperatorCostParams(alpha=1.2, beta=0.0),
    "sort": OperatorCostParams(alpha=1.0, beta=0.0),
    # Distributed engines fetching results to the driver through their own
    # action (e.g. toLocalIterator) pay more per record than a plain collect
    # conversion — the WordCount trick of Figure 9(d).
    "collect_sink": OperatorCostParams(alpha=0.0, beta=33.0),
    # Relational-engine specifics: base-table access is nearly free (the
    # consumer pays the scan), index scans touch only their matches.
    "table_source": OperatorCostParams(alpha=0.05, beta=0.0),
    "filter_index": OperatorCostParams(alpha=0.0, beta=1.5, delta=0.001),
}


#: The parameters of every kind without an entry above.
_UNLISTED_KIND_PARAMS = OperatorCostParams()


def kind_params(op_kind: str) -> OperatorCostParams:
    """Default cost parameters for an operator kind."""
    return KIND_PARAM_DEFAULTS.get(op_kind, _UNLISTED_KIND_PARAMS)


def params_for(params: Mapping[str, OperatorCostParams], platform: str,
               op_kind: str) -> OperatorCostParams:
    """The learned ``"<platform>.<op_kind>"`` entry, else the kind default."""
    p = params.get(f"{platform}.{op_kind}")
    return p if p is not None else kind_params(op_kind)


class CostModel:
    """Estimates execution-operator costs from cardinalities.

    Args:
        cluster: Supplies per-platform unit costs (tuple cost, parallelism,
            overheads).
        params: Optional learned parameters keyed ``"<platform>.<op_kind>"``;
            missing keys fall back to the kind defaults (:func:`params_for`).
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        params: dict[str, OperatorCostParams] | None = None,
    ) -> None:
        self.cluster = cluster
        self.params = dict(params or {})
        #: Bumped whenever new learned parameters are published
        #: (:meth:`RheemContext.publish_cost_params`); part of the
        #: execution-plan cache key so stale plans can never be replayed.
        self.version = 0

    def operator_cost(
        self,
        platform: str,
        op_kind: str,
        cin: CardinalityEstimate,
        cout: CardinalityEstimate,
        work: float = 1.0,
    ) -> CostEstimate:
        """Cost interval for one execution operator.

        ``work`` is the logical operator's work factor (UDF cpu weight,
        sort's n-log-n fudge, PageRank's iteration count...).
        """
        profile = self.cluster.profile(platform)
        p = params_for(self.params, platform, op_kind)
        return CostEstimate(
            p.seconds(profile, cin.lower, cout.lower, work),
            p.seconds(profile, cin.upper, cout.upper, work),
            min(cin.confidence, cout.confidence),
        )
