"""Operator mappings and plan inflation (Section 3 / 4.1 of the paper).

A mapping declares how a platform implements a Rheem operator — either with
a single execution operator (1-to-1) or with a chain of them (1-to-n, the
paper's Reduce -> [GroupBy, Map] example).  *Inflation* annotates a logical
operator with ALL its execution alternatives
(:meth:`MappingRegistry.alternatives_for`) when the enumerator reaches it,
so an operator that result reuse pruned is never inflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TYPE_CHECKING

from .cardinality import CardinalityEstimate
from .channels import ChannelDescriptor
from .cost import CostEstimate, CostModel, fixed_seconds
from .operators import Operator

if TYPE_CHECKING:  # pragma: no cover
    from ..platforms.base import ExecutionOperator


class NoMappingError(LookupError):
    """Raised when a logical operator has no execution alternative."""


@dataclass
class ExecutionAlternative:
    """One way to execute a logical operator: a linear chain of execution
    operators on a single platform.

    ``ops[0]`` receives the logical operator's inputs; ``ops[-1]`` produces
    its output.
    """

    ops: list["ExecutionOperator"]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("an alternative needs at least one execution operator")
        platforms = {op.platform for op in self.ops}
        if len(platforms) != 1:
            raise ValueError(f"mixed-platform alternative: {platforms}")

    @property
    def platform(self) -> str:
        return self.ops[0].platform

    def input_descriptors(self) -> list[ChannelDescriptor]:
        return self.ops[0].input_descriptors()

    def output_descriptor(self) -> ChannelDescriptor:
        return self.ops[-1].output_descriptor()

    def broadcast_descriptor(self) -> ChannelDescriptor | None:
        for op in self.ops:
            desc = op.broadcast_descriptor()
            if desc is not None:
                return desc
        return None

    def cost(self, model: CostModel, cins: Sequence[CardinalityEstimate],
             cout: CardinalityEstimate, bytes_in: float = 100.0,
             bytes_out: float = 100.0, weight: float = 1.0) -> CostEstimate:
        """Cost of the chain, times ``weight``; intermediate cardinalities
        approximate the logical output cardinality.  Each operator adds its
        own interval, shuffle and overhead terms as floats, in that order
        (bit-for-bit a chain of ``CostEstimate.plus``)."""
        lower = upper = 0.0
        confidence = 1.0
        profile = model.cluster.profile(self.platform)
        for i, op in enumerate(self.ops):
            op_cins = list(cins) if i == 0 else [cout]
            if not op_cins:
                op_cins = [cout]  # sources: reading cost tracks their output
            own = op.cost_estimate(model, op_cins, cout)
            if own is None:
                cin = op_cins[0]
                for extra in op_cins[1:]:
                    cin = cin.plus(extra)
                own = model.operator_cost(self.platform, op.op_kind, cin,
                                          cout, op.work())
            lower += own.lower
            upper += own.upper
            confidence = min(confidence, own.confidence)
            shuffle_mb = op.shuffled_mb(
                profile, [c.geometric_mean for c in op_cins],
                cout.geometric_mean, bytes_in if i == 0 else bytes_out,
                bytes_out)
            if shuffle_mb:
                shuffle_s = fixed_seconds(
                    shuffle_mb * profile.shuffle_cost_s_per_mb)
                lower += shuffle_s
                upper += shuffle_s
            overhead = fixed_seconds(op.overhead_seconds(profile))
            lower += overhead
            upper += overhead
        return CostEstimate(lower * weight, upper * weight, confidence)

    def __repr__(self) -> str:
        return f"Alt({'+'.join(op.name for op in self.ops)})"


class OperatorMapping:
    """Maps logical operators matching a pattern to execution alternatives.

    Args:
        operator_type: Logical operator class to match (subclasses match
            unless they match a more specific mapping first — the registry
            keeps all matches).
        factory: Builds a fresh execution-operator chain for a matched
            operator.
        guard: Optional extra predicate on the operator.
    """

    def __init__(
        self,
        operator_type: type,
        factory: Callable[[Operator], Sequence["ExecutionOperator"]],
        guard: Callable[[Operator], bool] | None = None,
        name: str = "",
    ) -> None:
        self.operator_type = operator_type
        self.factory = factory
        self.guard = guard
        self.name = name or f"mapping<{operator_type.__name__}>"

    def matches(self, op: Operator) -> bool:
        if type(op) is not self.operator_type and not isinstance(op, self.operator_type):
            return False
        return self.guard is None or self.guard(op)

    def build(self, op: Operator) -> ExecutionAlternative:
        return ExecutionAlternative(list(self.factory(op)))

    def __repr__(self) -> str:
        return self.name


class MappingRegistry:
    """All registered operator mappings across platforms."""

    def __init__(self) -> None:
        self._mappings: list[OperatorMapping] = []
        #: Operator type -> the mappings of it and of its bases, in
        #: registration order; filled on first lookup, emptied by a
        #: registration.
        self._by_type: dict[type, list[OperatorMapping]] = {}

    def register(self, mapping: OperatorMapping) -> None:
        self._mappings.append(mapping)
        self._by_type.clear()

    def register_all(self, mappings: Sequence[OperatorMapping]) -> None:
        self._mappings.extend(mappings)
        self._by_type.clear()

    def alternatives_for(self, op: Operator) -> list[ExecutionAlternative]:
        """All execution alternatives for ``op``, honouring a pinned
        ``target_platform``.

        Raises:
            NoMappingError: If no alternative exists.
        """
        op_type = type(op)
        candidates = self._by_type.get(op_type)
        if candidates is None:
            candidates = self._by_type[op_type] = [
                m for m in self._mappings
                if issubclass(op_type, m.operator_type)]
        alts = [m.build(op) for m in candidates
                if m.guard is None or m.guard(op)]
        if op.target_platform is not None:
            alts = [a for a in alts if a.platform == op.target_platform]
        if not alts:
            pin = (f" on platform {op.target_platform!r}"
                   if op.target_platform else "")
            raise NoMappingError(f"no execution alternative for {op}{pin}")
        return alts
