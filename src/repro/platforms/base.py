"""Platform and execution-operator abstractions.

A *platform* is one declaration, a :class:`Platform` value: its
performance profile, the channel types it speaks, the conversions in/out
of those channels (priced from the profile), and the operator mappings
from Rheem operators to its execution operators.  Plugging a new platform
into the reproduction means writing exactly that one value — mirroring the
paper's extensibility story (Section 3, "Extensibility").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TYPE_CHECKING

from ..core.channels import Channel, ChannelDescriptor, Conversion
from ..core.cost import kind_params
from ..core.operators import Operator
from ..simulation.profiles import PlatformProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..core.execution import ExecutionContext
    from ..core.mappings import OperatorMapping

_exec_id_counter = itertools.count(1)


class ExecutionOperator:
    """A platform-specific implementation of one (or more) Rheem operators.

    Class attributes set by subclasses:

    * ``platform`` — owning platform name;
    * ``op_kind`` — cost-parameter key (``map``, ``filter``, ``join``...).

    Instances wrap the logical operator they implement so they can reach its
    UDFs and report monitoring data against it.
    """

    platform: str = ""
    op_kind: str = ""

    def __init__(self, logical: Operator | None = None) -> None:
        self.id = next(_exec_id_counter)
        self.logical = logical

    # -- channel typing ----------------------------------------------------
    def input_descriptors(self) -> list[ChannelDescriptor]:
        """Required channel type per data input."""
        raise NotImplementedError

    def output_descriptor(self) -> ChannelDescriptor:
        """Produced channel type (single-output model)."""
        raise NotImplementedError

    def broadcast_descriptor(self) -> ChannelDescriptor | None:
        """Channel type required for broadcast side inputs, if supported."""
        return None

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        inputs: Sequence[Channel],
        broadcasts: Sequence[Channel],
        ctx: "ExecutionContext",
    ) -> Channel:
        """Run the operator; charge ``ctx.meter``; return the output channel."""
        raise NotImplementedError

    def chain_link(self) -> str | None:
        """``"member"``, ``"fold"`` or ``None``: ``Executor._chains``."""
        return None

    # -- cost --------------------------------------------------------------
    def work(self) -> float:
        """Per-record work factor for the cost model."""
        return self.logical.work_factor() if self.logical is not None else 1.0

    def overhead_seconds(self, profile) -> float:
        """Cardinality-independent extra cost (e.g. per-iteration job
        scheduling of an iterative operator).  Charged by the engine and
        predicted identically by the cost model."""
        return 0.0

    def memory_demand_mb(self, cins: list[float], cout: float,
                         bytes_in: float, bytes_out: float) -> float:
        """Estimated resident footprint this operator needs on its platform.

        The optimizer discards alternatives whose demand exceeds the
        platform's memory capacity (so it never *plans* an out-of-memory
        run); the default of 0 leaves feasibility to the runtime
        stage-boundary checks.
        """
        return 0.0

    def shuffled_mb(self, profile, cins: list[float], cout: float,
                    bytes_in: float, bytes_out: float) -> float:
        """Simulated MB this operator moves across the network (shuffles).

        The cost model multiplies this by the platform's per-MB shuffle
        rate; engines charge the same volume at runtime.  Narrow operators
        return 0.
        """
        return 0.0

    def tasks_fraction(self, profile) -> float:
        """Fraction of the platform's parallel lanes this operator schedules.

        Stage dispatch overhead scales with it: an operator touching one
        partition of a cached dataset (e.g. ML4all's efficient samplers)
        costs far less to schedule than a full scan.
        """
        return 1.0

    def cost_estimate(self, model, cins, cout):
        """Operator-specific cost override (e.g. a nested-loop join whose
        cost is the PRODUCT of its input cardinalities, which the generic
        linear alpha/beta parameters cannot express).

        Args:
            model: The :class:`~repro.core.cost.CostModel`.
            cins: Per-input cardinality estimates.
            cout: Output cardinality estimate.

        Returns:
            A :class:`~repro.core.cost.CostEstimate`, or ``None`` to use the
            generic kind-parameter formula.
        """
        return None

    def observed_op_kind(self, inputs, ctx) -> str:
        """Cost-parameter kind this execution actually used.

        Must be a pure function of the inputs and context — never of
        mutable instance state, because one operator instance
        re-executes across loop iterations, retried attempts and, through
        the plan cache, later jobs on the same context.  Operators whose
        kind depends on runtime data (e.g. index vs sequential scan)
        override this; the executor records it post-execute.
        """
        return self.op_kind

    @property
    def name(self) -> str:
        suffix = f"[{self.logical.name}]" if self.logical is not None else ""
        return f"{self.platform}.{self.op_kind}{suffix}"

    def __repr__(self) -> str:
        return f"<{self.name}#{self.id}>"


@dataclass(frozen=True, eq=False)
class Platform:
    """One platform, declared once.

    Attributes:
        profile: Its calibrated performance profile; ``profile.name`` is
            the platform's name.  These are the *true* simulation
            constants: the optimizer's cost model approximates them
            (exactly by default, or via parameters learned from logs by
            ``repro.learn``).  A context installs the profile into its
            cluster unless the cluster already holds one of that name, so
            a what-if ``set_profile`` made beforehand wins.
        channels: The channel types it owns.
        conversions: Builds its conversions in/out of those channels from
            the profile the context's cluster holds for it.  Only
            conversions to/from one already-known channel are required;
            the channel conversion graph composes the rest.
        mappings: Its operator mappings from Rheem operators to execution
            operators.
    """

    profile: PlatformProfile
    channels: Sequence[ChannelDescriptor] = ()
    conversions: Callable[[PlatformProfile], Sequence[Conversion]] = (
        lambda profile: ())
    mappings: Sequence["OperatorMapping"] = ()

    @property
    def name(self) -> str:
        return self.profile.name

    def __repr__(self) -> str:
        return f"Platform({self.name})"


def charge_operator(
    ctx: "ExecutionContext",
    exec_op: "ExecutionOperator",
    cin_sim: float,
    cout_sim: float,
    kind: str | None = None,
) -> None:
    """Charge an operator's simulated time using the shared kind parameters.

    Engines charge the price the (default) cost model predicts,
    :meth:`OperatorCostParams.seconds`, so a calibrated optimizer is the
    baseline and the learned model can be evaluated against it; the
    operators that never call this are listed in ``tests/test_learn.py``
    (``ESTIMATE_ABOVE_CHARGE``).  ``kind`` overrides ``exec_op.op_kind`` when
    the run resolved the kind dynamically (see ``observed_op_kind``).
    Its lookups are made once per context (``ctx.prices``): per job, and
    per loop run for a loop body.
    """
    price = ctx.prices.get((exec_op, kind))
    if price is None:
        price = ctx.prices[exec_op, kind] = (
            kind_params(kind if kind is not None else exec_op.op_kind),
            ctx.cluster.profile(exec_op.platform), exec_op.work(),
            exec_op.name)
    p, profile, work, name = price
    ctx.meter.charge(p.seconds(profile, cin_sim, cout_sim, work), name, "cpu")


def _cin(inputs: Sequence[Channel]) -> float:
    """Simulated input cardinality an operator is charged for."""
    return sum(ch.sim_cardinality for ch in inputs)


def _group_factor(logical: Operator, actual_groups: int,
                  input_factor: float) -> float:
    """Output sim factor for grouping ops: honour a declared true group
    count, else carry the input's factor through."""
    sim_groups = getattr(logical, "sim_groups", None)
    if sim_groups is not None and actual_groups:
        return sim_groups / actual_groups
    return input_factor


def _sample_seed(ctx: "ExecutionContext", logical: Operator) -> str:
    """RNG seed of one ``Sample`` execution.

    A pure function of (context seed, logical seed, operator name,
    loop-iteration epoch) — never of operator-instance state, which would
    advance on failed attempts and re-runs: a crash-retried attempt of the
    same iteration draws the identical sample, while successive loop
    iterations still get fresh draws.
    """
    return (f"{ctx.seed}|{logical.seed}"
            f"|{logical.name}|{ctx.epoch}")


def union_bytes_per_record(a: Channel, b: Channel) -> float:
    """Cardinality-weighted record width of a two-input union.

    A union's output mixes both branches' records, so its ``sim_mb`` (and
    every IO/net cost derived from it) must reflect the branch widths in
    proportion to how many records each contributes — not just the left
    branch's width.
    """
    total = a.sim_cardinality + b.sim_cardinality
    if total <= 0:
        return a.bytes_per_record
    return (a.sim_cardinality * a.bytes_per_record
            + b.sim_cardinality * b.bytes_per_record) / total


def measured(channel: Channel, payload: Any, count: int,
             descriptor: ChannelDescriptor | None = None) -> Channel:
    """Build an output channel with a measured actual count."""
    return channel.with_payload(payload, descriptor, actual_count=count)
