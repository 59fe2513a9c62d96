"""Platform-agnostic Rheem operators (Section 3 of the paper).

A Rheem plan is a directed data-flow graph whose vertices are the operators
defined here and whose edges carry *data quanta*.  Operators are platform
agnostic; the optimizer maps them to platform-specific execution operators
via the mappings in :mod:`repro.core.mappings` and the per-platform mapping
modules.

Broadcast edges (dotted edges in the paper's Figure 3) are modelled as
*side inputs*: the UDF of the consuming operator receives the materialized
broadcast value as extra positional arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .cardinality import (
    CardinalityEstimate,
    DEFAULT_CONFIDENCE,
    DEFAULT_DISTINCT_RATIO,
    DEFAULT_FILTER_SELECTIVITY,
    DEFAULT_FLATMAP_EXPANSION,
    DEFAULT_GROUP_RATIO,
    DEFAULT_JOIN_SELECTIVITY,
)
from .udf import Udf, as_udf

_id_counter = itertools.count(1)


@dataclass(frozen=True)
class InputRef:
    """A reference to one output slot of an upstream operator."""

    op: "Operator"
    output_index: int = 0


@dataclass
class EstimationContext:
    """What cardinality estimators may consult.

    Attributes:
        vfs: Virtual file system, for source record counts ("sampling").
        table_cardinalities: Known relation sizes (Postgres catalog analog).
        table_bytes: Known per-row byte widths per relation.
        overrides: Measured cardinalities pinned by the progressive
            optimizer, keyed by operator id.
    """

    vfs: Any = None
    table_cardinalities: dict[str, float] = field(default_factory=dict)
    table_bytes: dict[str, float] = field(default_factory=dict)
    overrides: dict[int, CardinalityEstimate] = field(default_factory=dict)


class Operator:
    """Base class of all Rheem operators.

    Subclasses define ``num_inputs`` (arity) and implement
    :meth:`estimate_cardinality`.  All operators currently have exactly one
    output slot; sinks have zero.
    """

    num_inputs: int = 1
    num_outputs: int = 1
    is_source = False
    is_sink = False

    def __init__(self, name: str) -> None:
        self.id: int = next(_id_counter)
        self.name = name
        self.inputs: list[InputRef | None] = [None] * self.num_inputs
        self.side_inputs: list[InputRef] = []
        #: Force execution on a specific platform (``withTargetPlatform``).
        self.target_platform: str | None = None
        #: Downstream back-references recorded by :meth:`connect` /
        #: :meth:`broadcast`; the static analyzer walks these to find work
        #: hanging off a plan that no sink can reach (may hold stale
        #: entries after rewiring — always verify against ``inputs``).
        self.downstream: list["Operator"] = []
        #: Lint rule ids silenced for this operator (``suppress_lint``).
        self.lint_suppressions: set[str] = set()

    # ------------------------------------------------------------------ DAG
    def connect(self, input_index: int, upstream: "Operator",
                output_index: int = 0) -> "Operator":
        """Wire ``upstream``'s output into this operator's ``input_index``."""
        if not 0 <= input_index < self.num_inputs:
            raise ValueError(f"{self} has no input slot {input_index}")
        if not 0 <= output_index < upstream.num_outputs:
            raise ValueError(f"{upstream} has no output slot {output_index}")
        self.inputs[input_index] = InputRef(upstream, output_index)
        upstream.downstream.append(self)
        return self

    def broadcast(self, upstream: "Operator", output_index: int = 0) -> "Operator":
        """Attach a broadcast (side) input; its materialized value is passed
        to this operator's UDF as an extra positional argument."""
        self.side_inputs.append(InputRef(upstream, output_index))
        upstream.downstream.append(self)
        return self

    def with_target_platform(self, platform: str) -> "Operator":
        """Pin this operator to one platform (escape hatch, Section 5)."""
        self.target_platform = platform
        return self

    def suppress_lint(self, *rule_ids: str) -> "Operator":
        """Silence the given lint rules for this operator only."""
        self.lint_suppressions.update(rule_ids)
        return self

    @property
    def upstream_ops(self) -> list["Operator"]:
        """All producers feeding this operator (data + broadcast edges)."""
        ops = [ref.op for ref in self.inputs if ref is not None]
        ops.extend(ref.op for ref in self.side_inputs)
        return ops

    # ----------------------------------------------------------- estimation
    def estimate_cardinality(
        self,
        inputs: Sequence[CardinalityEstimate],
        ctx: EstimationContext,
    ) -> CardinalityEstimate:
        """Estimate this operator's output cardinality from its inputs."""
        raise NotImplementedError

    def work_factor(self) -> float:
        """Relative per-record CPU work (drives cost estimation)."""
        return 1.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}#{self.id}({self.name})"


def _passthrough(inputs: Sequence[CardinalityEstimate]) -> CardinalityEstimate:
    return inputs[0]


# --------------------------------------------------------------------------
# Sources
# --------------------------------------------------------------------------
class SourceOperator(Operator):
    """Base class for operators with no data inputs."""

    num_inputs = 0
    is_source = True


class TextFileSource(SourceOperator):
    """Reads lines from a (virtual) file; quanta are strings."""

    def __init__(self, path: str, name: str = "textfile-source") -> None:
        super().__init__(name)
        self.path = path

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        if ctx.vfs is not None and ctx.vfs.exists(self.path):
            return CardinalityEstimate.exact(ctx.vfs.read(self.path).sim_record_count)
        return CardinalityEstimate(0, 1e9, 0.1)


class CollectionSource(SourceOperator):
    """Wraps a driver-side collection (paper: Collection source)."""

    def __init__(self, data: Iterable[Any], sim_factor: float = 1.0,
                 bytes_per_record: float = 100.0,
                 name: str = "collection-source") -> None:
        super().__init__(name)
        self.data = list(data)
        self.sim_factor = sim_factor
        self.bytes_per_record = bytes_per_record

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        return CardinalityEstimate.exact(len(self.data) * self.sim_factor)


class TableSource(SourceOperator):
    """Reads a relation that lives inside the relational platform."""

    def __init__(self, table: str, projection: list[str] | None = None,
                 name: str | None = None) -> None:
        super().__init__(name or f"table-source({table})")
        self.table = table
        self.projection = projection

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        if self.table in ctx.table_cardinalities:
            return CardinalityEstimate.exact(ctx.table_cardinalities[self.table])
        return CardinalityEstimate(0, 1e9, 0.1)


# --------------------------------------------------------------------------
# Unary operators
# --------------------------------------------------------------------------
class Map(Operator):
    """Transforms each data quantum with a UDF (1-to-1).

    ``bytes_per_record`` optionally declares the simulated size of the
    OUTPUT quanta (e.g. a projection shrinking wide rows); by default the
    input's record size is carried through.

    ``batch_udf`` optionally declares a columnar twin of the UDF: it
    receives a whole :class:`~repro.core.batch.RecordBatch` (plus broadcast
    values) and returns the transformed batch.  It MUST be record-wise
    equivalent to ``udf``.  When declared, every engine runs it instead of
    ``udf`` and emits a batch; without it, ``udf`` runs per record and the
    output is a list.
    """

    def __init__(self, udf: Callable[..., Any] | Udf, name: str = "map",
                 bytes_per_record: float | None = None,
                 batch_udf: Callable[..., Any] | None = None) -> None:
        super().__init__(name)
        self.udf = as_udf(udf)
        self.bytes_per_record = bytes_per_record
        self.batch_udf = batch_udf

    def estimate_cardinality(self, inputs, ctx):
        return ctx.overrides.get(self.id, _passthrough(inputs))

    def work_factor(self) -> float:
        return self.udf.cpu_weight


class FlatMap(Operator):
    """Transforms each quantum into zero or more quanta.

    ``bytes_per_record`` optionally declares the simulated size of the
    OUTPUT quanta (words are smaller than the lines they come from).
    ``batch_udf`` optionally maps a whole record batch to the flattened
    output batch (see :class:`Map`).
    """

    def __init__(self, udf: Callable[..., Any] | Udf, name: str = "flatmap",
                 bytes_per_record: float | None = None,
                 batch_udf: Callable[..., Any] | None = None) -> None:
        super().__init__(name)
        self.udf = as_udf(udf)
        self.bytes_per_record = bytes_per_record
        self.batch_udf = batch_udf

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        sel = self.udf.selectivity
        if sel is None:
            return inputs[0].scale(DEFAULT_FLATMAP_EXPANSION).widen(
                0.5, 4.0, DEFAULT_CONFIDENCE)
        return inputs[0].scale(sel)

    def work_factor(self) -> float:
        return self.udf.cpu_weight


class MapPartitions(Operator):
    """Transforms whole partitions with a UDF ``list -> list``.

    The single-node platforms see one partition (the whole collection);
    the distributed ones apply the UDF per partition — useful for
    amortizing per-chunk setup (compiled regexes, model weights).
    """

    def __init__(self, udf: Callable[..., Any] | Udf,
                 name: str = "map-partitions",
                 bytes_per_record: float | None = None) -> None:
        super().__init__(name)
        self.udf = as_udf(udf)
        self.bytes_per_record = bytes_per_record

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        sel = self.udf.selectivity
        if sel is None:
            return inputs[0].widen(0.5, 2.0, DEFAULT_CONFIDENCE)
        return inputs[0].scale(sel)

    def work_factor(self) -> float:
        return self.udf.cpu_weight


class ZipWithId(Operator):
    """Attaches a unique id to each quantum: output ``(id, quantum)``.

    Ids are unique but not necessarily dense nor ordered across partitions
    (matching the distributed engines' cheap id assignment).
    """

    def __init__(self, name: str = "zipwithid") -> None:
        super().__init__(name)

    def estimate_cardinality(self, inputs, ctx):
        return ctx.overrides.get(self.id, _passthrough(inputs))


class Filter(Operator):
    """Keeps quanta satisfying a predicate UDF.

    ``column``/``low``/``high`` optionally describe the predicate as a range
    over one attribute of dict-shaped quanta; the relational platform uses
    this to run an index scan instead of a sequential scan, and a filter
    whose input already is a record batch runs it as one columnar
    comparison.  ``batch_udf`` optionally computes the keep-mask for a
    whole record batch; when declared it always runs instead of the UDF.
    """

    def __init__(self, udf: Callable[..., Any] | Udf, name: str = "filter",
                 column: str | None = None, low: Any = None,
                 high: Any = None,
                 batch_udf: Callable[..., Any] | None = None) -> None:
        super().__init__(name)
        self.udf = as_udf(udf)
        self.column = column
        self.low = low
        self.high = high
        self.batch_udf = batch_udf

    @classmethod
    def from_range(cls, column: str, low: Any = None, high: Any = None,
                   selectivity: float | None = None,
                   name: str | None = None) -> "Filter":
        """A filter over a range of one attribute of dict-shaped quanta."""

        def in_range(row: dict) -> bool:
            value = row[column]
            if low is not None and value < low:
                return False
            if high is not None and value > high:
                return False
            return True

        udf = Udf(in_range, selectivity=selectivity, name=f"range({column})")
        return cls(udf, name=name or f"filter({column})",
                   column=column, low=low, high=high)

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        sel = self.udf.selectivity
        if sel is None:
            return inputs[0].scale(DEFAULT_FILTER_SELECTIVITY).widen(
                0.1, 2.0, DEFAULT_CONFIDENCE)
        return inputs[0].scale(sel)

    def work_factor(self) -> float:
        return self.udf.cpu_weight


class Sample(Operator):
    """Draws a sample of the input (fixed size or fraction).

    ``method`` selects the execution strategy; ML4all's efficient sampling
    operators (random-jump / shuffled-partition) map to cheap execution
    operators on the distributed platforms.
    """

    METHODS = ("random", "random_jump", "shuffled_partition", "first")

    def __init__(self, size: int | None = None, fraction: float | None = None,
                 method: str = "random", seed: int | None = 42,
                 name: str = "sample") -> None:
        super().__init__(name)
        if (size is None) == (fraction is None):
            raise ValueError("exactly one of size / fraction is required")
        if method not in self.METHODS:
            raise ValueError(f"unknown sample method {method!r}")
        self.size = size
        self.fraction = fraction
        self.method = method
        self.seed = seed

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        if self.size is not None:
            upper = min(self.size, inputs[0].upper) if inputs[0].upper else self.size
            return CardinalityEstimate(min(self.size, inputs[0].lower), upper, 1.0)
        return inputs[0].scale(self.fraction)


class Distinct(Operator):
    """Removes duplicate quanta (optionally by key)."""

    def __init__(self, key: Callable[..., Any] | Udf | None = None,
                 name: str = "distinct") -> None:
        super().__init__(name)
        self.key = as_udf(key) if key is not None else None

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        return inputs[0].scale(DEFAULT_DISTINCT_RATIO).widen(
            0.01, 1.0 / DEFAULT_DISTINCT_RATIO, DEFAULT_CONFIDENCE)


class Sort(Operator):
    """Sorts quanta by a key UDF.

    ``batch_key`` optionally computes the whole sort-key column for a
    record batch in one call (must agree with ``key`` per record).
    """

    def __init__(self, key: Callable[..., Any] | Udf | None = None,
                 descending: bool = False, name: str = "sort",
                 batch_key: Callable[..., Any] | None = None) -> None:
        super().__init__(name)
        self.key = as_udf(key) if key is not None else None
        self.descending = descending
        self.batch_key = batch_key

    def estimate_cardinality(self, inputs, ctx):
        return ctx.overrides.get(self.id, _passthrough(inputs))

    def work_factor(self) -> float:
        return 3.0  # n log n, flattened into a constant factor


class GroupBy(Operator):
    """Groups quanta by key; output quanta are ``(key, [members])`` pairs.

    ``sim_groups`` optionally declares the TRUE number of distinct keys at
    simulated scale (e.g. 25 nations regardless of the scale factor); it
    pins both the cardinality estimate and the output's simulated count.
    """

    def __init__(self, key: Callable[..., Any] | Udf, name: str = "groupby",
                 sim_groups: float | None = None) -> None:
        super().__init__(name)
        self.key = as_udf(key)
        self.sim_groups = sim_groups

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        if self.sim_groups is not None:
            return CardinalityEstimate.exact(self.sim_groups)
        return inputs[0].scale(DEFAULT_GROUP_RATIO).widen(
            0.01, 10.0, DEFAULT_CONFIDENCE)


class ReduceBy(Operator):
    """Aggregates quanta per key: output quanta are ``(key, aggregate)``.

    ``reducer(a, b)`` must be associative and commutative.
    """

    def __init__(self, key: Callable[..., Any] | Udf,
                 reducer: Callable[[Any, Any], Any] | Udf,
                 name: str = "reduceby",
                 sim_groups: float | None = None,
                 batch_impl: Callable[..., Any] | None = None) -> None:
        super().__init__(name)
        self.key = as_udf(key)
        self.reducer = as_udf(reducer)
        self.sim_groups = sim_groups
        #: Columnar twin: maps one record batch to its per-key aggregates
        #: (first-occurrence key order, left-fold accumulation — must match
        #: ``key``/``reducer`` record-for-record).  Runs whenever declared.
        self.batch_impl = batch_impl

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        if self.sim_groups is not None:
            return CardinalityEstimate.exact(self.sim_groups)
        return inputs[0].scale(DEFAULT_GROUP_RATIO).widen(
            0.01, 10.0, DEFAULT_CONFIDENCE)

    def work_factor(self) -> float:
        return self.reducer.cpu_weight


class GlobalReduce(Operator):
    """Folds ALL quanta into a single one (paper: Reduce).

    ``reducer(a, b)`` must be associative and commutative.
    """

    def __init__(self, reducer: Callable[[Any, Any], Any] | Udf,
                 name: str = "reduce") -> None:
        super().__init__(name)
        self.reducer = as_udf(reducer)

    def estimate_cardinality(self, inputs, ctx):
        return CardinalityEstimate.exact(1)

    def work_factor(self) -> float:
        return self.reducer.cpu_weight


class Count(Operator):
    """Emits a single quantum: the number of input quanta."""

    def __init__(self, name: str = "count") -> None:
        super().__init__(name)

    def estimate_cardinality(self, inputs, ctx):
        return CardinalityEstimate.exact(1)


class Cache(Operator):
    """Marks its input for reuse (e.g. loop-invariant data)."""

    def __init__(self, name: str = "cache") -> None:
        super().__init__(name)

    def estimate_cardinality(self, inputs, ctx):
        return ctx.overrides.get(self.id, _passthrough(inputs))


# --------------------------------------------------------------------------
# Binary operators
# --------------------------------------------------------------------------
class Union(Operator):
    """Bag union of two inputs."""

    num_inputs = 2

    def __init__(self, name: str = "union") -> None:
        super().__init__(name)

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        return inputs[0].plus(inputs[1])


class Intersect(Operator):
    """Set intersection of two inputs (by quantum equality)."""

    num_inputs = 2

    def __init__(self, name: str = "intersect") -> None:
        super().__init__(name)

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        upper = min(inputs[0].upper, inputs[1].upper)
        return CardinalityEstimate(0, upper, DEFAULT_CONFIDENCE)


class Join(Operator):
    """Equi-join; output quanta are ``(left, right)`` pairs.

    ``sim_mode`` controls how the simulated cardinality of the output
    scales: ``"linear"`` (default) for foreign-key style joins whose output
    grows with the data, ``"product"`` for many-to-many joins whose output
    grows with the product of the input scales (e.g. joining two tables on
    a low-cardinality attribute).
    """

    num_inputs = 2
    SIM_MODES = ("linear", "product")

    def __init__(self, left_key: Callable[..., Any] | Udf,
                 right_key: Callable[..., Any] | Udf,
                 selectivity: float | None = None,
                 name: str = "join", sim_mode: str = "linear",
                 left_key_column: Any = None,
                 right_key_column: Any = None) -> None:
        super().__init__(name)
        if sim_mode not in self.SIM_MODES:
            raise ValueError(f"unknown sim_mode {sim_mode!r}")
        self.left_key = as_udf(left_key)
        self.right_key = as_udf(right_key)
        self.selectivity = selectivity
        self.sim_mode = sim_mode
        #: Column name (dict layout) or position (tuple layout) the key UDFs
        #: project; with both declared, a join whose input already is a
        #: record batch joins columnarly.
        self.left_key_column = left_key_column
        self.right_key_column = right_key_column

    def output_sim_factor(self, left_factor: float,
                          right_factor: float) -> float:
        if self.sim_mode == "product":
            return left_factor * right_factor
        return max(left_factor, right_factor)

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        product = inputs[0].times(inputs[1])
        sel = self.selectivity
        if sel is None:
            return product.scale(DEFAULT_JOIN_SELECTIVITY).widen(0.1, 100.0, 0.3)
        return product.scale(sel)

    def work_factor(self) -> float:
        return 2.0


class CartesianProduct(Operator):
    """Cross product; output quanta are ``(left, right)`` pairs."""

    num_inputs = 2

    def __init__(self, name: str = "cartesian") -> None:
        super().__init__(name)

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        return inputs[0].times(inputs[1])


@dataclass(frozen=True)
class InequalityCondition:
    """One inequality predicate ``left_key(l) <op> right_key(r)``."""

    left_key: Callable[[Any], Any]
    op: str  # one of "<", "<=", ">", ">="
    right_key: Callable[[Any], Any]

    _OPS = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unsupported inequality operator {self.op!r}")

    def holds(self, left: Any, right: Any) -> bool:
        return self._OPS[self.op](self.left_key(left), self.right_key(right))


class IEJoin(Operator):
    """Inequality join on one or two inequality conditions.

    This is the extension operator the paper plugs into Rheem for
    BigDansing (the "Lightning Fast and Space Efficient Inequality Joins"
    algorithm); output quanta are ``(left, right)`` pairs satisfying ALL
    conditions.
    """

    num_inputs = 2

    def __init__(self, conditions: Sequence[InequalityCondition],
                 selectivity: float | None = None,
                 name: str = "iejoin") -> None:
        super().__init__(name)
        if not 1 <= len(conditions) <= 2:
            raise ValueError("IEJoin supports one or two inequality conditions")
        self.conditions = list(conditions)
        self.selectivity = selectivity

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        product = inputs[0].times(inputs[1])
        sel = self.selectivity if self.selectivity is not None else 0.25
        return product.scale(sel).widen(0.01, 2.0, 0.3)

    def work_factor(self) -> float:
        return 4.0


# --------------------------------------------------------------------------
# Graph operator
# --------------------------------------------------------------------------
class PageRank(Operator):
    """Computes PageRank over an edge list.

    Input quanta: ``(src, dst)`` pairs.  Output quanta: ``(vertex, rank)``.
    Maps 1-to-1 onto the graph platforms and m-to-n onto the general
    data-flow platforms (join/reduce subplan), exercising the paper's
    flexible operator mappings.
    """

    def __init__(self, iterations: int = 10, damping: float = 0.85,
                 name: str = "pagerank") -> None:
        super().__init__(name)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.damping = damping

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        # ~one rank per vertex; vertices estimated as a fraction of edges.
        return inputs[0].scale(0.2).widen(0.05, 5.0, DEFAULT_CONFIDENCE)

    def work_factor(self) -> float:
        return 2.0 * self.iterations


# --------------------------------------------------------------------------
# Loops
# --------------------------------------------------------------------------
class LoopInput(SourceOperator):
    """Placeholder source inside a loop body.

    ``index`` 0 is the loop variable; higher indices are the loop-invariant
    side inputs of the enclosing loop operator.
    """

    def __init__(self, index: int, name: str | None = None) -> None:
        super().__init__(name or f"loop-input[{index}]")
        self.index = index
        #: Filled in by the loop's cardinality estimation.
        self.pinned_estimate: CardinalityEstimate | None = None
        #: Filled in by the optimizer's record-size estimation.
        self.pinned_bytes: float | None = None

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        if self.pinned_estimate is not None:
            return self.pinned_estimate
        return CardinalityEstimate(0, 1e9, 0.1)


@dataclass
class SubPlan:
    """A loop body: placeholder inputs plus designated output slots."""

    inputs: list[LoopInput]
    outputs: list[InputRef]

    def __post_init__(self) -> None:
        indices = [inp.index for inp in self.inputs]
        if indices != list(range(len(indices))):
            raise ValueError(f"loop inputs must be indexed 0..k, got {indices}")

    def operators(self) -> list[Operator]:
        """All body operators in topological order.

        Declared inputs are always included, even if the body does not
        consume one of them (the enumerator still needs a channel decision
        for it)."""
        from .plan import topological_order  # local import to avoid a cycle

        roots = [ref.op for ref in self.outputs] + list(self.inputs)
        return topological_order(roots)


class LoopOperator(Operator):
    """Base for loop operators: drives a body sub-plan to convergence.

    Input 0 is the initial loop variable; inputs 1..k are loop-invariant
    datasets the body may read each iteration (the paper's broadcast edges
    into the loop).  Output 0 is the final loop variable.
    """

    def __init__(self, body: SubPlan, num_invariant_inputs: int, name: str) -> None:
        self.num_inputs = 1 + num_invariant_inputs
        super().__init__(name)
        if len(body.inputs) != self.num_inputs:
            raise ValueError(
                f"body declares {len(body.inputs)} inputs, loop has {self.num_inputs}")
        if len(body.outputs) != 1:
            raise ValueError("loop bodies must have exactly one output (the loop var)")
        self.body = body

    def expected_iterations(self) -> int:
        raise NotImplementedError

    def estimate_cardinality(self, inputs, ctx):
        if self.id in ctx.overrides:
            return ctx.overrides[self.id]
        # Pin body placeholders to the incoming estimates, then estimate the
        # body once; loops are assumed cardinality-stable across iterations.
        from .plan import estimate_subplan  # local import to avoid a cycle

        for loop_input, est in zip(self.body.inputs, inputs):
            loop_input.pinned_estimate = est
        return estimate_subplan(self.body, ctx)


class RepeatLoop(LoopOperator):
    """Runs the body a fixed number of times (paper: RepeatLoop)."""

    def __init__(self, iterations: int, body: SubPlan,
                 num_invariant_inputs: int = 0, name: str = "repeat") -> None:
        super().__init__(body, num_invariant_inputs, name)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations

    def expected_iterations(self) -> int:
        return self.iterations


class DoWhileLoop(LoopOperator):
    """Runs the body until ``condition(loop_var_collection)`` is falsy.

    ``expected_iterations`` is the optimizer's guess; the executor stops on
    the real condition (and a ``max_iterations`` safety bound).
    """

    def __init__(self, condition: Callable[[list[Any]], bool] | Udf,
                 body: SubPlan, num_invariant_inputs: int = 0,
                 expected: int = 10, max_iterations: int = 10_000,
                 name: str = "dowhile") -> None:
        super().__init__(body, num_invariant_inputs, name)
        self.condition = as_udf(condition)
        self.expected = expected
        self.max_iterations = max_iterations

    def expected_iterations(self) -> int:
        return self.expected


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------
class SinkOperator(Operator):
    """Base class for operators that terminate a plan branch."""

    is_sink = True
    num_outputs = 1  # sinks expose their result for the driver to fetch


class CollectionSink(SinkOperator):
    """Materializes the result as a driver-side list."""

    def __init__(self, name: str = "collection-sink") -> None:
        super().__init__(name)

    def estimate_cardinality(self, inputs, ctx):
        return ctx.overrides.get(self.id, _passthrough(inputs))


class TextFileSink(SinkOperator):
    """Writes quanta to a (virtual) file, one ``str(quantum)`` per line."""

    def __init__(self, path: str, name: str = "textfile-sink") -> None:
        super().__init__(name)
        self.path = path

    def estimate_cardinality(self, inputs, ctx):
        return ctx.overrides.get(self.id, _passthrough(inputs))
