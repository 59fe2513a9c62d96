"""The cross-platform core: plans, optimizer, executor, monitor."""

from .cardinality import CardinalityEstimate
from .channels import (
    Channel,
    ChannelConversionError,
    ChannelConversionGraph,
    ChannelDescriptor,
    Conversion,
    ConversionPath,
    ConversionTree,
    HDFS_FILE,
    LOCAL_FILE,
)
from .context import DataQuanta, RheemContext
from .cost import CostEstimate, CostModel, OperatorCostParams
from .executor import ExecutionResult, Executor, Sniffer
from .faults import FaultInjector, PlatformFailure
from .mappings import ExecutionAlternative, MappingRegistry, OperatorMapping
from .monitor import Monitor
from .objectives import Objective, RUNTIME, monetary, price_of
from .optimizer import OptimizationError, Optimizer
from .plan import PlanValidationError, RheemPlan
from .progressive import (PausedJob, ProgressiveReport,
    execute_progressively, run_to_checkpoint)
from .udf import Udf, as_udf

__all__ = [
    "CardinalityEstimate",
    "Channel",
    "ChannelConversionError",
    "ChannelConversionGraph",
    "ChannelDescriptor",
    "Conversion",
    "ConversionPath",
    "ConversionTree",
    "HDFS_FILE",
    "LOCAL_FILE",
    "DataQuanta",
    "RheemContext",
    "CostEstimate",
    "CostModel",
    "OperatorCostParams",
    "ExecutionResult",
    "Executor",
    "Sniffer",
    "FaultInjector",
    "PlatformFailure",
    "ExecutionAlternative",
    "MappingRegistry",
    "OperatorMapping",
    "Monitor",
    "Objective",
    "RUNTIME",
    "monetary",
    "price_of",
    "OptimizationError",
    "Optimizer",
    "PlanValidationError",
    "RheemPlan",
    "PausedJob",
    "ProgressiveReport",
    "execute_progressively",
    "run_to_checkpoint",
    "Udf",
    "as_udf",
]
