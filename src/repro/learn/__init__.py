"""Cost-model learning: offline log generation + genetic-algorithm
fitting, plus the online trace → cost-model calibration loop."""

from .calibration import (
    CalibrationCorpus,
    CostCalibrator,
    observation_from_json,
    observation_to_json,
)
from .generator import GeneratorConfig, LogGenerator, TOPOLOGIES
from .genetic import FitResult, GeneticCostLearner, predict_stage
from .loss import corpus_loss, relative_loss, stage_weights
from .persistence import (
    load_params,
    params_from_json,
    params_to_json,
    save_params,
)

__all__ = [
    "CalibrationCorpus",
    "CostCalibrator",
    "GeneratorConfig",
    "LogGenerator",
    "TOPOLOGIES",
    "FitResult",
    "GeneticCostLearner",
    "observation_from_json",
    "observation_to_json",
    "predict_stage",
    "corpus_loss",
    "relative_loss",
    "stage_weights",
    "load_params",
    "params_from_json",
    "params_to_json",
    "save_params",
]
