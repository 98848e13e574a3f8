"""The paper's primary contribution: bonus-point disparity compensation (DCA)."""

from .adam import Adam
from .bonus import BonusVector, apply_bonus, compensate_scores
from .calibration import (
    TradeoffPoint,
    proportion_for_disparity,
    proportion_for_utility,
    proportion_sweep,
)
from .config import DCAConfig
from .dca import DCA, BatchFitResult, FitSpec
from .disparity import (
    AttributeNormalizer,
    DisparityCalculator,
    DisparityResult,
    LogDiscountedDisparity,
    default_k_grid,
    disparity_norm,
    disparity_vector,
)
from .objectives import (
    CompiledObjective,
    DisparateImpactObjective,
    DisparityObjective,
    ExposureGapObjective,
    FairnessObjective,
    FalsePositiveRateObjective,
    LogDiscountedDisparityObjective,
)
from .parallel import (
    CompiledObjectiveCache,
    current_execution,
    default_objective_cache,
    use_execution,
)
from .result import DCAResult, DCATrace
from .sampling import SampleStream, rarest_group_frequency, recommended_sample_size

__all__ = [
    "Adam",
    "BonusVector",
    "apply_bonus",
    "compensate_scores",
    "DCAConfig",
    "DCA",
    "FitSpec",
    "BatchFitResult",
    "DCAResult",
    "DCATrace",
    "CompiledObjective",
    "CompiledObjectiveCache",
    "default_objective_cache",
    "use_execution",
    "current_execution",
    "AttributeNormalizer",
    "DisparityCalculator",
    "DisparityResult",
    "LogDiscountedDisparity",
    "default_k_grid",
    "disparity_vector",
    "disparity_norm",
    "FairnessObjective",
    "DisparityObjective",
    "LogDiscountedDisparityObjective",
    "DisparateImpactObjective",
    "FalsePositiveRateObjective",
    "ExposureGapObjective",
    "SampleStream",
    "rarest_group_frequency",
    "recommended_sample_size",
    "TradeoffPoint",
    "proportion_sweep",
    "proportion_for_utility",
    "proportion_for_disparity",
]
