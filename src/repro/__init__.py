"""repro — reproduction of *Explainable Disparity Compensation for Efficient Fair Ranking*.

The package is organized as:

* :mod:`repro.core` — the paper's contribution: bonus-point vectors, the
  Disparity metric (plain and log-discounted), the DCA optimizer, pluggable
  fairness objectives, the utility/fairness calibration helpers, and the
  batched/parallel fitting backends (:mod:`repro.core.parallel`).
* :mod:`repro.tabular` — a small columnar-table substrate (pandas stand-in).
* :mod:`repro.ranking` — score-based ranking functions and top-k selection.
* :mod:`repro.datasets` — calibrated synthetic NYC-schools and COMPAS data.
* :mod:`repro.matching` — deferred-acceptance matching (school admissions).
* :mod:`repro.metrics` — nDCG, exposure/DDP, disparate impact, FPR gaps.
* :mod:`repro.baselines` — quota set-asides, FA*IR, Multinomial FA*IR, (Δ+2).
* :mod:`repro.experiments` — one module per paper table/figure plus a CLI.

Quickstart::

    from repro import DCA, DCAConfig
    from repro.datasets import (
        SCHOOL_FAIRNESS_ATTRIBUTES,
        load_school_cohorts,
        school_admission_rubric,
    )

    train, test = load_school_cohorts()
    dca = DCA(SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), k=0.05)
    result = dca.fit(train.table)
    print(result.summary())
"""

from .core import (
    DCA,
    Adam,
    BonusVector,
    DCAConfig,
    DCAResult,
    DisparateImpactObjective,
    DisparityCalculator,
    DisparityObjective,
    DisparityResult,
    ExposureGapObjective,
    FairnessObjective,
    FalsePositiveRateObjective,
    LogDiscountedDisparity,
    LogDiscountedDisparityObjective,
)
from .ranking import Ranking, ScoreFunction, WeightedSumScore, rank_table
from .tabular import Table

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Table",
    "Ranking",
    "rank_table",
    "ScoreFunction",
    "WeightedSumScore",
    "DCA",
    "DCAConfig",
    "DCAResult",
    "BonusVector",
    "Adam",
    "DisparityCalculator",
    "DisparityResult",
    "LogDiscountedDisparity",
    "FairnessObjective",
    "DisparityObjective",
    "LogDiscountedDisparityObjective",
    "DisparateImpactObjective",
    "FalsePositiveRateObjective",
    "ExposureGapObjective",
]
