"""Synthetic, calibrated datasets standing in for the paper's restricted data."""

from .compas import (
    COMPAS_RACE_ATTRIBUTES,
    COMPAS_RACES,
    CompasDataset,
    CompasGeneratorConfig,
    compas_release_ranking_function,
    generate_compas_dataset,
    race_attribute_name,
)
from .copula import (
    GaussianCopula,
    MarginalSpec,
    binary_marginal,
    clipped_normal_marginal,
    nearest_correlation_matrix,
    uniform_marginal,
)
from .nyc_schools import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolCohort,
    SchoolGeneratorConfig,
    generate_school_cohort,
    generate_school_dataset,
    school_admission_rubric,
)
from .registry import (
    clear_dataset_cache,
    load_compas,
    load_dataset,
    load_school_cohorts,
    register_dataset,
)

__all__ = [
    "GaussianCopula",
    "MarginalSpec",
    "binary_marginal",
    "uniform_marginal",
    "clipped_normal_marginal",
    "nearest_correlation_matrix",
    "SchoolGeneratorConfig",
    "SchoolCohort",
    "SCHOOL_FAIRNESS_ATTRIBUTES",
    "school_admission_rubric",
    "generate_school_cohort",
    "generate_school_dataset",
    "CompasGeneratorConfig",
    "CompasDataset",
    "COMPAS_RACES",
    "COMPAS_RACE_ATTRIBUTES",
    "compas_release_ranking_function",
    "generate_compas_dataset",
    "race_attribute_name",
    "load_school_cohorts",
    "load_compas",
    "load_dataset",
    "register_dataset",
    "clear_dataset_cache",
]
