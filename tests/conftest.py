"""Shared fixtures for the test suite.

The synthetic cohorts used throughout are reduced in size (a few thousand
rows) so the full suite runs in a couple of minutes, and they are cached at
session scope through the dataset registry so repeated fixtures are cheap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DCAConfig
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    CompasGeneratorConfig,
    SchoolGeneratorConfig,
    generate_compas_dataset,
    generate_school_dataset,
    school_admission_rubric,
)
from repro.tabular import Table

#: Small cohort size used by most tests; large enough for the top-5% selection
#: to contain a few hundred students.
TEST_COHORT_SIZE = 6_000


@pytest.fixture(scope="session")
def school_cohorts():
    """A (train, test) pair of reduced-size synthetic school cohorts."""
    config = SchoolGeneratorConfig(num_students=TEST_COHORT_SIZE)
    return generate_school_dataset(config)


@pytest.fixture(scope="session")
def school_train(school_cohorts):
    return school_cohorts[0]


@pytest.fixture(scope="session")
def school_test(school_cohorts):
    return school_cohorts[1]


@pytest.fixture(scope="session")
def rubric():
    return school_admission_rubric()


@pytest.fixture(scope="session")
def school_attributes():
    return SCHOOL_FAIRNESS_ATTRIBUTES


@pytest.fixture(scope="session")
def compas_dataset():
    """A reduced-size synthetic COMPAS dataset."""
    return generate_compas_dataset(CompasGeneratorConfig(num_defendants=3_000), seed=99)


@pytest.fixture(scope="session")
def fast_dca_config():
    """A DCA configuration small enough for unit tests but still effective."""
    return DCAConfig(
        learning_rates=(1.0, 0.1),
        iterations=80,
        refinement_iterations=160,
        averaging_window=100,
        sample_size=500,
        seed=123,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def toy_table():
    """A tiny hand-written table with one binary and one continuous attribute.

    Scores are arranged so the top half is mostly non-protected, producing a
    clearly negative disparity for ``protected``.
    """
    scores = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    protected = [0, 0, 0, 1, 0, 1, 1, 0, 1, 1]
    income = [0.9, 0.8, 0.85, 0.3, 0.7, 0.2, 0.25, 0.6, 0.1, 0.15]
    return Table({"score": scores, "protected": protected, "income": income})


@pytest.fixture
def cleared_objective_cache():
    """The process-wide compiled-objective cache, emptied before and after the test."""
    from repro.core import default_objective_cache

    cache = default_objective_cache()
    cache.clear()
    yield cache
    cache.clear()
