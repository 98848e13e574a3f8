"""Tests for the synthetic dataset generators (repro.datasets)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DisparityCalculator
from repro.datasets import (
    COMPAS_RACE_ATTRIBUTES,
    COMPAS_RACES,
    CompasGeneratorConfig,
    GaussianCopula,
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    binary_marginal,
    clear_dataset_cache,
    clipped_normal_marginal,
    compas_release_ranking_function,
    generate_compas_dataset,
    generate_school_cohort,
    generate_school_dataset,
    load_compas,
    load_dataset,
    load_school_cohorts,
    nearest_correlation_matrix,
    race_attribute_name,
    register_dataset,
    school_admission_rubric,
    uniform_marginal,
)
from repro.tabular import Table


class TestCopula:
    def test_binary_marginal_prevalence(self, rng):
        copula = GaussianCopula([binary_marginal("flag", 0.3)], np.eye(1))
        sample = copula.sample(20_000, rng)
        assert sample["flag"].mean() == pytest.approx(0.3, abs=0.02)

    def test_uniform_marginal_range(self, rng):
        copula = GaussianCopula([uniform_marginal("u", 2.0, 4.0)], np.eye(1))
        sample = copula.sample(5_000, rng)["u"]
        assert sample.min() >= 2.0
        assert sample.max() <= 4.0

    def test_clipped_normal_marginal(self, rng):
        copula = GaussianCopula(
            [clipped_normal_marginal("x", mean=10.0, std=2.0, low=5.0, high=15.0)], np.eye(1)
        )
        sample = copula.sample(5_000, rng)["x"]
        assert sample.min() >= 5.0
        assert sample.max() <= 15.0
        assert sample.mean() == pytest.approx(10.0, abs=0.2)

    def test_correlation_is_respected(self, rng):
        correlation = np.array([[1.0, 0.8], [0.8, 1.0]])
        copula = GaussianCopula(
            [binary_marginal("a", 0.5), binary_marginal("b", 0.5)], correlation
        )
        sample = copula.sample(30_000, rng)
        observed = np.corrcoef(sample["a"], sample["b"])[0, 1]
        assert observed > 0.4  # strong positive association survives binarization

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            GaussianCopula([binary_marginal("a", 0.5)], np.eye(2))
        with pytest.raises(ValueError):
            binary_marginal("a", 1.5)
        with pytest.raises(ValueError):
            uniform_marginal("a", 3.0, 1.0)
        with pytest.raises(ValueError):
            clipped_normal_marginal("a", 0.0, 0.0)

    def test_sample_size_positive(self, rng):
        copula = GaussianCopula([binary_marginal("a", 0.5)], np.eye(1))
        with pytest.raises(ValueError):
            copula.sample(0, rng)

    def test_nearest_correlation_fixes_indefinite_matrix(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        fixed = nearest_correlation_matrix(bad)
        eigenvalues = np.linalg.eigvalsh(fixed)
        assert eigenvalues.min() >= -1e-10
        assert np.allclose(np.diag(fixed), 1.0)


class TestSchoolGenerator:
    @pytest.fixture(scope="class")
    def cohort(self):
        return generate_school_cohort("unit-test", SchoolGeneratorConfig(num_students=20_000), seed=5)

    def test_size_and_columns(self, cohort):
        assert cohort.num_students == 20_000
        for name in SCHOOL_FAIRNESS_ATTRIBUTES + ("gpa", "test_scores", "district"):
            assert name in cohort.table

    def test_marginal_prevalences(self, cohort):
        rates = cohort.table.group_rates(["low_income", "ell", "special_ed"])
        assert rates["low_income"] == pytest.approx(0.70, abs=0.03)
        assert rates["ell"] == pytest.approx(0.13, abs=0.02)
        assert rates["special_ed"] == pytest.approx(0.20, abs=0.02)

    def test_eni_in_unit_interval(self, cohort):
        eni = cohort.table.numeric("eni")
        assert eni.min() >= 0.0
        assert eni.max() <= 1.0

    def test_grades_and_tests_in_published_ranges(self, cohort):
        assert cohort.table.numeric("grade_math").min() >= 55.0
        assert cohort.table.numeric("grade_math").max() <= 100.0
        assert cohort.table.numeric("test_ela").min() >= 100.0
        assert cohort.table.numeric("test_ela").max() <= 400.0

    def test_disadvantaged_students_score_lower(self, cohort):
        table = cohort.table
        scores = school_admission_rubric().scores(table)
        low_income = table.numeric("low_income") > 0.5
        assert scores[low_income].mean() < scores[~low_income].mean()

    def test_baseline_disparity_matches_table_one_shape(self, cohort):
        """The calibrated generator should land near the paper's baseline."""
        table = cohort.table
        scores = school_admission_rubric().scores(table)
        calculator = DisparityCalculator(SCHOOL_FAIRNESS_ATTRIBUTES).fit(table)
        disparity = calculator.disparity(table, scores, 0.05)
        assert -0.32 < disparity["low_income"] < -0.12
        assert -0.20 < disparity["ell"] < -0.06
        assert -0.26 < disparity["eni"] < -0.10
        assert -0.22 < disparity["special_ed"] < -0.14
        assert 0.28 < disparity.norm < 0.48

    def test_reproducible_given_seed(self):
        config = SchoolGeneratorConfig(num_students=1_000)
        a = generate_school_cohort("2016-2017", config)
        b = generate_school_cohort("2016-2017", config)
        assert a.table == b.table

    def test_train_and_test_are_different_draws(self):
        config = SchoolGeneratorConfig(num_students=1_000)
        train, test = generate_school_dataset(config)
        assert train.table != test.table
        assert train.year == "2016-2017"
        assert test.year == "2017-2018"

    def test_district_selection(self, cohort):
        district = cohort.district(10)
        assert district.num_rows > 0
        assert np.all(district.numeric("district") == 10.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchoolGeneratorConfig(num_students=0).validate()
        with pytest.raises(ValueError):
            SchoolGeneratorConfig(low_income_rate=1.5).validate()

    def test_rubric_weights_match_paper(self):
        rubric = school_admission_rubric()
        assert rubric.weights == {"gpa": 0.55, "test_scores": 0.45}
        assert rubric.scale == 100.0


class TestCompasGenerator:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_compas_dataset(CompasGeneratorConfig(num_defendants=6_000), seed=3)

    def test_size_and_columns(self, dataset):
        assert dataset.num_defendants == 6_000
        for name in ("decile_score", "two_year_recid", "race") + COMPAS_RACE_ATTRIBUTES:
            assert name in dataset.table

    def test_default_size_matches_paper(self):
        assert CompasGeneratorConfig().num_defendants == 7_214

    def test_race_proportions(self, dataset):
        shares = {
            race: float(np.mean(dataset.table.numeric(race_attribute_name(race))))
            for race in COMPAS_RACES
        }
        assert shares["African-American"] == pytest.approx(0.514, abs=0.03)
        assert shares["Caucasian"] == pytest.approx(0.34, abs=0.03)

    def test_race_indicators_are_one_hot(self, dataset):
        matrix = dataset.table.matrix(list(COMPAS_RACE_ATTRIBUTES))
        assert np.all(matrix.sum(axis=1) == 1.0)

    def test_decile_scores_cover_one_to_ten(self, dataset):
        deciles = dataset.table.numeric("decile_score")
        assert set(np.unique(deciles)) == set(float(i) for i in range(1, 11))

    def test_deciles_roughly_uniform(self, dataset):
        deciles = dataset.table.numeric("decile_score")
        counts = np.bincount(deciles.astype(int))[1:]
        assert counts.min() > 0.8 * counts.mean()

    def test_score_bias_direction(self, dataset):
        """African-American defendants receive higher deciles than Caucasian ones."""
        table = dataset.table
        aa = table.numeric(race_attribute_name("African-American")) > 0.5
        white = table.numeric(race_attribute_name("Caucasian")) > 0.5
        deciles = table.numeric("decile_score")
        assert deciles[aa].mean() > deciles[white].mean() + 0.5

    def test_recidivism_correlates_with_behaviour_not_only_race(self, dataset):
        table = dataset.table
        recid = table.numeric("two_year_recid")
        priors = table.numeric("priors_count")
        assert np.corrcoef(recid, priors)[0, 1] > 0.1

    def test_baseline_release_disparity_shape(self, dataset):
        """Figure 10a baseline: AA under-represented among the lowest-risk k%."""
        table = dataset.table
        scores = compas_release_ranking_function().scores(table)
        calculator = DisparityCalculator(COMPAS_RACE_ATTRIBUTES).fit(table)
        disparity = calculator.disparity(table, scores, 0.2)
        assert disparity[race_attribute_name("African-American")] < -0.1
        assert disparity[race_attribute_name("Caucasian")] > 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompasGeneratorConfig(num_defendants=0).validate()
        with pytest.raises(ValueError):
            CompasGeneratorConfig(race_proportions={"A": 0.2}).validate()
        with pytest.raises(ValueError):
            CompasGeneratorConfig(base_recidivism_rate=0.0).validate()

    def test_reproducible_given_seed(self):
        config = CompasGeneratorConfig(num_defendants=500)
        assert generate_compas_dataset(config, seed=1).table == generate_compas_dataset(config, seed=1).table


class TestRegistry:
    def test_school_cache_returns_same_object(self):
        clear_dataset_cache()
        first = load_school_cohorts(num_students=1_000)
        second = load_school_cohorts(num_students=1_000)
        assert first is second
        clear_dataset_cache()

    def test_refresh_regenerates(self):
        clear_dataset_cache()
        first = load_school_cohorts(num_students=1_000)
        second = load_school_cohorts(num_students=1_000, refresh=True)
        assert first is not second
        clear_dataset_cache()

    def test_compas_cache(self):
        clear_dataset_cache()
        assert load_compas(num_defendants=500) is load_compas(num_defendants=500)
        clear_dataset_cache()

    def test_load_dataset_builtins(self):
        clear_dataset_cache()
        assert load_dataset("compas") is load_compas()
        clear_dataset_cache()

    def test_register_and_load_custom(self):
        register_dataset("tiny", lambda: Table({"x": [1.0]}))
        loaded = load_dataset("tiny")
        assert loaded.num_rows == 1
        assert load_dataset("tiny") is loaded  # cached
        clear_dataset_cache()

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("does-not-exist")

    def test_register_requires_name(self):
        with pytest.raises(ValueError):
            register_dataset("", lambda: None)
