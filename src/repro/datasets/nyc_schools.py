"""Calibrated synthetic NYC school-admissions cohorts.

The paper evaluates DCA on ~80,000 NYC 7th graders per academic year
(2016-2017 as training data, 2017-2018 as test data), obtained through an
IRB-approved data request.  That data cannot be redistributed, so this module
generates synthetic cohorts calibrated to reproduce the published properties
that drive the experiments:

* marginal prevalences of the fairness attributes (≈70% low-income, ≈13%
  English-language learners, ≈20% special-education students, continuous
  Economic Need Index of the student's school);
* correlations between the fairness attributes and academic performance such
  that the paper's admission rubric (``0.55 * GPA + 0.45 * TestScores`` over
  normalized attributes) produces a *baseline disparity* at a 5% selection
  rate close to Table I (≈ −0.25 low-income, −0.11 ELL, −0.18 ENI, −0.19
  special-ed, norm ≈ 0.37);
* two independent cohorts drawn from the same underlying distribution, so
  bonus points fitted on the "2016-2017" cohort generalize to the
  "2017-2018" cohort exactly as in the paper's train/test protocol.

The generated table contains per-course grades (math, ELA, science, social
studies on a 55-100 scale), state test scores (math and ELA on a 100-400
scale), an attendance column, a district label, and the fairness attributes.
The admission rubric consumes the GPA and test-score averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ranking import WeightedSumScore
from ..tabular import Table
from .copula import GaussianCopula, binary_marginal, uniform_marginal

__all__ = [
    "SchoolGeneratorConfig",
    "SchoolCohort",
    "SCHOOL_FAIRNESS_ATTRIBUTES",
    "school_admission_rubric",
    "generate_school_cohort",
    "generate_school_dataset",
]

#: Fairness attributes used throughout the school experiments, in the order
#: the paper reports them (Table I).
SCHOOL_FAIRNESS_ATTRIBUTES: tuple[str, ...] = ("low_income", "ell", "eni", "special_ed")

#: Number of NYC community school districts; used to emulate the Table II
#: single-district comparison against Multinomial FA*IR.
_NUM_DISTRICTS = 32

#: Every column a generated cohort table carries, in table order.
_COHORT_COLUMNS: tuple[str, ...] = (
    "student_id",
    "grade_math",
    "grade_ela",
    "grade_science",
    "grade_social_studies",
    "test_math",
    "test_ela",
    "gpa",
    "test_scores",
    "absences",
    "district",
    "low_income",
    "ell",
    "special_ed",
    "eni",
)


@dataclass(frozen=True)
class SchoolGeneratorConfig:
    """Calibration knobs for the synthetic school cohort generator.

    The defaults reproduce the paper's published marginals and (approximately)
    its Table I baseline disparity.  They are exposed so ablation experiments
    can explore other populations.
    """

    num_students: int = 80_000
    low_income_rate: float = 0.70
    ell_rate: float = 0.13
    special_ed_rate: float = 0.20
    #: Pairwise latent correlations between the disadvantage dimensions.
    corr_low_income_ell: float = 0.30
    corr_low_income_special_ed: float = 0.12
    corr_low_income_eni: float = 0.66
    corr_ell_special_ed: float = 0.05
    corr_ell_eni: float = 0.32
    corr_special_ed_eni: float = 0.12
    #: Latent correlation between academic ability and each disadvantage
    #: dimension (negative: disadvantaged students score lower on average).
    corr_ability_low_income: float = -0.16
    corr_ability_ell: float = -0.26
    corr_ability_special_ed: float = -0.36
    corr_ability_eni: float = -0.20
    #: Additive penalties (in latent standard-deviation units) applied to the
    #: grade/test latents on top of the ability correlation.  These model the
    #: *direct* effect of each dimension on the measured attributes (e.g. ELA
    #: grades and test scores penalize English-language learners heavily).
    grade_penalty_low_income: float = 0.10
    grade_penalty_ell: float = 0.45
    grade_penalty_special_ed: float = 0.70
    grade_penalty_eni: float = 0.22
    test_penalty_low_income: float = 0.14
    test_penalty_ell: float = 0.80
    test_penalty_special_ed: float = 0.75
    test_penalty_eni: float = 0.30
    #: Observation noise of individual course grades / test subjects.
    grade_noise: float = 0.45
    test_noise: float = 0.40

    def validate(self) -> None:
        if self.num_students <= 0:
            raise ValueError(f"num_students must be positive, got {self.num_students}")
        for name in ("low_income_rate", "ell_rate", "special_ed_rate"):
            rate = getattr(self, name)
            if not 0.0 < rate < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {rate}")


@dataclass(frozen=True)
class SchoolCohort:
    """One synthetic academic-year cohort plus its metadata."""

    year: str
    table: Table
    fairness_attributes: tuple[str, ...] = SCHOOL_FAIRNESS_ATTRIBUTES
    config: SchoolGeneratorConfig = field(default_factory=SchoolGeneratorConfig)

    @property
    def num_students(self) -> int:
        return self.table.num_rows

    def district(self, district_id: int) -> Table:
        """Rows for one community school district (used for Table II)."""
        districts = self.table.numeric("district")
        return self.table.filter(districts == float(district_id))


def school_admission_rubric() -> WeightedSumScore:
    """The paper's screened-admission rubric: 0.55·GPA + 0.45·TestScores.

    Both inputs are min-max normalized over the cohort and the result is put
    on a 100-point scale, so that bonus points are directly interpretable as
    "points out of 100".
    """
    return WeightedSumScore({"gpa": 0.55, "test_scores": 0.45}, normalize=True, scale=100.0)


def _build_copula(config: SchoolGeneratorConfig) -> GaussianCopula:
    """Latent dimensions: low_income, ell, special_ed, eni, ability."""
    marginals = [
        binary_marginal("low_income", config.low_income_rate),
        binary_marginal("ell", config.ell_rate),
        binary_marginal("special_ed", config.special_ed_rate),
        uniform_marginal("eni", 0.05, 0.98),
        uniform_marginal("ability", 0.0, 1.0),  # transform unused; latent kept
    ]
    c = config
    correlation = np.array(
        [
            [1.0, c.corr_low_income_ell, c.corr_low_income_special_ed, c.corr_low_income_eni, c.corr_ability_low_income],
            [c.corr_low_income_ell, 1.0, c.corr_ell_special_ed, c.corr_ell_eni, c.corr_ability_ell],
            [c.corr_low_income_special_ed, c.corr_ell_special_ed, 1.0, c.corr_special_ed_eni, c.corr_ability_special_ed],
            [c.corr_low_income_eni, c.corr_ell_eni, c.corr_special_ed_eni, 1.0, c.corr_ability_eni],
            [c.corr_ability_low_income, c.corr_ability_ell, c.corr_ability_special_ed, c.corr_ability_eni, 1.0],
        ]
    )
    return GaussianCopula(marginals, correlation)


def _grade_scale(latent: np.ndarray) -> np.ndarray:
    """Map a standard-normal latent to a 55-100 report-card grade."""
    return np.clip(82.0 + 9.0 * latent, 55.0, 100.0)


def _test_scale(latent: np.ndarray) -> np.ndarray:
    """Map a standard-normal latent to a 100-400 state-test scale score."""
    return np.clip(300.0 + 35.0 * latent, 100.0, 400.0)


def generate_school_cohort(
    year: str,
    config: SchoolGeneratorConfig | None = None,
    seed: int | None = None,
) -> SchoolCohort:
    """Generate one synthetic academic-year cohort.

    Parameters
    ----------
    year:
        Label such as ``"2016-2017"``; also used to derive the default seed so
        the two paper cohorts differ but are individually reproducible.
    config:
        Calibration parameters; defaults reproduce the paper's setting.
    seed:
        Explicit RNG seed.  When omitted, a deterministic seed is derived from
        ``year`` so repeated calls return identical cohorts.
    """
    config = config or SchoolGeneratorConfig()
    config.validate()
    if seed is None:
        seed = abs(hash(("nyc-schools", year))) % (2**32)
    rng = np.random.default_rng(seed)

    out = {
        name: np.empty(config.num_students, dtype=float) for name in _COHORT_COLUMNS
    }
    copula = _build_copula(config)
    latent = copula.latent_and_sample_into(config.num_students, rng, out)
    low_income = out["low_income"]
    ell = out["ell"]
    special_ed = out["special_ed"]
    eni = out["eni"]
    ability = latent[:, 4]

    grade_shift = (
        -config.grade_penalty_low_income * low_income
        - config.grade_penalty_ell * ell
        - config.grade_penalty_special_ed * special_ed
        - config.grade_penalty_eni * eni
    )
    test_shift = (
        -config.test_penalty_low_income * low_income
        - config.test_penalty_ell * ell
        - config.test_penalty_special_ed * special_ed
        - config.test_penalty_eni * eni
    )

    def course_grade(extra_penalty: np.ndarray | float = 0.0) -> np.ndarray:
        noise = rng.normal(0.0, config.grade_noise, config.num_students)
        return _grade_scale(ability + grade_shift + extra_penalty + noise)

    # ELA-related subjects carry an extra ELL penalty, mirroring the paper's
    # observation that ELL students are "obviously disadvantaged by an
    # admission method that takes into account ELA grades and test scores".
    extra_ela_penalty = -0.35 * ell
    out["grade_math"][...] = course_grade()
    out["grade_ela"][...] = course_grade(extra_ela_penalty)
    out["grade_science"][...] = course_grade()
    out["grade_social_studies"][...] = course_grade(extra_ela_penalty * 0.5)

    out["test_math"][...] = _test_scale(
        ability + test_shift + rng.normal(0.0, config.test_noise, config.num_students)
    )
    out["test_ela"][...] = _test_scale(
        ability + test_shift + 2.0 * extra_ela_penalty + rng.normal(0.0, config.test_noise, config.num_students)
    )

    out["gpa"][...] = (
        out["grade_math"] + out["grade_ela"] + out["grade_science"] + out["grade_social_studies"]
    ) / 4.0
    out["test_scores"][...] = (out["test_math"] + out["test_ela"]) / 2.0

    out["absences"][...] = np.clip(
        rng.poisson(4.0 + 6.0 * eni + 2.0 * low_income), 0, 60
    ).astype(float)
    # Districts with higher ids lean higher-need in this synthetic city, which
    # gives per-district experiments a realistic spread of demographics.
    out["district"][...] = np.clip(
        np.floor(_NUM_DISTRICTS * (0.55 * eni + 0.45 * rng.uniform(size=config.num_students))) + 1,
        1,
        _NUM_DISTRICTS,
    ).astype(float)
    out["student_id"][...] = np.arange(config.num_students, dtype=float)

    table = Table({name: out[name] for name in _COHORT_COLUMNS})
    return SchoolCohort(year=year, table=table, config=config)


def generate_school_dataset(
    config: SchoolGeneratorConfig | None = None,
    train_seed: int = 20162017,
    test_seed: int = 20172018,
) -> tuple[SchoolCohort, SchoolCohort]:
    """Generate the (training, test) cohort pair used throughout the evaluation.

    The two cohorts are independent draws from the same distribution, exactly
    mirroring the paper's use of the 2016-2017 year for fitting bonus points
    and the 2017-2018 year for measuring how well they generalize.
    """
    train = generate_school_cohort("2016-2017", config=config, seed=train_seed)
    test = generate_school_cohort("2017-2018", config=config, seed=test_seed)
    return train, test
