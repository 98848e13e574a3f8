"""Calibrated synthetic COMPAS-style recidivism dataset.

The paper's second evaluation dataset is the ProPublica extract of COMPAS
scores for 7,214 Broward County defendants.  This module generates a
synthetic population with the same structure:

* race labels with the published Broward-County proportions (African-American
  defendants are the majority group in the data);
* a COMPAS-style **decile score** between 1 and 10 derived from a latent risk
  estimate that is biased against some groups (the calibration target is the
  ProPublica finding that African-American defendants receive systematically
  higher deciles conditional on the same underlying behaviour, and Caucasian
  defendants systematically lower ones);
* a two-year recidivism outcome driven by the *unbiased* latent behaviour,
  which is what makes per-group false-positive-rate gaps appear exactly as in
  the original analysis (Figure 10b).

Ranking convention: as in the paper, the decile score is treated as the
ranking function with *lower being better* — the "selected" set at a given k
is the k% of defendants judged lowest-risk (e.g., recommended for release).
The library negates the decile before ranking so that higher-score-is-better
holds everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ranking import NegatedColumnScore, ScoreFunction
from ..tabular import Table

__all__ = [
    "CompasGeneratorConfig",
    "CompasDataset",
    "COMPAS_RACES",
    "COMPAS_RACE_ATTRIBUTES",
    "compas_release_ranking_function",
    "generate_compas_dataset",
]

#: Race categories as they appear in the ProPublica data, with approximate
#: Broward County proportions.
COMPAS_RACES: dict[str, float] = {
    "African-American": 0.514,
    "Caucasian": 0.340,
    "Hispanic": 0.082,
    "Other": 0.0525,
    "Asian": 0.0044,
    "Native American": 0.0071,
}

#: One-hot fairness attribute column names, in the order Figure 10 plots them.
COMPAS_RACE_ATTRIBUTES: tuple[str, ...] = tuple(
    f"race_{race.lower().replace(' ', '_').replace('-', '_')}" for race in COMPAS_RACES
)

#: Per-race shift (in latent risk standard deviations) applied to the *score*
#: latent but not to the behaviour latent — this is the modelled scoring bias.
_DEFAULT_SCORE_BIAS: dict[str, float] = {
    "African-American": 0.42,
    "Caucasian": -0.26,
    "Hispanic": -0.10,
    "Other": -0.12,
    "Asian": -0.30,
    "Native American": 0.25,
}


@dataclass(frozen=True)
class CompasGeneratorConfig:
    """Calibration knobs for the synthetic COMPAS generator."""

    num_defendants: int = 7_214
    race_proportions: dict[str, float] = field(default_factory=lambda: dict(COMPAS_RACES))
    score_bias: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_SCORE_BIAS))
    #: Weight of true behaviour vs. noise in the COMPAS-style score latent.
    score_signal: float = 0.75
    #: Base two-year recidivism rate of the population.
    base_recidivism_rate: float = 0.45

    def validate(self) -> None:
        if self.num_defendants <= 0:
            raise ValueError(f"num_defendants must be positive, got {self.num_defendants}")
        total = sum(self.race_proportions.values())
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"race proportions must sum to ~1, got {total}")
        if not 0.0 < self.base_recidivism_rate < 1.0:
            raise ValueError(
                f"base_recidivism_rate must be in (0, 1), got {self.base_recidivism_rate}"
            )
        unknown = set(self.score_bias) - set(self.race_proportions)
        if unknown:
            raise ValueError(f"score_bias has unknown races: {sorted(unknown)}")


@dataclass(frozen=True)
class CompasDataset:
    """The generated defendants plus metadata used by the experiments."""

    table: Table
    race_attributes: tuple[str, ...] = COMPAS_RACE_ATTRIBUTES
    config: CompasGeneratorConfig = field(default_factory=CompasGeneratorConfig)

    @property
    def num_defendants(self) -> int:
        return self.table.num_rows

    @property
    def races(self) -> tuple[str, ...]:
        return tuple(self.config.race_proportions.keys())


def race_attribute_name(race: str) -> str:
    """Column name of the one-hot indicator for ``race``."""
    return f"race_{race.lower().replace(' ', '_').replace('-', '_')}"


def compas_release_ranking_function() -> ScoreFunction:
    """Ranking function used in the COMPAS experiments.

    Lower decile scores indicate lower predicted risk, so the release-first
    ranking negates the decile.  Bonus points computed by DCA are added to
    this negated score, which is equivalent to subtracting them from the raw
    decile (the paper's "negative for scenarios where a lower score is
    desirable" framing).
    """
    return NegatedColumnScore("decile_score")


def generate_compas_dataset(
    config: CompasGeneratorConfig | None = None, seed: int = 20160523
) -> CompasDataset:
    """Generate the synthetic COMPAS-style dataset.

    The default seed is fixed so experiments and tests see the same
    population; pass a different seed for robustness checks.
    """
    config = config or CompasGeneratorConfig()
    config.validate()
    rng = np.random.default_rng(seed)
    n = config.num_defendants

    races = list(config.race_proportions.keys())
    proportions = np.asarray([config.race_proportions[r] for r in races], dtype=float)
    proportions = proportions / proportions.sum()
    race_codes = rng.choice(len(races), size=n, p=proportions)
    race_labels = np.asarray(races, dtype=object)[race_codes]

    # Demographics and criminal history.
    age = np.clip(rng.gamma(shape=5.0, scale=7.0, size=n) + 18.0, 18, 85)
    sex_is_male = (rng.uniform(size=n) < 0.81).astype(float)
    priors_count = rng.negative_binomial(2, 0.38, size=n).astype(float)

    # Latent behaviour: what actually drives re-offending.  Younger defendants
    # and defendants with more priors are more likely to re-offend, matching
    # the main effects reported for the original data.
    behaviour = (
        0.55 * (priors_count - priors_count.mean()) / (priors_count.std() + 1e-9)
        - 0.35 * (age - age.mean()) / (age.std() + 1e-9)
        + 0.15 * sex_is_male
        + rng.normal(0.0, 0.8, size=n)
    )

    # Latent score: the COMPAS-style estimate.  It tracks behaviour only
    # partially and carries the per-race bias shifts.
    bias = np.asarray([config.score_bias.get(r, 0.0) for r in races], dtype=float)[race_codes]
    score_latent = (
        config.score_signal * behaviour
        + bias
        + rng.normal(0.0, np.sqrt(max(1e-9, 1.0 - config.score_signal**2)), size=n)
    )

    # Decile scores: rank the score latent and cut into ten equal buckets.
    order = np.argsort(np.argsort(score_latent))
    decile_score = np.floor(10.0 * order / n).astype(float) + 1.0

    # Two-year recidivism outcome follows the behaviour latent only.
    behaviour_percentile = np.argsort(np.argsort(behaviour)) / max(1, n - 1)
    recid_probability = np.clip(
        config.base_recidivism_rate + 0.75 * (behaviour_percentile - 0.5), 0.02, 0.98
    )
    two_year_recid = (rng.uniform(size=n) < recid_probability).astype(float)

    columns: dict[str, object] = {
        "defendant_id": np.arange(n, dtype=float),
        "race": [str(r) for r in race_labels],
        "age": age,
        "sex_male": sex_is_male,
        "priors_count": priors_count,
        "decile_score": decile_score,
        "two_year_recid": two_year_recid,
    }
    for race in races:
        columns[race_attribute_name(race)] = (race_labels == race).astype(float)

    return CompasDataset(table=Table(columns), config=config)
