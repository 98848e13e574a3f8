"""End-to-end admissions: DCA bonuses inside a district-scale deferred-acceptance match.

This is the paper's motivating scenario run as a first-class experiment
rather than a toy script: a district of screened schools, each ranking its
applicants with its own (noisy) rubric, students ranking schools, and the
student-proposing deferred-acceptance algorithm computing the assignment.
Because a school does not know in advance how far down its ranked list it
will admit, each school's bonus vector is fitted with the **log-discounted**
objective on last year's cohort — one :class:`~repro.core.dca.FitSpec` per
school, batched through :meth:`repro.core.DCA.fit_many`.

Pipeline
--------

1. fit per-school log-discounted DCA bonus vectors on the training cohort
   (``fit_many`` over one spec per school, distinct seeds);
2. build the ``(num_schools, num_students)`` score planes for the test cohort
   — the shared admission rubric plus a small per-school screening noise,
   with and without each school's bonus points;
3. generate student preference lists (vectorized popularity + Gumbel model)
   and run the round-based deferred-acceptance match on both planes;
4. report per-school admitted-class demographics, the per-attribute
   representation gap against the population shares, and the rank-of-match
   distribution of both matches.

The experiment runs under the CLI as ``repro-experiments run matching`` and
scales to district size: the ``district_match`` workload of the repo
benchmark (``perfbench/``) runs this pipeline at 200k students × 8 schools.
"""

from __future__ import annotations

import numpy as np

from ..core import LogDiscountedDisparityObjective
from ..core.dca import FitSpec
from ..matching import PROPOSING_SIDES, deferred_acceptance, generate_student_preferences
from ..tabular import Table
from .harness import ExperimentResult
from .setting import SchoolSetting

__all__ = ["run", "MatchingSetting"]

#: Fraction of the applicant cohort that finds a seat across all schools.
DEFAULT_SEAT_FRACTION = 0.15


class MatchingSetting:
    """The admissions-match configuration on top of :class:`SchoolSetting`.

    Bundles everything the match needs beyond the DCA setting itself: the
    number of screened schools, their capacities (an even split of
    ``seat_fraction`` of the applicant cohort), the preference-list length,
    and the per-school screening noise that makes each school's rubric its
    own.
    """

    def __init__(
        self,
        num_students: int | None = None,
        num_schools: int = 6,
        list_length: int = 5,
        seat_fraction: float = DEFAULT_SEAT_FRACTION,
        screening_noise: float = 0.05,
        seed: int = 11,
        proposing: str = "students",
    ) -> None:
        if num_schools <= 0:
            raise ValueError(f"num_schools must be positive, got {num_schools}")
        if not 0.0 < seat_fraction <= 1.0:
            raise ValueError(f"seat_fraction must be in (0, 1], got {seat_fraction}")
        # Validate the proposing side eagerly: the per-school DCA fits run
        # before the match does, and a typo'd side should not cost minutes
        # of fitting before it fails.
        if proposing not in PROPOSING_SIDES:
            raise ValueError(
                f"unknown proposing side {proposing!r}; expected one of {PROPOSING_SIDES}"
            )
        self.setting = SchoolSetting(num_students=num_students)
        self.num_schools = int(num_schools)
        self.list_length = int(list_length)
        self.screening_noise = float(screening_noise)
        self.seed = int(seed)
        self.proposing = proposing
        num_applicants = self.setting.test.table.num_rows
        self.capacities = [
            int(seat_fraction * num_applicants / num_schools)
        ] * self.num_schools

    # ------------------------------------------------------------------
    def fit_school_bonuses(self, max_k: float):
        """One log-discounted bonus vector per school via ``fit_many``."""
        objective = LogDiscountedDisparityObjective(self.setting.fairness_attributes)
        specs = [
            FitSpec(
                k=max_k,
                seed=self.seed + school,
                objective=objective,
                label=f"school {school}",
            )
            for school in range(self.num_schools)
        ]
        return self.setting.fit_dca_batch(specs)

    def score_planes(self, fits) -> tuple[np.ndarray, np.ndarray]:
        """(baseline, compensated) ``(num_schools, num_students)`` score planes.

        Every school scores applicants with the shared rubric plus its own
        small screening noise; the compensated plane adds that school's
        fitted bonus points on top of the same noisy rubric.
        """
        table = self.setting.test.table
        base = self.setting.base_scores("test")
        rng = np.random.default_rng(self.seed)
        noise_scale = self.screening_noise * float(np.std(base))
        noise = rng.normal(0.0, noise_scale, size=(self.num_schools, base.shape[0]))
        baseline = base[np.newaxis, :] + noise
        compensated = np.vstack(
            [fit.bonus.apply(table, baseline[school]) for school, fit in enumerate(fits)]
        )
        return baseline, compensated

    def preferences(self) -> np.ndarray:
        return generate_student_preferences(
            self.setting.test.table.num_rows,
            self.num_schools,
            list_length=self.list_length,
            rng=np.random.default_rng(self.seed),
            as_matrix=True,
        )

    def match(self, score_plane: np.ndarray, preferences: np.ndarray):
        return deferred_acceptance(
            preferences, score_plane, self.capacities, proposing=self.proposing
        )


def _admitted_shares(table: Table, roster, attributes) -> dict[str, float]:
    """Share of each fairness group among one school's admitted students."""
    if not roster:
        return {name: 0.0 for name in attributes}
    admitted = table.take(np.asarray(roster, dtype=np.int64))
    return {name: float(np.mean(admitted.numeric(name))) for name in attributes}


def _demographics_rows(setting: MatchingSetting, match, attributes):
    table = setting.setting.test.table
    rows = []
    for school in range(setting.num_schools):
        roster = match.roster(school)
        row: dict[str, object] = {
            "school": school,
            "seats": setting.capacities[school],
            "admitted": len(roster),
        }
        row.update(_admitted_shares(table, roster, attributes))
        rows.append(row)
    return rows


def _representation_gap(rows, population: dict[str, float], attributes) -> float:
    """Mean absolute deviation of admitted shares from the population shares."""
    gaps = [
        abs(float(row[name]) - population[name])
        for row in rows
        for name in attributes
        if row["admitted"]
    ]
    return float(np.mean(gaps)) if gaps else 0.0


def _rank_row(series: str, match, list_length: int) -> dict[str, object]:
    counts = match.rank_distribution(list_length)
    row: dict[str, object] = {"series": series}
    row.update({f"choice_{rank + 1}": int(counts[rank]) for rank in range(list_length)})
    row["unmatched"] = int(counts[list_length])
    return row


def run(
    num_students: int | None = None,
    num_schools: int = 6,
    list_length: int = 5,
    max_k: float = 0.5,
    seat_fraction: float = DEFAULT_SEAT_FRACTION,
    proposing: str = "students",
) -> ExperimentResult:
    """Run the full DCA → deferred-acceptance → demographics pipeline.

    ``proposing`` selects the side that proposes: ``"students"``
    (default, the student-optimal matching — what the NYC match runs) or
    ``"schools"`` (the school-optimal matching, useful for quantifying how
    much the choice of proposing side costs students).
    """
    setting = MatchingSetting(
        num_students=num_students,
        num_schools=num_schools,
        list_length=list_length,
        seat_fraction=seat_fraction,
        proposing=proposing,
    )
    attributes = setting.setting.fairness_attributes
    result = ExperimentResult(
        name="matching",
        description=(
            "Admitted-class demographics of a deferred-acceptance match, with and "
            "without per-school log-discounted DCA bonus points"
        ),
    )

    fits = setting.fit_school_bonuses(max_k)
    baseline_plane, compensated_plane = setting.score_planes(fits)
    preferences = setting.preferences()
    baseline_match = setting.match(baseline_plane, preferences)
    compensated_match = setting.match(compensated_plane, preferences)

    table = setting.setting.test.table
    population = {name: float(np.mean(table.numeric(name))) for name in attributes}
    result.add_table("population shares", [dict(population)])

    baseline_rows = _demographics_rows(setting, baseline_match, attributes)
    compensated_rows = _demographics_rows(setting, compensated_match, attributes)
    result.add_table("admitted demographics (uncorrected rubric)", baseline_rows)
    result.add_table("admitted demographics (with bonus points)", compensated_rows)

    result.add_table(
        "representation gap vs population (mean abs deviation)",
        [
            {
                "series": "uncorrected rubric",
                "gap": _representation_gap(baseline_rows, population, attributes),
            },
            {
                "series": "with bonus points",
                "gap": _representation_gap(compensated_rows, population, attributes),
            },
        ],
    )
    result.add_table(
        "rank of match",
        [
            _rank_row("uncorrected rubric", baseline_match, setting.list_length),
            _rank_row("with bonus points", compensated_match, setting.list_length),
        ],
    )
    for fit in fits:
        result.add_note(f"{fit.label} bonus vector: {fit.result.as_dict()}")
    result.add_note(
        f"proposing={proposing}; proposals: "
        f"baseline={baseline_match.proposals_made}, "
        f"compensated={compensated_match.proposals_made}"
    )
    result.add_note(
        "With bonus points the admitted classes sit much closer to the population "
        "shares, even though each school's admission cut-off was not known when "
        "the bonus points were fitted."
    )
    return result
