"""Common experimental setting shared by the reproduction experiments.

The paper's Section V fixes a single configuration for most experiments
(rubric, default 5% selection, fairness attributes, DCA hyper-parameters,
sample size 500, bonus granularity 0.5).  Bundling that configuration here
keeps every experiment module focused on the one thing it varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (
    DCA,
    BatchFitResult,
    DCAConfig,
    DCAResult,
    DisparityCalculator,
    FairnessObjective,
    FitSpec,
)
from ..core.bonus import BonusVector
from ..datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    CompasDataset,
    SchoolCohort,
    load_compas,
    load_school_cohorts,
    school_admission_rubric,
)
from ..ranking import ScoreFunction
from ..tabular import Table

__all__ = ["SchoolSetting", "CompasSetting", "DEFAULT_K", "DEFAULT_K_SWEEP"]

#: The paper's default selection rate ("when not otherwise stated, we consider
#: that 5% of students are selected").
DEFAULT_K: float = 0.05

#: The k sweep the figures plot (5% to 50%).
DEFAULT_K_SWEEP: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


def _sweep_fits(
    default_attributes,
    score_function: ScoreFunction,
    table: Table,
    config: DCAConfig,
    ks,
    objective: FairnessObjective | None,
) -> dict[float, DCAResult]:
    """One fit per selection fraction via ``fit_many``, keyed by ``k``.

    Shared by the school and COMPAS settings: both sweep helpers only differ
    in which score function / attribute set they default to.
    """
    ks = tuple(float(k) for k in ks)  # materialize once: ks may be a generator
    if not ks:
        raise ValueError("at least one selection fraction is required")
    attributes = objective.attribute_names if objective is not None else default_attributes
    dca = DCA(attributes, score_function, k=max(ks), objective=objective, config=config)
    fits = dca.fit_many(table, ks=ks)
    return {fit.k: fit.result for fit in fits}


@dataclass
class SchoolSetting:
    """The NYC-school experimental setting (datasets, rubric, DCA defaults)."""

    num_students: int | None = None
    seed: int = 7
    dca_config: DCAConfig = field(default_factory=lambda: DCAConfig(seed=7))

    def __post_init__(self) -> None:
        self.train, self.test = load_school_cohorts(num_students=self.num_students)
        self.rubric = school_admission_rubric()
        self.fairness_attributes = SCHOOL_FAIRNESS_ATTRIBUTES
        self._base_scores: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def cohort(self, which: str) -> SchoolCohort:
        if which == "train":
            return self.train
        if which == "test":
            return self.test
        raise ValueError(f"which must be 'train' or 'test', got {which!r}")

    def base_scores(self, which: str) -> np.ndarray:
        """Uncompensated rubric scores for a cohort (cached)."""
        if which not in self._base_scores:
            self._base_scores[which] = self.rubric.scores(self.cohort(which).table)
        return self._base_scores[which]

    def calculator(self, which: str) -> DisparityCalculator:
        return DisparityCalculator(self.fairness_attributes).fit(self.cohort(which).table)

    def fit_dca(
        self,
        k: float,
        objective: FairnessObjective | None = None,
        config: DCAConfig | None = None,
    ):
        """Fit DCA on the training cohort at selection fraction ``k``.

        When an objective over a subset of the fairness attributes is given
        (e.g. the binary-only attributes used by the disparate-impact and
        exposure experiments), the bonus vector is fitted over exactly those
        attributes.  :meth:`repro.core.DCA.fit` compiles through the
        process-wide :func:`~repro.core.default_objective_cache`, as the
        batched helpers do, so repeated single fits on the cohort compile it
        once.
        """
        attributes = objective.attribute_names if objective is not None else self.fairness_attributes
        dca = DCA(
            attributes,
            self.rubric,
            k=k,
            objective=objective,
            config=config or self.dca_config,
        )
        return dca.fit(self.train.table)

    def fit_dca_sweep(
        self,
        ks,
        objective: FairnessObjective | None = None,
        config: DCAConfig | None = None,
    ) -> dict[float, DCAResult]:
        """Fit one bonus vector per selection fraction in ``ks`` in a single batch.

        This is the Figure 1 / Figure 4a "k known in advance" workload routed
        through :meth:`repro.core.DCA.fit_many`; results are keyed by ``k``.
        """
        return _sweep_fits(
            self.fairness_attributes,
            self.rubric,
            self.train.table,
            config or self.dca_config,
            ks,
            objective,
        )

    def fit_dca_batch(self, specs: list[FitSpec]) -> list[BatchFitResult]:
        """Run a heterogeneous batch of DCA fits (the ablation workloads)."""
        dca = DCA(
            self.fairness_attributes,
            self.rubric,
            k=DEFAULT_K,
            config=self.dca_config,
        )
        return dca.fit_many(self.train.table, specs=specs)

    def compensated_scores(self, which: str, bonus: BonusVector) -> np.ndarray:
        return bonus.apply(self.cohort(which).table, self.base_scores(which))

    def disparity(self, which: str, scores: np.ndarray, k: float) -> dict[str, float]:
        return self.calculator(which).disparity(self.cohort(which).table, scores, k).as_dict()


@dataclass
class CompasSetting:
    """The COMPAS experimental setting (dataset, release ranking, race attributes)."""

    num_defendants: int | None = None
    seed: int = 7
    dca_config: DCAConfig = field(
        default_factory=lambda: DCAConfig(seed=7, sample_size=1000, granularity=0.5)
    )

    def __post_init__(self) -> None:
        from ..datasets import compas_release_ranking_function

        self.dataset: CompasDataset = load_compas(num_defendants=self.num_defendants)
        self.ranking_function: ScoreFunction = compas_release_ranking_function()
        self.race_attributes = self.dataset.race_attributes
        self._base_scores: np.ndarray | None = None

    @property
    def table(self) -> Table:
        return self.dataset.table

    def base_scores(self) -> np.ndarray:
        if self._base_scores is None:
            self._base_scores = self.ranking_function.scores(self.table)
        return self._base_scores

    def calculator(self) -> DisparityCalculator:
        return DisparityCalculator(self.race_attributes).fit(self.table)

    def fit_dca(
        self,
        k: float,
        objective: FairnessObjective | None = None,
        config: DCAConfig | None = None,
    ):
        attributes = objective.attribute_names if objective is not None else self.race_attributes
        dca = DCA(
            attributes,
            self.ranking_function,
            k=k,
            objective=objective,
            config=config or self.dca_config,
        )
        return dca.fit(self.table)

    def fit_dca_sweep(
        self,
        ks,
        objective: FairnessObjective | None = None,
        config: DCAConfig | None = None,
    ) -> dict[float, DCAResult]:
        """Fit one bonus vector per selection fraction in ``ks`` in a single batch.

        The per-k COMPAS workloads (Figure 10a/10b) routed through
        :meth:`repro.core.DCA.fit_many`; results are keyed by ``k``.
        """
        return _sweep_fits(
            self.race_attributes,
            self.ranking_function,
            self.table,
            config or self.dca_config,
            ks,
            objective,
        )

    def fit_dca_batch(self, specs: list[FitSpec]) -> list[BatchFitResult]:
        """Run a heterogeneous batch of DCA fits against the release ranking."""
        dca = DCA(
            self.race_attributes,
            self.ranking_function,
            k=DEFAULT_K,
            config=self.dca_config,
        )
        return dca.fit_many(self.table, specs=specs)
