"""Figure 10: COMPAS experiments — disparity, false positive rates, and log-discounted bonuses.

(a) per-k bonus points added to the (negated) decile scores, race disparity
    of the resulting selection at every k;
(b) DCA pointed at the false-positive-rate gap objective, per-race FPR across
    k;
(c) a single bonus vector fitted with the log-discounted objective, race
    disparity across k — the coarseness of the ten deciles makes the curves
    move in visible steps, but disparity is still significantly reduced.
"""

from __future__ import annotations

from typing import Sequence

from ..core import FalsePositiveRateObjective, LogDiscountedDisparityObjective
from ..metrics import group_false_positive_rates
from .harness import ExperimentResult
from .setting import DEFAULT_K_SWEEP, CompasSetting

__all__ = ["run"]


def run(
    num_defendants: int | None = None,
    k_values: Sequence[float] = DEFAULT_K_SWEEP,
    max_workers: int | None = None,
    executor: str | None = None,
) -> ExperimentResult:
    """Regenerate the Figure 10a/10b/10c series."""
    setting = CompasSetting(num_defendants=num_defendants)
    table = setting.table
    calculator = setting.calculator()
    base_scores = setting.base_scores()
    result = ExperimentResult(
        name="fig10",
        description="COMPAS: race disparity and FPR with DCA bonus points on decile scores",
    )

    def disparity_row(scores, k: float, series: str) -> dict[str, object]:
        values = calculator.disparity(table, scores, k).as_dict()
        row: dict[str, object] = {"series": series, "k": float(k)}
        row.update(values)
        return row

    # Baseline disparity (the dashed series of Figure 10a).
    result.add_table(
        "baseline disparity", [disparity_row(base_scores, k, "baseline") for k in k_values]
    )

    # (a) bonus points recomputed for every k — one fit_many batch.
    per_k_fits = setting.fit_dca_sweep(
        k_values,
        max_workers=max_workers,
        executor=executor,
    )
    fig10a_rows = []
    for k in k_values:
        scores = per_k_fits[float(k)].bonus.apply(table, base_scores)
        fig10a_rows.append(disparity_row(scores, k, "per-k bonus"))
    result.add_table("fig 10a: disparity with per-k bonuses", fig10a_rows)

    # (b) FPR-gap objective, again batched across the k sweep.
    fpr_objective = FalsePositiveRateObjective(setting.race_attributes, "two_year_recid")
    fpr_fits = setting.fit_dca_sweep(
        k_values,
        objective=fpr_objective,
        max_workers=max_workers,
        executor=executor,
    )
    fig10b_rows = []
    baseline_fpr_rows = []
    for k in k_values:
        scores = fpr_fits[float(k)].bonus.apply(table, base_scores)
        fpr = group_false_positive_rates(
            table, scores, setting.race_attributes, "two_year_recid", k
        )
        fig10b_rows.append({"series": "FPR-driven bonus", "k": float(k), **fpr})
        baseline = group_false_positive_rates(
            table, base_scores, setting.race_attributes, "two_year_recid", k
        )
        baseline_fpr_rows.append({"series": "baseline", "k": float(k), **baseline})
    result.add_table("fig 10b baseline: per-race FPR without bonuses", baseline_fpr_rows)
    result.add_table("fig 10b: per-race FPR with FPR-driven bonuses", fig10b_rows)

    # (c) one log-discounted bonus vector for all k.
    discounted = setting.fit_dca(
        max(k_values), objective=LogDiscountedDisparityObjective(setting.race_attributes)
    )
    discounted_scores = discounted.bonus.apply(table, base_scores)
    result.add_table(
        "fig 10c: disparity with one log-discounted bonus vector",
        [disparity_row(discounted_scores, k, "log-discounted bonus") for k in k_values],
    )
    result.add_note(f"log-discounted bonus vector: {discounted.as_dict()}")
    result.add_note(
        "Paper reference: baseline disparity is strongly negative for African-American and "
        "positive for Caucasian defendants; bonuses substantially reduce it, with visible steps "
        "caused by the coarse ten-decile scores; the FPR gaps shrink across the k range."
    )
    return result
