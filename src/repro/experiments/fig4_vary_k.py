"""Figure 4: disparity across selection fractions under three bonus-assignment regimes.

(a) **k known in advance** — bonus points are re-optimized for every k; DCA
    essentially eliminates disparity at each point.
(b) **k assumed to be 5%** — the bonus vector optimized for k = 5% is applied
    at every k; disparity is small near 5% and degrades away from it.
(c) **k unknown** — the log-discounted objective optimizes a weighted average
    over all k < 0.5; disparity is moderately low across the whole range.

The dashed "before" series of the paper's plot corresponds to the baseline
rows also produced here.
"""

from __future__ import annotations

from typing import Sequence

from ..core import LogDiscountedDisparityObjective
from .harness import ExperimentResult
from .setting import DEFAULT_K, DEFAULT_K_SWEEP, SchoolSetting

__all__ = ["run"]


def _disparity_rows(setting: SchoolSetting, scores_by_k, k_values, label: str):
    rows = []
    for k in k_values:
        scores = scores_by_k(k)
        values = setting.disparity("test", scores, k)
        row: dict[str, object] = {"series": label, "k": float(k)}
        row.update({name: values[name] for name in setting.fairness_attributes})
        row["norm"] = values["norm"]
        rows.append(row)
    return rows


def run(
    num_students: int | None = None,
    k_values: Sequence[float] = DEFAULT_K_SWEEP,
    assumed_k: float = DEFAULT_K,
    max_workers: int | None = None,
    executor: str | None = None,
) -> ExperimentResult:
    """Regenerate the Figure 4a/4b/4c series on the test cohort."""
    setting = SchoolSetting(num_students=num_students)
    result = ExperimentResult(
        name="fig4",
        description="Disparity across selection fractions: per-k, fixed-k, and log-discounted bonuses",
    )

    base_test = setting.base_scores("test")
    result.add_table(
        "baseline (no bonus)",
        _disparity_rows(setting, lambda k: base_test, k_values, "baseline"),
    )

    # (a) k known in advance: one batched fit per k.
    per_k = setting.fit_dca_sweep(
        k_values,
        max_workers=max_workers,
        executor=executor,
    )
    per_k_bonus = {k: per_k[float(k)].bonus for k in k_values}
    result.add_table(
        "fig 4a: k known in advance",
        _disparity_rows(
            setting,
            lambda k: setting.compensated_scores("test", per_k_bonus[k]),
            k_values,
            "per-k bonus",
        ),
    )

    # (b) bonus optimized for the assumed k only.
    assumed_bonus = setting.fit_dca(assumed_k).bonus
    assumed_scores = setting.compensated_scores("test", assumed_bonus)
    result.add_table(
        f"fig 4b: bonus optimized for k={assumed_k:.0%}",
        _disparity_rows(setting, lambda k: assumed_scores, k_values, f"k={assumed_k:.0%} bonus"),
    )
    result.add_note(f"fig 4b bonus vector: {assumed_bonus.as_dict()}")

    # (c) log-discounted objective over k < max(k_values).
    objective = LogDiscountedDisparityObjective(setting.fairness_attributes)
    discounted = setting.fit_dca(max(k_values), objective=objective)
    discounted_scores = setting.compensated_scores("test", discounted.bonus)
    result.add_table(
        "fig 4c: log-discounted bonus",
        _disparity_rows(setting, lambda k: discounted_scores, k_values, "log-discounted bonus"),
    )
    result.add_note(f"fig 4c bonus vector: {discounted.as_dict()}")
    result.add_note(
        "Paper reference: (a) near-zero disparity at every k; (b) best near the assumed k; "
        "(c) moderately low everywhere, slightly worse than (b) exactly at the assumed k."
    )
    return result
