"""Ablation experiments for the design choices of DCA.

These are not paper figures but sanity checks on the knobs the paper sets
empirically:

* ``sample_size`` — the max(1/k, 1/r) rule vs fixed sample sizes;
* ``schedule`` — the two-learning-rate schedule (1.0 then 0.1) vs a single
  learning rate;
* ``granularity`` — bonus rounding at 0.1 / 0.5 / 1.0 points.

Each ablation reports the residual test-cohort disparity norm and the fit
time so the trade-offs are visible at a glance.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..core import FitSpec
from .harness import ExperimentResult
from .setting import DEFAULT_K, SchoolSetting

__all__ = ["run_sample_size", "run_schedule", "run_granularity", "run"]


def _evaluate_batch(
    setting: SchoolSetting,
    specs: list[FitSpec],
) -> list[tuple[float, float, int, dict]]:
    """Fit every spec in one batch; report (norm, seconds, sample size, bonus) per spec.

    Per-fit wall-clock comes from ``DCAResult.elapsed_seconds``, so the
    timings stay meaningful even when the batch itself runs on a pool.
    """
    results = []
    for fit in setting.fit_dca_batch(specs):
        scores = setting.compensated_scores("test", fit.result.bonus)
        norm = setting.disparity("test", scores, fit.k)["norm"]
        results.append(
            (norm, fit.result.elapsed_seconds, fit.result.sample_size, fit.result.as_dict())
        )
    return results


def run_sample_size(
    num_students: int | None = None,
    k: float = DEFAULT_K,
    sample_sizes: Sequence[int | None] = (100, 250, 500, 1000, 2000, None),
) -> ExperimentResult:
    """Residual disparity and runtime for different per-step sample sizes."""
    setting = SchoolSetting(num_students=num_students)
    result = ExperimentResult(
        name="ablation_sample_size",
        description="Effect of the per-step sample size on DCA accuracy and runtime",
    )
    specs = [
        FitSpec(k=k, config=replace(setting.dca_config, sample_size=sample_size))
        for sample_size in sample_sizes
    ]
    rows = []
    for sample_size, (norm, seconds, actual, bonus) in zip(
        sample_sizes, _evaluate_batch(setting, specs)
    ):
        rows.append(
            {
                "sample_size": "rule max(1/k,1/r)" if sample_size is None else sample_size,
                "actual_size": actual,
                "test_disparity_norm": norm,
                "seconds": seconds,
            }
        )
    result.add_table("sample-size ablation", rows)
    return result


def run_schedule(
    num_students: int | None = None,
    k: float = DEFAULT_K,
) -> ExperimentResult:
    """The paper's two-rate schedule vs single learning rates."""
    setting = SchoolSetting(num_students=num_students)
    result = ExperimentResult(
        name="ablation_schedule",
        description="Learning-rate schedule ablation for Core DCA",
    )
    schedules = {
        "paper (1.0, 0.1)": (1.0, 0.1),
        "single 1.0": (1.0,),
        "single 0.1": (0.1,),
        "three rates (1.0, 0.1, 0.01)": (1.0, 0.1, 0.01),
    }
    specs = [
        FitSpec(k=k, label=label, config=replace(setting.dca_config, learning_rates=rates))
        for label, rates in schedules.items()
    ]
    rows = []
    for label, (norm, seconds, _, bonus) in zip(
        schedules, _evaluate_batch(setting, specs)
    ):
        rows.append(
            {"schedule": label, "test_disparity_norm": norm, "seconds": seconds, "bonus": str(bonus)}
        )
    result.add_table("learning-rate schedule ablation", rows)
    return result


def run_granularity(
    num_students: int | None = None,
    k: float = DEFAULT_K,
    granularities: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0),
) -> ExperimentResult:
    """Bonus rounding granularity vs residual disparity."""
    setting = SchoolSetting(num_students=num_students)
    result = ExperimentResult(
        name="ablation_granularity",
        description="Effect of the bonus-point rounding granularity",
    )
    specs = [
        FitSpec(k=k, config=replace(setting.dca_config, granularity=granularity))
        for granularity in granularities
    ]
    rows = []
    for granularity, (norm, seconds, _, bonus) in zip(
        granularities, _evaluate_batch(setting, specs)
    ):
        rows.append(
            {
                "granularity": granularity,
                "test_disparity_norm": norm,
                "seconds": seconds,
                "bonus": str(bonus),
            }
        )
    result.add_table("granularity ablation", rows)
    return result


def run(
    num_students: int | None = None,
    k: float = DEFAULT_K,
) -> ExperimentResult:
    """Run all three ablations and merge their tables."""
    merged = ExperimentResult(
        name="ablations",
        description="Sample-size, learning-rate-schedule, and granularity ablations",
    )
    for ablation in (run_sample_size, run_schedule, run_granularity):
        sub = ablation(num_students=num_students, k=k)
        for label, rows in sub.tables.items():
            merged.add_table(label, rows)
        merged.notes.extend(sub.notes)
    return merged
