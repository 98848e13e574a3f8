"""Figure 8: impact and cost of the DCA refinement step.

(a) the per-k disparity obtained by Core DCA alone (no Adam refinement, no
    iterate averaging) — noisier and with larger residual disparity than the
    refined version of Figure 4a;
(b) wall-clock time of the unrefined and refined algorithms for each k —
    small k values need larger samples (the ``max(1/k, 1/r)`` rule), large k
    values rank more of each sample, and the refinement roughly doubles the
    number of sampled steps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..core import FitSpec
from .harness import ExperimentResult
from .setting import DEFAULT_K_SWEEP, SchoolSetting

__all__ = ["run"]


def run(
    num_students: int | None = None,
    k_values: Sequence[float] = DEFAULT_K_SWEEP,
    use_rule_based_sample_size: bool = True,
    max_workers: int | None = None,
    executor: str | None = None,
) -> ExperimentResult:
    """Regenerate the Figure 8a (disparity) and 8b (runtime) series."""
    setting = SchoolSetting(num_students=num_students)
    result = ExperimentResult(
        name="fig8",
        description="Effect and cost of the DCA refinement step across selection fractions",
    )
    base_config = setting.dca_config
    if use_rule_based_sample_size:
        # Let the sample size follow the max(1/k, 1/r) rule so the runtime
        # series shows the same small-k growth as the paper's Figure 8b.
        base_config = replace(base_config, sample_size=None)

    # One batch covering both series: per k, a core-only fit and a refined fit.
    specs = [
        FitSpec(k=float(k), label=label, config=config)
        for k in k_values
        for label, config in (
            ("unrefined", base_config.without_refinement()),
            ("refined", base_config),
        )
    ]
    fits = setting.fit_dca_batch(
        specs,
        max_workers=max_workers,
        executor=executor,
    )

    disparity_rows: list[dict[str, object]] = []
    timing_rows: list[dict[str, object]] = []
    for core_entry, refined_entry in zip(fits[::2], fits[1::2]):
        k = core_entry.k
        for series, entry in (
            ("Core DCA (unrefined)", core_entry),
            ("DCA (refined)", refined_entry),
        ):
            values = setting.disparity(
                "test", setting.compensated_scores("test", entry.result.bonus), k
            )
            row: dict[str, object] = {"k": k, "series": series}
            row.update({name: values[name] for name in setting.fairness_attributes})
            row["norm"] = values["norm"]
            disparity_rows.append(row)

        timing_rows.append(
            {
                "k": k,
                "unrefined_seconds": core_entry.result.elapsed_seconds,
                "refined_seconds": refined_entry.result.elapsed_seconds,
                "sample_size": refined_entry.result.sample_size,
            }
        )

    result.add_table("fig 8a: disparity with and without refinement", disparity_rows)
    result.add_table("fig 8b: runtime with and without refinement", timing_rows)
    result.add_note(
        "Paper reference: refinement improves disparity roughly threefold and smooths the "
        "per-k curves; runtimes are highest at the smallest k because of the larger samples."
    )
    return result
