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

from .harness import ExperimentResult
from .setting import DEFAULT_K_SWEEP, SchoolSetting

__all__ = ["run"]


def run(
    num_students: int | None = None,
    k_values: Sequence[float] = DEFAULT_K_SWEEP,
    use_rule_based_sample_size: bool = True,
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

    # Fig 8b plots the runtime of a single fit, so every (k, refined or not)
    # pair is fitted on its own: in a batch, a fit's elapsed_seconds is its
    # share of the wall-clock of the fits that shared its sample stream.
    disparity_rows: list[dict[str, object]] = []
    timing_rows: list[dict[str, object]] = []
    for k in (float(k) for k in k_values):
        core_fit = setting.fit_dca(k, config=base_config.without_refinement())
        refined_fit = setting.fit_dca(k, config=base_config)
        for series, fit in (
            ("Core DCA (unrefined)", core_fit),
            ("DCA (refined)", refined_fit),
        ):
            values = setting.disparity("test", setting.compensated_scores("test", fit.bonus), k)
            row: dict[str, object] = {"k": k, "series": series}
            row.update({name: values[name] for name in setting.fairness_attributes})
            row["norm"] = values["norm"]
            disparity_rows.append(row)

        timing_rows.append(
            {
                "k": k,
                "unrefined_seconds": core_fit.elapsed_seconds,
                "refined_seconds": refined_fit.elapsed_seconds,
                "sample_size": refined_fit.sample_size,
            }
        )

    result.add_table("fig 8a: disparity with and without refinement", disparity_rows)
    result.add_table("fig 8b: runtime with and without refinement", timing_rows)
    result.add_note(
        "Paper reference: refinement improves disparity roughly threefold and smooths the "
        "per-k curves; runtimes are highest at the smallest k because of the larger samples."
    )
    return result
