"""Experiment modules reproducing every table and figure of the paper."""

from . import (
    ablations,
    exposure_ddp,
    fig1_ndcg,
    fig2_fig3_proportion,
    fig4_vary_k,
    fig5_caps,
    fig6_quota,
    fig7_delta2,
    fig8_refinement,
    fig9_disparate_impact,
    fig10_compas,
    matching_admissions,
    scenario_stress,
    table1,
    table2,
)
from .harness import ExperimentResult, format_table
from .setting import DEFAULT_K, DEFAULT_K_SWEEP, CompasSetting, SchoolSetting

#: Mapping from experiment name to its ``run`` callable (used by the CLI).
EXPERIMENT_RUNNERS = {
    "table1": table1.run,
    "table2": table2.run,
    "fig1": fig1_ndcg.run,
    "fig2_fig3": fig2_fig3_proportion.run,
    "fig4": fig4_vary_k.run,
    "fig5": fig5_caps.run,
    "fig6": fig6_quota.run,
    "fig7": fig7_delta2.run,
    "fig8": fig8_refinement.run,
    "fig9": fig9_disparate_impact.run,
    "fig10": fig10_compas.run,
    "exposure_ddp": exposure_ddp.run,
    "ablations": ablations.run,
    "matching": matching_admissions.run,
    "scenarios": scenario_stress.run,
}

#: Experiments whose runners batch their fits through ``DCA.fit_many``: the
#: only ones the CLI's batch-backend flags can affect.
BATCHED_EXPERIMENTS = frozenset(
    {"fig1", "fig4", "fig5", "fig10", "exposure_ddp", "ablations", "matching", "scenarios"}
)

__all__ = [
    "ExperimentResult",
    "format_table",
    "SchoolSetting",
    "CompasSetting",
    "DEFAULT_K",
    "DEFAULT_K_SWEEP",
    "EXPERIMENT_RUNNERS",
    "BATCHED_EXPERIMENTS",
]
