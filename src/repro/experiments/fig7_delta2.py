"""Figure 7: accuracy vs disparity for DCA and the (Δ+2)-approximation algorithm.

The (Δ+2) greedy re-ranker takes fairness constraints as *input*; to compare
it with DCA on equal footing, the constraints are derived from the selection
DCA produces at each bonus proportion.  The figure then reports, for both
methods, the disparity norm and the nDCG at each proportion (training cohort,
as in the paper, because (Δ+2) is a post-processing step applied to a single
known dataset).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..baselines import DeltaTwoReranker, augment_with_complements, constraints_from_selection
from ..core import DisparityObjective
from ..core.calibration import proportion_sweep
from ..metrics import ndcg_at_k
from ..ranking import selection_mask, selection_size
from .harness import ExperimentResult
from .setting import DEFAULT_K, SchoolSetting

__all__ = ["order_scores", "run"]


def order_scores(base_scores: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Scores under which ``order`` heads the ranking, in exactly that order.

    The items of ``order`` get strictly decreasing scores above every base
    score; all other items keep theirs.  Scoring an explicit ranking this
    way lets :func:`~repro.metrics.ndcg_at_k` evaluate the order a re-ranker
    produced rather than just the set it selected.
    """
    scores = np.array(base_scores, dtype=float)
    scores[order] = scores.max() + np.arange(len(order), 0, -1)
    return scores


def run(
    num_students: int | None = None,
    k: float = DEFAULT_K,
    proportions: Sequence[float] | None = None,
) -> ExperimentResult:
    """Regenerate the Figure 7 series (both methods, disparity norm and nDCG)."""
    setting = SchoolSetting(num_students=num_students)
    fitted = setting.fit_dca(k)
    objective = DisparityObjective(setting.fairness_attributes)
    if proportions is None:
        proportions = [round(0.2 * i, 10) for i in range(1, 6)]

    table = setting.train.table
    base_scores = setting.base_scores("train")
    calculator = setting.calculator("train")
    size = selection_size(table.num_rows, k)
    # The (Δ+2) constraints cap each binary group AND its complement at DCA's
    # composition; without the complement caps an upper-bound-only constraint
    # could never force under-represented groups into the selection.
    binary_attributes = tuple(
        name for name in setting.fairness_attributes if name != "eni"
    )
    augmented_table, constraint_groups = augment_with_complements(table, binary_attributes)

    dca_points = proportion_sweep(
        table,
        setting.rubric,
        fitted.bonus,
        objective,
        k,
        proportions=proportions,
        granularity=setting.dca_config.granularity,
    )

    rows: list[dict[str, object]] = []
    delta2_seconds = 0.0
    for point in dca_points:
        rows.append(
            {
                "method": "DCA",
                "proportion": point.proportion,
                "disparity_norm": point.disparity_norm,
                "ndcg": point.ndcg,
            }
        )
        # Derive (Δ+2) constraints from DCA's selection at this proportion.
        compensated = point.bonus.apply(table, base_scores)
        dca_mask = selection_mask(compensated, k)
        constraints = constraints_from_selection(
            augmented_table, dca_mask, constraint_groups, size
        )
        start = time.perf_counter()
        delta_order = DeltaTwoReranker(constraints).rerank(augmented_table, base_scores)
        delta2_seconds += time.perf_counter() - start
        delta_mask = np.zeros(table.num_rows, dtype=bool)
        delta_mask[delta_order] = True
        delta_disparity = calculator.disparity_from_mask(table, delta_mask)
        rows.append(
            {
                "method": "(Δ+2)",
                "proportion": point.proportion,
                "disparity_norm": delta_disparity.norm,
                # Scored in the greedy order (Δ+2) produced, not as a set.
                "ndcg": ndcg_at_k(base_scores, order_scores(base_scores, delta_order), k),
            }
        )
    result = ExperimentResult(
        name="fig7",
        description="Accuracy vs disparity for DCA and the (Δ+2)-approximation algorithm",
    )
    result.add_table("fig 7: DCA vs (Δ+2)", rows)
    result.add_note(f"(Δ+2) re-ranking time over the sweep: {delta2_seconds:.2f}s")
    result.add_note(
        "Paper reference: the two methods achieve very similar disparity/utility trade-offs; "
        "the paper reports (Δ+2) matching DCA's runtime at small k but becoming much slower "
        "for large k.  That slowdown comes from scanning every (position, item) pair, not "
        "from the greedy rule: grouping items by membership type makes each re-ranking "
        "O(n log n + k·T·G), as the time above shows."
    )
    return result
