"""Ranking utility: normalized discounted cumulative gain (nDCG).

In fair-ranking applications utility measures how far the *compensated*
ranking moves away from the original one.  Following the paper (and Zehlike
et al.), the gain of an object is its original (uncompensated) score and the
ideal DCG is the DCG of the original ranking itself, so an nDCG of 1 means
the fairness intervention did not change the top of the ranking at all.
"""

from __future__ import annotations

import numpy as np

from ..ranking import top_k_indices
from .exposure import position_values

__all__ = ["dcg", "ndcg_at_k", "ndcg_curve"]


def dcg(gains_in_rank_order: np.ndarray) -> float:
    """Discounted cumulative gain of a gain sequence already in rank order."""
    gains = np.asarray(gains_in_rank_order, dtype=float)
    if gains.size == 0:
        return 0.0
    return float(np.sum(gains * position_values(gains.size)))


def ndcg_at_k(base_scores: np.ndarray, new_scores: np.ndarray, k: float) -> float:
    """nDCG of the top-k ranking induced by ``new_scores``.

    Gains are defined as ``base_scores - base_scores.min()`` and the ideal
    ordering is the original ranking.  The shift makes the gains non-negative
    so that lower-is-better scores negated upstream (e.g. the COMPAS decile
    path) produce meaningful gains, and it makes the metric invariant to
    translating ``base_scores``.  Note that the shift is part of the metric's
    *definition*, not a no-op: the nDCG **ratio** is not shift-invariant, so
    the value returned here generally differs from an nDCG computed on the
    raw (unshifted) gains — only the ranking of candidate orderings by DCG is
    preserved, with the worst-scored object pinned to gain 0.

    Parameters
    ----------
    base_scores:
        Uncompensated scores; these define both the gains and the ideal order.
    new_scores:
        Compensated scores; these define the evaluated order.
    k:
        Selection fraction in (0, 1].
    """
    base_scores = np.asarray(base_scores, dtype=float)
    new_scores = np.asarray(new_scores, dtype=float)
    if base_scores.shape != new_scores.shape:
        raise ValueError(
            f"score arrays have different shapes: {base_scores.shape} vs {new_scores.shape}"
        )
    if base_scores.shape[0] == 0:
        raise ValueError("cannot compute nDCG over zero objects")
    gains = base_scores - base_scores.min()
    ideal = dcg(gains[top_k_indices(base_scores, k)])
    if ideal == 0.0:
        return 1.0
    return float(dcg(gains[top_k_indices(new_scores, k)]) / ideal)


def ndcg_curve(
    base_scores: np.ndarray, new_scores: np.ndarray, k_values: list[float] | tuple[float, ...]
) -> dict[float, float]:
    """nDCG@k for each selection fraction in ``k_values`` (Figure 1)."""
    return {float(k): ndcg_at_k(base_scores, new_scores, float(k)) for k in k_values}
