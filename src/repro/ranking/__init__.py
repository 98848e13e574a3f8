"""Ranking substrate: score functions, top-k selection, and the Ranking object."""

from .functions import (
    ColumnScore,
    CompositeScore,
    NegatedColumnScore,
    RankDerivedScore,
    ScoreFunction,
    WeightedSumScore,
)
from .ranking import Ranking, rank_table
from .selection import (
    best_first_order,
    rank_positions,
    selection_mask,
    selection_size,
    selection_threshold,
    top_k_indices,
)

__all__ = [
    "ScoreFunction",
    "ColumnScore",
    "NegatedColumnScore",
    "WeightedSumScore",
    "RankDerivedScore",
    "CompositeScore",
    "Ranking",
    "rank_table",
    "best_first_order",
    "selection_size",
    "top_k_indices",
    "selection_mask",
    "selection_threshold",
    "rank_positions",
]
