"""Score-based ranking functions (Definition 1 of the paper).

A ranking function maps every object (row of a :class:`~repro.tabular.Table`)
to a real-valued score; the ranking process then selects the top ``k`` percent
of objects by score.  The paper's experiments use two concrete families:

* a **weighted-sum rubric** over normalized attributes (the NYC school
  admission screen ``0.55 * GPA + 0.45 * TestScores``), and
* a **rank-derived score** built from the COMPAS decile score, where lower
  deciles are better so the score is negated before ranking ("we consider the
  decile score as the ranking function (the lower the better)").

All score functions are pure: they read columns from the table and return a
float array, never mutating the table.  Bonus points are applied *on top of*
these scores by :mod:`repro.core.bonus`, which is what makes the intervention
explainable — the base score and the compensation are separately visible.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence

import numpy as np

from ..tabular import Table
from .selection import best_first_order

__all__ = [
    "ScoreFunction",
    "WeightedSumScore",
    "ColumnScore",
    "NegatedColumnScore",
    "RankDerivedScore",
    "CompositeScore",
]


class ScoreFunction(abc.ABC):
    """Abstract base class for score-based ranking functions."""

    @abc.abstractmethod
    def scores(self, table: Table) -> np.ndarray:
        """Return one score per row of ``table`` (higher is better)."""

    @property
    @abc.abstractmethod
    def attribute_names(self) -> tuple[str, ...]:
        """Names of the table columns the function reads."""

    def __call__(self, table: Table) -> np.ndarray:
        return self.scores(table)

    def score_range(self, table: Table) -> tuple[float, float]:
        """Minimum and maximum score over ``table`` (used for normalization)."""
        values = self.scores(table)
        return float(values.min()), float(values.max())


class ColumnScore(ScoreFunction):
    """Use an existing numeric column directly as the score (higher is better)."""

    def __init__(self, column: str) -> None:
        self._column = column

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return (self._column,)

    def scores(self, table: Table) -> np.ndarray:
        return table.numeric(self._column)

    def __repr__(self) -> str:
        return f"ColumnScore({self._column!r})"


class NegatedColumnScore(ScoreFunction):
    """Use a numeric column where *lower* raw values are better.

    The COMPAS decile score is an example: decile 1 is the lowest predicted
    recidivism risk, so objects with low deciles should rank at the top of a
    "release first" ordering.  Negating turns it into a higher-is-better score
    so the rest of the library needs only one convention.
    """

    def __init__(self, column: str) -> None:
        self._column = column

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return (self._column,)

    def scores(self, table: Table) -> np.ndarray:
        return -table.numeric(self._column)

    def __repr__(self) -> str:
        return f"NegatedColumnScore({self._column!r})"


class WeightedSumScore(ScoreFunction):
    """Weighted sum of (optionally normalized) numeric columns.

    Parameters
    ----------
    weights:
        Mapping from column name to weight.  The paper's school rubric is
        ``WeightedSumScore({"gpa": 0.55, "test_scores": 0.45}, scale=100.0)``.
    normalize:
        When True (default) each input column is min-max normalized into
        [0, 1] over the supplied table before weighting, mirroring the paper's
        "normalized average" attributes.
    scale:
        Multiplier applied to the weighted sum; the school rubric is published
        on a 100-point scale, which makes bonus-point magnitudes interpretable
        ("11.5 bonus points on a 100-point rubric").
    """

    def __init__(
        self,
        weights: Mapping[str, float],
        normalize: bool = True,
        scale: float = 1.0,
    ) -> None:
        if not weights:
            raise ValueError("WeightedSumScore requires at least one column weight")
        self._weights = {str(name): float(weight) for name, weight in weights.items()}
        self._normalize = bool(normalize)
        self._scale = float(scale)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._weights.keys())

    @property
    def weights(self) -> dict[str, float]:
        return dict(self._weights)

    @property
    def scale(self) -> float:
        return self._scale

    def scores(self, table: Table) -> np.ndarray:
        total = np.zeros(table.num_rows, dtype=float)
        for name, weight in self._weights.items():
            values = table.numeric(name)
            if self._normalize:
                low, high = float(values.min()), float(values.max())
                if high > low:
                    values = (values - low) / (high - low)
                else:
                    values = np.zeros_like(values)
            total += weight * values
        return total * self._scale

    def __repr__(self) -> str:
        return (
            f"WeightedSumScore({self._weights!r}, normalize={self._normalize}, "
            f"scale={self._scale})"
        )


class RankDerivedScore(ScoreFunction):
    """Simulate an underlying score for rank-only (ordinal) ranking functions.

    Section VI-B of the paper applies bonus points to the COMPAS *decile*
    scores by treating the ordinal value as if it were a score.  More
    generally, when only a ranking (an ordering) is available, a score can be
    simulated from the rank: object at rank ``i`` (0 = best) out of ``n``
    receives score ``scale * (n - i) / n``.  Bonus points then shift objects
    relative to this simulated scale.
    """

    def __init__(self, base: ScoreFunction, scale: float = 10.0) -> None:
        self._base = base
        self._scale = float(scale)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._base.attribute_names

    def scores(self, table: Table) -> np.ndarray:
        base_scores = self._base.scores(table)
        n = base_scores.shape[0]
        if n == 0:
            return base_scores
        ranks = np.empty(n, dtype=float)
        ranks[best_first_order(base_scores)] = np.arange(n, dtype=float)
        return self._scale * (n - ranks) / n

    def __repr__(self) -> str:
        return f"RankDerivedScore({self._base!r}, scale={self._scale})"


class CompositeScore(ScoreFunction):
    """Sum of several score functions (used to stack a base score and extras)."""

    def __init__(self, parts: Sequence[ScoreFunction]) -> None:
        if not parts:
            raise ValueError("CompositeScore requires at least one part")
        self._parts = tuple(parts)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for part in self._parts:
            for name in part.attribute_names:
                if name not in names:
                    names.append(name)
        return tuple(names)

    def scores(self, table: Table) -> np.ndarray:
        total = np.zeros(table.num_rows, dtype=float)
        for part in self._parts:
            total += part.scores(table)
        return total

    def __repr__(self) -> str:
        return f"CompositeScore({list(self._parts)!r})"
