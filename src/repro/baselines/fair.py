"""FA*IR (Zehlike et al., 2017): binomial fair top-k re-ranking.

FA*IR guarantees that, for every prefix of the ranking, the number of
protected candidates is at least the number that would make the prefix pass a
statistical test against a target proportion ``p`` at significance ``alpha``.
The per-prefix minima form the *mtable*; re-ranking then greedily merges the
protected and non-protected candidate queues while honouring the mtable.

The binomial (single protected group) variant implemented here is the
building block of the multinomial comparison algorithm in
:mod:`repro.baselines.multinomial_fair`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from ..ranking import best_first_order
from ..tabular import Table

__all__ = ["mtable", "adjusted_alpha", "FairRanker", "fair_topk_mask"]


def mtable(k: int, p: float, alpha: float) -> np.ndarray:
    """Minimum number of protected candidates required at every prefix 1..k.

    ``mtable[i - 1]`` is the smallest integer m such that the probability of
    seeing fewer than m protected candidates in an unbiased draw of size i
    with protected proportion ``p`` is below ``alpha`` — i.e. the binomial
    ``alpha``-quantile.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"target proportion p must be in (0, 1), got {p}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    prefixes = np.arange(1, k + 1)
    return stats.binom.ppf(alpha, prefixes, p).astype(int)


def adjusted_alpha(k: int, p: float, alpha: float, trials: int = 2_000, seed: int = 0) -> float:
    """Monte-Carlo multiple-testing correction for the mtable significance.

    Testing every prefix of a length-k ranking inflates the probability of
    rejecting a fair ranking.  The corrected significance ``alpha_c`` is the
    largest value whose mtable rejects an unbiased ranking with probability at
    most ``alpha``; it is estimated by simulating unbiased rankings.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(size=(trials, k)) < p
    cumulative = np.cumsum(draws, axis=1)

    def rejection_rate(candidate_alpha: float) -> float:
        table = mtable(k, p, candidate_alpha)
        return float(np.mean(np.any(cumulative < table, axis=1)))

    low, high = 1e-6, alpha
    if rejection_rate(high) <= alpha:
        return high
    for _ in range(30):
        middle = (low + high) / 2.0
        if rejection_rate(middle) <= alpha:
            low = middle
        else:
            high = middle
    return low


@dataclass(frozen=True)
class FairRanker:
    """Binomial FA*IR re-ranker for one protected group.

    Parameters
    ----------
    target_proportion:
        Required protected share ``p`` (typically the population share).
    alpha:
        Statistical-test significance; lower values enforce the quota less
        strictly on short prefixes.
    correct_alpha:
        Apply the Monte-Carlo multiple-testing correction before building the
        mtable.
    """

    target_proportion: float
    alpha: float = 0.1
    correct_alpha: bool = False

    def rerank(self, scores: np.ndarray, protected: np.ndarray, k: int) -> np.ndarray:
        """Return the indices of the fair top-k, best first."""
        scores = np.asarray(scores, dtype=float)
        protected = np.asarray(protected, dtype=bool)
        if scores.shape != protected.shape:
            raise ValueError(
                f"scores shape {scores.shape} does not match protected shape {protected.shape}"
            )
        if k <= 0 or k > scores.shape[0]:
            raise ValueError(f"k must be in [1, {scores.shape[0]}], got {k}")
        alpha = self.alpha
        if self.correct_alpha:
            alpha = adjusted_alpha(k, self.target_proportion, self.alpha)
        minima = mtable(k, self.target_proportion, alpha)

        order = best_first_order(scores)
        protected_queue = [i for i in order if protected[i]]
        open_queue = [i for i in order if not protected[i]]
        result: list[int] = []
        protected_count = 0
        p_index = o_index = 0
        for position in range(k):
            need_protected = protected_count < minima[position]
            take_protected: bool
            if need_protected and p_index < len(protected_queue):
                take_protected = True
            elif p_index >= len(protected_queue):
                take_protected = False
            elif o_index >= len(open_queue):
                take_protected = True
            else:
                # No constraint pressure: take whoever scores higher.
                take_protected = scores[protected_queue[p_index]] >= scores[open_queue[o_index]]
            if take_protected:
                result.append(protected_queue[p_index])
                p_index += 1
                protected_count += 1
            else:
                result.append(open_queue[o_index])
                o_index += 1
        return np.asarray(result, dtype=np.int64)


def fair_topk_mask(
    table: Table,
    scores: np.ndarray,
    attribute: str,
    k: int,
    target_proportion: float | None = None,
    alpha: float = 0.1,
) -> np.ndarray:
    """Boolean mask of the FA*IR top-k for one binary attribute."""
    membership = table.numeric(attribute) > 0.5
    if target_proportion is None:
        target_proportion = float(membership.mean())
    ranker = FairRanker(target_proportion=target_proportion, alpha=alpha)
    chosen = ranker.rerank(np.asarray(scores, dtype=float), membership, k)
    mask = np.zeros(table.num_rows, dtype=bool)
    mask[chosen] = True
    return mask
