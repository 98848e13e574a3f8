"""Top-k% selection: turning scores into a selected / unselected partition.

The paper's ranking process ``R`` "selects the k% best objects with the
highest f(o) values".  These helpers implement that selection carefully:

* ``k`` is a *percentage* of the population expressed as a fraction in
  (0, 1]; the number of selected objects is ``ceil(k * n)`` so that a
  non-empty selection is always produced for positive ``k``.
* Ties at the selection boundary are broken deterministically by original row
  index, so repeated runs over the same table select the same objects.  This
  matters for the COMPAS deciles where thousands of defendants share a score.

:func:`best_first_order` is the one definition of that order: the rankings,
top-k selections, position-based metrics and baselines are built on it, and
:func:`selection_mask` reproduces its boundary ties without a full sort.
The log-discounted disparity combines the two: one mask at its largest
fraction, then one :func:`best_first_order` over the selected rows, whose
prefixes are the smaller fractions' selections.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "best_first_order",
    "selection_size",
    "top_k_indices",
    "selection_mask",
    "selection_threshold",
    "rank_positions",
]


def selection_size(num_objects: int, k: float) -> int:
    """Number of objects selected when choosing the top ``k`` fraction.

    ``k`` must lie in (0, 1].  The size is ``ceil(k * num_objects)`` capped at
    ``num_objects``; for any positive ``k`` and non-empty population at least
    one object is selected.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"selection fraction k must be in (0, 1], got {k}")
    if num_objects < 0:
        raise ValueError(f"num_objects must be non-negative, got {num_objects}")
    if num_objects == 0:
        return 0
    return min(num_objects, max(1, math.ceil(k * num_objects)))


#: Below this many rows one ``lexsort`` beats a SIMD sort plus the tie
#: repair on heavily tied scores; at it, the repair wins on continuous and
#: decile scores alike (``tie_repair_near_crossover`` in
#: ``benchmarks/BENCH_matching.json``).
_LEXSORT_BELOW = 2048


def best_first_order(scores: np.ndarray) -> np.ndarray:
    """Row indices ordered best-first: descending score, ties to the lower index.

    NaN scores go last, in row order; ``-0.0`` ties with ``0.0``.  ``scores``
    must already be a float array; the callers coerce once, so the DCA step
    loop pays for no conversion here.

    The key ``(-score, row)`` is a strict total order, so the result is the
    one permutation ``np.lexsort((np.arange(n), -scores))`` returns.  Small
    inputs take that lexsort.  Larger ones take NumPy's default (SIMD,
    unstable) argsort, then put each run of equal scores back into row
    order with one integer sort of ``run * n + row``, which keeps the runs
    in place and sorts each by row.
    """
    n = scores.shape[0]
    if n < _LEXSORT_BELOW:
        return np.lexsort((np.arange(n), -scores))
    return _tie_repaired_order(scores)


def _tie_repaired_order(scores: np.ndarray) -> np.ndarray:
    """:func:`best_first_order` by an unstable sort, then one sort of the ties."""
    n = scores.shape[0]
    keys = -scores
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    # The sort puts NaN last, and ``searchsorted`` finds the first NaN; the
    # NaNs are one run (NaN != NaN would split it).
    starts[np.searchsorted(ranked, np.nan) + 1 :] = False
    if starts.all():
        return order
    offsets = np.cumsum(starts)
    offsets *= n
    repaired = order + offsets
    repaired.sort()
    repaired -= offsets
    return repaired


def rank_positions(scores: np.ndarray) -> np.ndarray:
    """Return the 0-based rank of each object (0 = highest score).

    Ties are broken by original index (earlier rows rank higher), making the
    ranking a deterministic function of the score array.
    """
    scores = np.asarray(scores, dtype=float)
    ranks = np.empty(scores.shape[0], dtype=np.int64)
    ranks[best_first_order(scores)] = np.arange(scores.shape[0])
    return ranks


def top_k_indices(scores: np.ndarray, k: float) -> np.ndarray:
    """Indices of the top ``k`` fraction of objects, ordered best-first."""
    scores = np.asarray(scores, dtype=float)
    return best_first_order(scores)[: selection_size(scores.shape[0], k)]


def selection_mask(scores: np.ndarray, k: float) -> np.ndarray:
    """Boolean mask that is True for objects in the top ``k`` fraction.

    The selected *set* is exactly the one ``top_k_indices`` returns (including
    the index-based tie break at the boundary), but because the mask does not
    need the within-selection ordering it is computed with an ``O(n)``
    partition instead of a full sort.  A sampled DCA step calls it once per
    evaluation: at the fit's ``k`` for the Definition 3, disparate-impact
    and false-positive-rate objectives, and at the largest grid fraction
    for the log-discounted one, which orders only the selected rows to read
    its smaller fractions.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    size = selection_size(n, k)
    if size >= n:
        return np.ones(n, dtype=bool)
    low = scores.min()
    if low != low:  # NaN present
        # NaN ordering under argpartition differs from ``best_first_order``;
        # fall back to the exact (slower) path for pathological inputs.
        mask = np.zeros(n, dtype=bool)
        mask[top_k_indices(scores, k)] = True
        return mask
    # Partition ascending: the element landing at position n - size is the
    # size-th largest score, i.e. the selection threshold.
    threshold = scores[scores.argpartition(n - size)[n - size]]
    mask = scores > threshold
    remaining = size - int(np.count_nonzero(mask))
    if remaining > 0:
        # Boundary ties are admitted in original-row order, matching the
        # tie break of ``best_first_order``.
        ties = np.flatnonzero(scores == threshold)
        mask[ties[:remaining]] = True
    return mask


def selection_threshold(scores: np.ndarray, k: float) -> float:
    """Score of the last selected object (the admission cut-off).

    Publishing this threshold is part of the transparency story of the paper:
    together with the bonus-point vector it lets applicants predict whether
    they would have been selected.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape[0] == 0:
        raise ValueError("cannot compute a selection threshold over zero objects")
    indices = top_k_indices(scores, k)
    return float(scores[indices[-1]])
