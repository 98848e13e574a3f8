"""(Δ+2)-approximation re-ranking (Celis, Straszak, Vishnoi 2017), Section VI-C3.

The comparison algorithm "works by looking at all (position, item) pairs and
greedily selecting the one that most improves the utility (in our case
measured by nDCG) without violating a preset (input) fairness constraint on
the maximum number of items of each type".  Δ is the number of properties an
item can have; the greedy algorithm is a (Δ+2)-approximation of the
constrained ranking problem.

In the paper's protocol the fairness constraints are derived from DCA's own
result — the selection produced by DCA defines, for every group, the maximum
number of its members allowed in every prefix — which makes the two methods
directly comparable on utility.  :func:`constraints_from_selection` builds
exactly those constraints.

Because the utility gain of placing item ``i`` at position ``p`` is
``gain(i) / log2(p + 1)`` and the discount is the same for every item at a
given position, the greedy "best (position, item) pair" rule reduces to
filling positions from the top with the highest-gain item whose group
memberships still fit the prefix constraints.

Whether an item fits depends only on its membership *type* — its row of
group bits — and not on the item itself.  :meth:`DeltaTwoReranker.rerank`
therefore keeps one score-ordered queue per distinct type and, at each
position, tests every type at once and takes the fitting type whose head
comes first in the score order.  The cost is O(n log n + k·T·G) for ``n``
items, ``k`` positions, ``G`` constraint groups and ``T ≤ min(n, 2^G)``
distinct types (fig7's six groups give at most eight), instead of the
O(k·n·G) of scanning (position, item) pairs literally.  The paper's
observation that (Δ+2) slows down sharply as ``k`` grows is a property of
that literal scan, not of the greedy rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ranking import best_first_order, selection_mask, selection_size
from ..tabular import Table

__all__ = [
    "PrefixConstraints",
    "constraints_from_selection",
    "augment_with_complements",
    "DeltaTwoReranker",
    "delta_two_from_dca",
]


def augment_with_complements(
    table: Table, group_names: Sequence[str]
) -> tuple[Table, tuple[str, ...]]:
    """Add a ``not_<name>`` indicator for every binary group and return both.

    (Δ+2) constraints are *upper bounds* on group counts; bounding only the
    protected groups cannot force their inclusion, so the constraint set used
    for the DCA comparison also bounds each complement (the privileged group),
    which is what pushes protected candidates into the selection.
    """
    augmented = table
    names: list[str] = []
    for name in group_names:
        names.append(name)
        complement = f"not_{name}"
        augmented = augmented.with_column(complement, 1.0 - (augmented.numeric(name) > 0.5))
        names.append(complement)
    return augmented, tuple(names)


@dataclass(frozen=True)
class PrefixConstraints:
    """Per-group maximum counts allowed in every ranking prefix.

    Attributes
    ----------
    group_names:
        Binary attribute names the constraints apply to.
    maxima:
        Integer array of shape ``(k, num_groups)``; ``maxima[i - 1, g]`` is
        the maximum number of group-``g`` members allowed in a prefix of
        length ``i``.
    """

    group_names: tuple[str, ...]
    maxima: np.ndarray

    def __post_init__(self) -> None:
        maxima = np.asarray(self.maxima, dtype=int)
        if maxima.ndim != 2 or maxima.shape[1] != len(self.group_names):
            raise ValueError(
                f"maxima must have shape (k, {len(self.group_names)}), got {maxima.shape}"
            )
        object.__setattr__(self, "maxima", maxima)

    @property
    def k(self) -> int:
        return int(self.maxima.shape[0])


def constraints_from_selection(
    table: Table,
    selected: np.ndarray,
    group_names: Sequence[str],
    k: int,
    slack: int = 0,
) -> PrefixConstraints:
    """Build prefix constraints matching the composition of an existing selection.

    The final-prefix maximum of each group is its count in ``selected`` (plus
    ``slack``); earlier prefixes are scaled proportionally, rounded up, so a
    ranking that front-loads a group slightly is still feasible.
    """
    selected = np.asarray(selected, dtype=bool)
    if selected.shape != (table.num_rows,):
        raise ValueError(f"selected has shape {selected.shape}, expected ({table.num_rows},)")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    names = tuple(group_names)
    final_counts = np.asarray(
        [int(np.sum((table.numeric(name) > 0.5) & selected)) + slack for name in names],
        dtype=float,
    )
    prefixes = np.arange(1, k + 1, dtype=float)[:, None]
    maxima = np.ceil(final_counts[None, :] * prefixes / float(k)).astype(int)
    return PrefixConstraints(group_names=names, maxima=maxima)


@dataclass(frozen=True)
class DeltaTwoReranker:
    """Greedy constrained re-ranking under per-group prefix maxima."""

    constraints: PrefixConstraints

    def rerank(self, table: Table, scores: np.ndarray) -> np.ndarray:
        """Return the indices of the constrained top-k, best first.

        Items are considered in decreasing score order (ties by index, NaN
        scores last); an item is placed at the next open position if doing
        so keeps every group within its prefix maximum.  If no remaining item
        fits the constraints (possible when groups overlap heavily), the
        constraint is relaxed for that position by taking the best remaining
        item — mirroring the "best effort" behaviour of the original
        implementation — and a ``UserWarning`` reports how many positions
        were placed that way.
        """
        scores = np.asarray(scores, dtype=float)
        n = table.num_rows
        if scores.shape != (n,):
            raise ValueError(f"scores have shape {scores.shape}, expected ({n},)")
        k = min(self.constraints.k, n)
        maxima = self.constraints.maxima
        names = self.constraints.group_names
        order = best_first_order(scores)
        bits = np.zeros((n, len(names)), dtype=np.int64)
        for column, name in enumerate(names):
            bits[:, column] = table.numeric(name)[order] > 0.5
        # Dense type ids: fold the bit rows into integer codes 30 columns at a
        # time, re-densifying after each fold so the codes never overflow.
        # (``np.unique(bits, axis=0)`` gives the same grouping but sorts
        # void-typed rows, which is ~20x slower.)
        type_of = np.zeros(n, dtype=np.int64)
        for start in range(0, len(names), 30):
            chunk = bits[:, start : start + 30]
            folded = (type_of << chunk.shape[1]) | (chunk @ (1 << np.arange(chunk.shape[1])))
            type_of = np.unique(folded, return_inverse=True)[1].reshape(-1)
        types = bits[np.unique(type_of, return_index=True)[1]]
        # ``queue`` lists positions in ``order`` grouped by type, each type's
        # slice ascending; ``cursor[t]`` is type t's next unused slot and
        # ``heads[t]`` the position in ``order`` it holds (``n`` once empty).
        # Every placement takes some type's head, so the used items of each
        # type are always a prefix of its queue.
        queue = np.argsort(type_of, kind="stable")
        sizes = np.bincount(type_of, minlength=len(types))
        ends = np.cumsum(sizes)
        cursor = ends - sizes
        heads = queue[cursor]
        counts = np.zeros(len(names), dtype=np.int64)
        picked = np.empty(k, dtype=np.int64)
        relaxed = 0

        for position in range(k):
            fits = np.all(counts + types <= maxima[position], axis=1)
            candidates = np.where(fits, heads, n)
            chosen = int(np.argmin(candidates))
            if candidates[chosen] == n:
                chosen = int(np.argmin(heads))
                relaxed += 1
            picked[position] = heads[chosen]
            counts += types[chosen]
            cursor[chosen] += 1
            heads[chosen] = queue[cursor[chosen]] if cursor[chosen] < ends[chosen] else n
        if relaxed:
            warnings.warn(
                f"(Δ+2) constraints infeasible at {relaxed} of {k} positions; "
                "best remaining item taken",
                UserWarning,
                stacklevel=2,
            )
        return order[picked]

    def rerank_mask(self, table: Table, scores: np.ndarray) -> np.ndarray:
        """Boolean mask version of :meth:`rerank`."""
        chosen = self.rerank(table, scores)
        mask = np.zeros(table.num_rows, dtype=bool)
        mask[chosen] = True
        return mask


def delta_two_from_dca(
    table: Table,
    base_scores: np.ndarray,
    compensated_scores: np.ndarray,
    group_names: Sequence[str],
    k: float,
    slack: int = 0,
) -> np.ndarray:
    """Run (Δ+2) with constraints copied from a DCA-compensated selection.

    The constraints bound each protected group *and its complement* at the
    composition of DCA's selection, so the greedy re-ranking of the base
    scores is steered toward the same demographic mix.  Returns the boolean
    selection mask.
    """
    size = selection_size(table.num_rows, k)
    dca_mask = selection_mask(np.asarray(compensated_scores, dtype=float), k)
    augmented, names = augment_with_complements(table, group_names)
    constraints = constraints_from_selection(augmented, dca_mask, names, size, slack=slack)
    reranker = DeltaTwoReranker(constraints)
    mask = reranker.rerank_mask(augmented, np.asarray(base_scores, dtype=float))
    return mask
