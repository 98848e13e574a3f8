"""Multinomial FA*IR (Zehlike et al., 2022): fair top-k with multiple protected groups.

The paper compares DCA against the authors' Java implementation of
Multinomial FA*IR on one NYC district (Table II).  This module is a Python
re-implementation of the method's core idea:

* the protected groups must be **non-overlapping** (the paper works around
  this by taking the Cartesian product of its overlapping attributes and
  keeping the most-discriminated-against subgroups);
* for every ranking prefix of length ``i`` the count of each protected group
  must be at least the count below which a multinomial draw with the target
  proportions would be *too unlikely* (significance ``alpha``);
* re-ranking greedily walks down the positions, preferring the
  highest-scoring candidate from any group currently in deficit and otherwise
  the overall highest-scoring remaining candidate.

The exact multinomial mtable of the original paper is computed by dynamic
programming over the multinomial CDF and is expensive; here the per-prefix
minimum counts are estimated by Monte-Carlo simulation of multinomial draws,
which preserves the guarantee up to simulation error while keeping the
baseline fast enough to run inside the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..ranking import best_first_order
from ..tabular import Table

__all__ = ["MultinomialMTable", "MultinomialFairRanker", "cartesian_subgroups"]


def cartesian_subgroups(
    table: Table, attribute_names: Sequence[str], top: int = 3, by: str = "rarest-disadvantaged"
) -> dict[str, np.ndarray]:
    """Build non-overlapping subgroups from overlapping binary attributes.

    Multinomial FA*IR requires disjoint groups, so — following the paper's
    protocol — the Cartesian product of the binary fairness attributes is
    enumerated and the ``top`` most-disadvantaged non-empty combinations are
    kept as the protected subgroups ("we looked at the Cartesian product of
    all our parameters and picked the 3 most-discriminated against
    subgroups").  Disadvantage is proxied by the number of protected
    attributes the combination exhibits, breaking ties toward rarer groups.

    Returns a mapping from a subgroup label such as ``"low_income&ell"`` to
    its boolean membership mask.
    """
    if not attribute_names:
        raise ValueError("at least one attribute is required")
    memberships = {name: table.numeric(name) > 0.5 for name in attribute_names}
    combinations: dict[str, np.ndarray] = {}
    num_attributes = len(attribute_names)
    for bits in range(1, 2**num_attributes):
        included = [attribute_names[i] for i in range(num_attributes) if bits >> i & 1]
        mask = np.ones(table.num_rows, dtype=bool)
        for name in attribute_names:
            if name in included:
                mask &= memberships[name]
            else:
                mask &= ~memberships[name]
        if mask.any():
            combinations["&".join(included)] = mask
    ranked = sorted(
        combinations.items(),
        key=lambda item: (item[0].count("&") + 1, -item[1].mean()),
        reverse=True,
    )
    return dict(ranked[:top])


@dataclass(frozen=True)
class MultinomialMTable:
    """Per-prefix minimum counts for each protected group.

    Attributes
    ----------
    group_names:
        Protected group labels (non-overlapping).
    minima:
        Integer array of shape ``(k, num_groups)``; ``minima[i - 1, g]`` is
        the minimum acceptable count of group ``g`` in any prefix of length
        ``i``.
    """

    group_names: tuple[str, ...]
    minima: np.ndarray

    @classmethod
    def estimate(
        cls,
        k: int,
        proportions: Mapping[str, float],
        alpha: float = 0.1,
        trials: int = 4_000,
        seed: int = 0,
    ) -> "MultinomialMTable":
        """Monte-Carlo estimate of the multinomial mtable.

        For each group the minimum count at prefix ``i`` is the empirical
        ``alpha``-quantile of the group's count among ``i`` draws from the
        target multinomial distribution.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        names = tuple(proportions.keys())
        shares = np.asarray([proportions[name] for name in names], dtype=float)
        if np.any(shares <= 0) or shares.sum() >= 1.0 + 1e-9:
            raise ValueError(
                "group proportions must be positive and sum to less than 1 "
                f"(the remainder is the unprotected share); got {dict(proportions)}"
            )
        rng = np.random.default_rng(seed)
        # Sample group membership of each of the k positions across trials.
        unprotected = 1.0 - shares.sum()
        full = np.concatenate([shares, [unprotected]])
        draws = rng.choice(len(full), size=(trials, k), p=full)
        minima = np.zeros((k, len(names)), dtype=int)
        for g in range(len(names)):
            counts = np.cumsum(draws == g, axis=1)
            minima[:, g] = np.quantile(counts, alpha, axis=0, method="lower")
        minima = cls._make_greedy_feasible(minima)
        return cls(group_names=names, minima=minima)

    @staticmethod
    def _make_greedy_feasible(minima: np.ndarray) -> np.ndarray:
        """Pull requirements forward so the total never grows by more than one per position.

        The per-group quantiles are estimated independently, so two groups'
        minimum counts can jump at the same prefix length — which a re-ranker
        that places one object per position cannot satisfy.  Moving the excess
        requirement to an earlier prefix keeps the constraint at least as
        strict while making it satisfiable by the greedy merge.
        """
        minima = minima.copy()
        k = minima.shape[0]
        # Only one object exists at prefix 1.
        while minima[0].sum() > 1:
            minima[0, int(np.argmax(minima[0]))] -= 1
        for i in range(k - 1, 0, -1):
            while minima[i].sum() - minima[i - 1].sum() > 1:
                jumps = minima[i] - minima[i - 1]
                minima[i - 1, int(np.argmax(jumps))] += 1
        return minima

    def required(self, prefix_length: int) -> dict[str, int]:
        """Minimum counts required for a prefix of the given length."""
        if prefix_length <= 0 or prefix_length > self.minima.shape[0]:
            raise ValueError(
                f"prefix_length must be in [1, {self.minima.shape[0]}], got {prefix_length}"
            )
        row = self.minima[prefix_length - 1]
        return {name: int(row[i]) for i, name in enumerate(self.group_names)}


@dataclass
class MultinomialFairRanker:
    """Greedy multinomial-FA*IR-style re-ranker.

    Parameters
    ----------
    proportions:
        Target share of each (disjoint) protected group.
    alpha:
        Statistical significance of the per-prefix test.
    trials, seed:
        Monte-Carlo parameters for the mtable estimate.
    """

    proportions: Mapping[str, float]
    alpha: float = 0.1
    trials: int = 4_000
    seed: int = 0
    _mtable_cache: dict[int, MultinomialMTable] = field(default_factory=dict, repr=False)

    def _mtable(self, k: int) -> MultinomialMTable:
        if k not in self._mtable_cache:
            self._mtable_cache[k] = MultinomialMTable.estimate(
                k, self.proportions, alpha=self.alpha, trials=self.trials, seed=self.seed
            )
        return self._mtable_cache[k]

    def rerank(
        self,
        scores: np.ndarray,
        group_masks: Mapping[str, np.ndarray],
        k: int,
    ) -> np.ndarray:
        """Return the indices of the fair top-k, best first.

        ``group_masks`` maps each protected group name to its boolean
        membership mask; masks must be disjoint.  Objects in no protected
        group form the unprotected pool.
        """
        scores = np.asarray(scores, dtype=float)
        n = scores.shape[0]
        if k <= 0 or k > n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        names = tuple(self.proportions.keys())
        missing = [name for name in names if name not in group_masks]
        if missing:
            raise ValueError(f"group_masks is missing groups {missing}")
        masks = {name: np.asarray(group_masks[name], dtype=bool) for name in names}
        overlap = np.zeros(n, dtype=int)
        for mask in masks.values():
            overlap += mask.astype(int)
        if np.any(overlap > 1):
            raise ValueError("protected groups must be non-overlapping")

        mtable = self._mtable(k)
        order = best_first_order(scores)
        queues: dict[str, list[int]] = {
            name: [i for i in order if masks[name][i]] for name in names
        }
        unprotected_queue = [i for i in order if overlap[i] == 0]
        pointers = {name: 0 for name in names}
        unprotected_pointer = 0
        counts = {name: 0 for name in names}
        result: list[int] = []

        for position in range(1, k + 1):
            required = mtable.required(position)
            deficits = {
                name: required[name] - counts[name]
                for name in names
                if pointers[name] < len(queues[name])
            }
            pressing = [name for name, deficit in deficits.items() if deficit > 0]
            if pressing:
                # Serve the group with the largest deficit; tie-break by the
                # score of its best remaining candidate.
                chosen_group = max(
                    pressing,
                    key=lambda name: (deficits[name], scores[queues[name][pointers[name]]]),
                )
                index = queues[chosen_group][pointers[chosen_group]]
                pointers[chosen_group] += 1
                counts[chosen_group] += 1
                result.append(index)
                continue
            # No deficit: take the best remaining candidate overall.
            candidates: list[tuple[float, int, str | None]] = []
            if unprotected_pointer < len(unprotected_queue):
                index = unprotected_queue[unprotected_pointer]
                candidates.append((scores[index], -index, None))
            for name in names:
                if pointers[name] < len(queues[name]):
                    index = queues[name][pointers[name]]
                    candidates.append((scores[index], -index, name))
            if not candidates:
                break
            _, negative_index, source = max(candidates)
            index = -negative_index
            if source is None:
                unprotected_pointer += 1
            else:
                pointers[source] += 1
                counts[source] += 1
            result.append(index)
        return np.asarray(result, dtype=np.int64)

    def rerank_mask(
        self, scores: np.ndarray, group_masks: Mapping[str, np.ndarray], k: int
    ) -> np.ndarray:
        """Boolean mask version of :meth:`rerank`."""
        chosen = self.rerank(scores, group_masks, k)
        mask = np.zeros(np.asarray(scores).shape[0], dtype=bool)
        mask[chosen] = True
        return mask
