"""Test-only reference implementation of the (Δ+2) greedy re-ranker.

This is the original per-(position, item) scan that
:meth:`repro.baselines.DeltaTwoReranker.rerank` replaced: at every position it
walks the score order from the first unused item, builds the tentative group
counts of each candidate and places the first one whose counts fit the prefix
maxima, relaxing the constraints (best remaining item) when nothing fits.  It
is kept verbatim as the oracle the per-type implementation must match
index-for-index (``np.array_equal``); it is far too slow for production use
(O(k·n·G) Python work in the worst case).

Import it from a test module as ``from _delta_two_oracle import
reference_rerank``; benchmarks load it by path.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.baselines import PrefixConstraints
from repro.tabular import Table

__all__ = ["allows", "reference_rerank"]


def allows(constraints: PrefixConstraints, prefix_length: int, counts: Mapping[str, int]) -> bool:
    """Whether ``counts`` fit every group's maximum for a prefix of ``prefix_length``."""
    row = constraints.maxima[prefix_length - 1]
    return all(counts[name] <= row[i] for i, name in enumerate(constraints.group_names))


def reference_rerank(
    constraints: PrefixConstraints, table: Table, scores: np.ndarray
) -> np.ndarray:
    """Return the indices of the constrained top-k, best first (reference loop)."""
    scores = np.asarray(scores, dtype=float)
    n = table.num_rows
    if scores.shape != (n,):
        raise ValueError(f"scores have shape {scores.shape}, expected ({n},)")
    k = min(constraints.k, n)
    names = constraints.group_names
    memberships = {name: table.numeric(name) > 0.5 for name in names}
    order = list(np.lexsort((np.arange(n), -scores)))
    used = np.zeros(n, dtype=bool)
    counts = {name: 0 for name in names}
    result: list[int] = []
    # ``frontier`` is the position in ``order`` before which every item is
    # already used, so each greedy pass resumes from there instead of
    # rescanning the whole order (keeps the loop near-linear in practice).
    frontier = 0

    for position in range(1, k + 1):
        while frontier < n and used[order[frontier]]:
            frontier += 1
        placed = False
        for cursor in range(frontier, n):
            index = order[cursor]
            if used[index]:
                continue
            tentative = {
                name: counts[name] + (1 if memberships[name][index] else 0) for name in names
            }
            if allows(constraints, position, tentative):
                used[index] = True
                counts = tentative
                result.append(index)
                placed = True
                break
        if not placed:
            for cursor in range(frontier, n):
                index = order[cursor]
                if not used[index]:
                    used[index] = True
                    for name in names:
                        if memberships[name][index]:
                            counts[name] += 1
                    result.append(index)
                    break
    return np.asarray(result, dtype=np.int64)
