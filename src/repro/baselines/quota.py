"""Quota / set-aside baselines (Section VI-C1).

Real-world school systems mostly address disparity with *set-asides*: a fixed
share of the seats is reserved for members of one protected group (NYC's
low-income set-aside being the canonical example).  The paper compares DCA
against "a simple quota system" in which one single quota is applied for all
the different fairness dimensions, and notes that quotas become cumbersome as
soon as several dimensions overlap.

Two selection procedures are provided:

* :func:`quota_selection` — a single-attribute set-aside: a share of the
  selection is reserved for the highest-scoring members of one group, the
  remaining seats go to the highest-scoring objects overall.
* :func:`multi_quota_selection` — the "one quota per dimension" extension:
  each attribute gets its own reserved share, processed in order of the
  largest shortfall first; objects satisfying several dimensions count toward
  every quota they satisfy (the overlapping-reserves policy question the
  paper highlights).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..ranking import best_first_order, selection_size
from ..tabular import Table

__all__ = ["quota_selection", "multi_quota_selection"]


def quota_selection(
    table: Table,
    scores: np.ndarray,
    k: float,
    attribute: str,
    reserved_share: float | None = None,
) -> np.ndarray:
    """Top-k selection with a set-aside for one binary attribute.

    Parameters
    ----------
    table, scores, k:
        The population, its ranking scores, and the selection fraction.
    attribute:
        Binary fairness attribute benefiting from the set-aside.
    reserved_share:
        Share of the selection reserved for the group.  Defaults to the
        group's population share, i.e. the statistical-parity target.

    Returns
    -------
    numpy.ndarray
        Boolean selection mask over the rows of ``table``.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (table.num_rows,):
        raise ValueError(f"scores have shape {scores.shape}, expected ({table.num_rows},)")
    membership = table.numeric(attribute) > 0.5
    if reserved_share is None:
        reserved_share = float(membership.mean())
    if not 0.0 <= reserved_share <= 1.0:
        raise ValueError(f"reserved_share must be in [0, 1], got {reserved_share}")

    total_seats = selection_size(table.num_rows, k)
    reserved_seats = min(int(round(reserved_share * total_seats)), int(membership.sum()))

    order = best_first_order(scores)
    selected = np.zeros(table.num_rows, dtype=bool)

    # Fill the reserved seats with the group's best-ranked members.
    group_order = order[membership[order]]
    selected[group_order[:reserved_seats]] = True

    # Fill the remaining seats with the best-ranked objects not yet selected.
    remaining = total_seats - int(selected.sum())
    for index in order:
        if remaining == 0:
            break
        if not selected[index]:
            selected[index] = True
            remaining -= 1
    return selected


def multi_quota_selection(
    table: Table,
    scores: np.ndarray,
    k: float,
    reserved_shares: Mapping[str, float] | Sequence[str],
) -> np.ndarray:
    """Top-k selection with one set-aside per fairness dimension.

    ``reserved_shares`` maps each attribute to its reserved share; passing a
    plain sequence of attribute names reserves each group's population share.
    Objects belonging to several protected groups count toward *all* of them
    (the overlapping-reserves interpretation), which is what makes the policy
    hard to reason about and motivates the bonus-point approach.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (table.num_rows,):
        raise ValueError(f"scores have shape {scores.shape}, expected ({table.num_rows},)")
    if not isinstance(reserved_shares, Mapping):
        reserved_shares = {
            name: float(np.mean(table.numeric(name) > 0.5)) for name in reserved_shares
        }
    if not reserved_shares:
        raise ValueError("at least one quota attribute is required")

    total_seats = selection_size(table.num_rows, k)
    order = best_first_order(scores)
    memberships = {
        name: table.numeric(name) > 0.5 for name in reserved_shares
    }
    targets = {
        name: min(int(round(share * total_seats)), int(memberships[name].sum()))
        for name, share in reserved_shares.items()
    }

    selected = np.zeros(table.num_rows, dtype=bool)
    counts = {name: 0 for name in reserved_shares}

    def seats_taken() -> int:
        return int(selected.sum())

    # Repeatedly serve the dimension with the largest remaining shortfall,
    # admitting its best unselected member; stop when no shortfall remains.
    while seats_taken() < total_seats:
        shortfalls = {
            name: targets[name] - counts[name] for name in reserved_shares
        }
        name, shortfall = max(shortfalls.items(), key=lambda item: item[1])
        if shortfall <= 0:
            break
        candidate = next(
            (index for index in order if memberships[name][index] and not selected[index]),
            None,
        )
        if candidate is None:
            targets[name] = counts[name]  # group exhausted
            continue
        selected[candidate] = True
        for other, membership in memberships.items():
            if membership[candidate]:
                counts[other] += 1

    # Fill whatever is left by pure merit order.
    remaining = total_seats - seats_taken()
    for index in order:
        if remaining == 0:
            break
        if not selected[index]:
            selected[index] = True
            remaining -= 1
    return selected
