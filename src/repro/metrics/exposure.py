"""Exposure-based fairness metrics (Section VI-C4).

Exposure of a group in a ranking is the sum, over the group's members, of the
position value ``1 / log2(rank + 1)`` (Gupta et al., 2021).  The demographic
disparity constraint (DDP) is the largest pairwise difference between the
groups' *average* exposures; zero means every group receives the same average
exposure and the ranking is considered fair under this metric.  DDP values
are not comparable across datasets of different sizes, which is why the paper
reports only the before/after ratio.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ranking import best_first_order
from ..tabular import Table

__all__ = ["position_values", "group_exposure", "average_group_exposure", "ddp"]


def _position_values(count: int) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=float)
    return 1.0 / np.log2(ranks + 1.0)


def position_values(num_objects: int) -> np.ndarray:
    """The value of each 1-based rank position: ``1 / log2(rank + 1)``."""
    if num_objects <= 0:
        raise ValueError(f"num_objects must be positive, got {num_objects}")
    return _position_values(num_objects)


def row_exposure(scores: np.ndarray) -> np.ndarray:
    """Each row's exposure: the position value of its rank in ``best_first_order``.

    ``scores`` must already be a float array.  The reported exposures below
    and :class:`repro.core.ExposureGapObjective` both rank through this.
    """
    exposure = np.empty(scores.shape[0], dtype=float)
    exposure[best_first_order(scores)] = _position_values(scores.shape[0])
    return exposure


def average_exposures(exposure: np.ndarray, membership: np.ndarray) -> list[float | None]:
    """Average exposure of each membership column's group (``None`` for an empty group).

    The same ``sum / size`` as :func:`average_group_exposure`; :func:`ddp`
    and :class:`repro.core.ExposureGapObjective` read it.
    """
    averages: list[float | None] = []
    for member in membership.T:
        size = int(member.sum())
        averages.append(float(exposure[member].sum()) / size if size else None)
    return averages


def group_exposure(scores: np.ndarray, membership: np.ndarray) -> float:
    """Total exposure of the group whose ``membership`` mask is True."""
    membership = np.asarray(membership, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    if membership.shape != scores.shape:
        raise ValueError(
            f"membership has shape {membership.shape}, expected {scores.shape}"
        )
    return float(row_exposure(scores)[membership].sum())


def average_group_exposure(scores: np.ndarray, membership: np.ndarray) -> float:
    """Exposure of the group divided by the group size (``exposure(G|R) / |G|``)."""
    membership = np.asarray(membership, dtype=bool)
    size = int(membership.sum())
    if size == 0:
        raise ValueError("the group is empty; average exposure is undefined")
    return group_exposure(scores, membership) / size


def ddp(
    table: Table,
    scores: np.ndarray,
    group_columns: Sequence[str],
    include_complements: bool = False,
) -> float:
    """Demographic disparity (DDP): max pairwise average-exposure difference.

    ``group_columns`` are binary membership columns; each defines one group
    (objects may belong to several).  Groups with no members are skipped.

    With ``include_complements=True`` every column additionally contributes
    its complement group (the objects *outside* the protected group), built
    on the fly from the membership mask.  This is the protected-vs-complement
    comparison of the exposure experiment: a ranking that under-exposes a
    protected group relative to everyone else registers a disparity even when
    the protected groups happen to have similar average exposures among
    themselves.  Since DDP is a max–min over group averages, adding the
    complements can only keep or increase the value.
    """
    if len(group_columns) < 2 and not include_complements:
        raise ValueError("DDP needs at least two groups to compare")
    membership = table.matrix(group_columns) > 0.5
    if include_complements:
        membership = np.hstack([membership, ~membership])
    exposure = row_exposure(np.asarray(scores, dtype=float))
    averages = [a for a in average_exposures(exposure, membership) if a is not None]
    if len(averages) < 2:
        raise ValueError("fewer than two non-empty groups; DDP is undefined")
    return float(max(averages) - min(averages))
