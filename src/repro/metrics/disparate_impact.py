"""Disparate impact: selection-rate ratios between protected and unprotected groups.

Disparate impact (Zafar et al., as used in Section VI-C5) for one binary
fairness attribute F is::

    DI = min( P(O=1 | F=0) / P(O=1 | F=1),  P(O=1 | F=1) / P(O=1 | F=0) )

where O=1 means the object is selected.  DI lies in [0, 1]; 1 means the
groups are selected at identical rates (the classic "80% rule" flags DI below
0.8).  The scaled-to-[-1, 1] version used to drive DCA lives in
:class:`repro.core.objectives.DisparateImpactObjective`; this module provides
the plain reporting metric.  Both are read off one definition of the rates,
:func:`group_selection_rates`, and of the ratio, :func:`impact_ratio`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ranking import selection_mask
from ..tabular import Table

__all__ = ["selection_rates", "disparate_impact", "disparate_impact_by_attribute"]


def group_selection_rates(
    membership: np.ndarray, selected: np.ndarray
) -> list[tuple[float, float] | None]:
    """(in-group, out-of-group) selection rates of each membership column.

    ``membership`` is a boolean ``(rows, groups)`` matrix; a column whose
    group or complement is empty has no rates (``None``).
    """
    rates: list[tuple[float, float] | None] = []
    for member in membership.T:
        if member.all() or not member.any():
            rates.append(None)
        else:
            rates.append((selected[member].mean(), selected[~member].mean()))
    return rates


def impact_ratio(rate_in: float, rate_out: float) -> float:
    """The DI ratio of two selection rates: lower over higher, 1.0 if neither is selected."""
    high = max(rate_in, rate_out)
    if high == 0.0:
        return 1.0
    return float(min(rate_in, rate_out) / high)


def selection_rates(membership: np.ndarray, selected: np.ndarray) -> tuple[float, float]:
    """Selection rates (in-group, out-of-group) for one binary attribute."""
    membership = np.asarray(membership, dtype=bool)
    selected = np.asarray(selected, dtype=bool)
    if membership.shape != selected.shape:
        raise ValueError(
            f"membership has shape {membership.shape}, expected {selected.shape}"
        )
    (rates,) = group_selection_rates(membership[:, None], selected)
    if rates is None:
        raise ValueError("both the protected and unprotected groups must be non-empty")
    return float(rates[0]), float(rates[1])


def disparate_impact(membership: np.ndarray, selected: np.ndarray) -> float:
    """The DI ratio in [0, 1] for one binary attribute (1 = parity)."""
    return impact_ratio(*selection_rates(membership, selected))


def disparate_impact_by_attribute(
    table: Table,
    scores: np.ndarray,
    attribute_names: Sequence[str],
    k: float,
) -> dict[str, float]:
    """DI of the top-k selection for each binary fairness attribute (1.0 for an empty side)."""
    selected = selection_mask(np.asarray(scores, dtype=float), k)
    rates = group_selection_rates(table.matrix(attribute_names) > 0.5, selected)
    return {
        name: 1.0 if pair is None else impact_ratio(*pair)
        for name, pair in zip(attribute_names, rates)
    }
