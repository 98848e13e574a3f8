"""Error-rate metrics: false positive / false negative rates and equalized-odds gaps.

The COMPAS experiments (Figure 10b) measure how unevenly the tool's *false
positive rate* — the share of defendants who did **not** re-offend but were
still flagged high-risk — is distributed across racial groups, and show that
DCA can be pointed at that gap directly.  These helpers compute the rates and
gaps given a selection mask and a ground-truth label column.

Conventions: ``selected`` marks the favourable outcome (e.g. judged low-risk
and released); a *predicted positive* is therefore an unselected object, and a
*false positive* is an unselected object whose true label is negative.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ranking import selection_mask
from ..tabular import Table

__all__ = [
    "false_positive_rate",
    "false_negative_rate",
    "group_false_positive_rates",
    "fpr_gaps",
    "equalized_odds_gap",
]


def _validate(selected: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    selected = np.asarray(selected, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if selected.shape != labels.shape:
        raise ValueError(f"selected has shape {selected.shape}, labels {labels.shape}")
    return selected, labels


def false_positive_rates(
    membership: np.ndarray, labels: np.ndarray, selected: np.ndarray
) -> tuple[float, list[float | None]]:
    """The overall FPR and each membership column's FPR.

    A false positive is an actual negative that was not selected.  The overall
    rate is 0.0 when there are no negatives; a group with no negatives has no
    rate (``None``).  The reported rates and gaps below and
    :class:`repro.core.FalsePositiveRateObjective` all read this definition.
    """
    flagged = ~selected  # not selected for release == predicted positive
    negatives = ~labels
    overall = float(flagged[negatives].mean()) if negatives.any() else 0.0
    rates: list[float | None] = []
    for member in membership.T:
        group_negatives = member & negatives
        rates.append(float(flagged[group_negatives].mean()) if group_negatives.any() else None)
    return overall, rates


def false_positive_rate(selected: np.ndarray, labels: np.ndarray) -> float:
    """P(flagged | true negative): share of actual negatives that were not selected."""
    selected, labels = _validate(selected, labels)
    no_groups = np.empty((labels.shape[0], 0), dtype=bool)
    return false_positive_rates(no_groups, labels, selected)[0]


def false_negative_rate(selected: np.ndarray, labels: np.ndarray) -> float:
    """P(not flagged | true positive): share of actual positives that were selected."""
    selected, labels = _validate(selected, labels)
    positives = labels
    if positives.sum() == 0:
        return 0.0
    return float(selected[positives].mean())


def _rates_by_name(
    table: Table,
    scores: np.ndarray,
    attribute_names: Sequence[str],
    label_column: str,
    k: float,
) -> tuple[float, dict[str, float]]:
    """Overall FPR and per-group FPRs of the top-k selection (0.0 for no negatives)."""
    selected = selection_mask(np.asarray(scores, dtype=float), k)
    overall, rates = false_positive_rates(
        table.matrix(attribute_names) > 0.5, table.numeric(label_column) > 0.5, selected
    )
    return overall, {
        name: 0.0 if rate is None else rate for name, rate in zip(attribute_names, rates)
    }


def group_false_positive_rates(
    table: Table,
    scores: np.ndarray,
    attribute_names: Sequence[str],
    label_column: str,
    k: float,
) -> dict[str, float]:
    """FPR of the top-k selection for each binary group column (Figure 10b's series)."""
    return _rates_by_name(table, scores, attribute_names, label_column, k)[1]


def fpr_gaps(
    table: Table,
    scores: np.ndarray,
    attribute_names: Sequence[str],
    label_column: str,
    k: float,
) -> dict[str, float]:
    """Per-group FPR minus the overall FPR (positive = the group is over-flagged)."""
    overall, rates = _rates_by_name(table, scores, attribute_names, label_column, k)
    return {name: rate - overall for name, rate in rates.items()}


def equalized_odds_gap(
    table: Table,
    scores: np.ndarray,
    attribute_names: Sequence[str],
    label_column: str,
    k: float,
) -> float:
    """Largest absolute per-group FPR deviation from the overall FPR."""
    gaps = fpr_gaps(table, scores, attribute_names, label_column, k)
    return float(max(abs(v) for v in gaps.values())) if gaps else 0.0
