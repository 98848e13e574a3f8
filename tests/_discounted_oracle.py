"""Test oracle for the log-discounted disparity kernel.

:func:`repro.core.disparity.discounted_shift` ranks a sample once and reads
every grid fraction's selection as a prefix of that ranking.  This module
keeps the definition it replaced: one independent top-k selection per grid
fraction, each gathered with a boolean mask.  Tests pin the kernel to it
byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.disparity import column_means
from repro.ranking import selection_mask


def reference_discounted_shift(
    matrix: np.ndarray,
    centroid: np.ndarray,
    scores: np.ndarray,
    grid: tuple[float, ...],
    weights: np.ndarray,
) -> np.ndarray:
    """The weighted sum of the Definition 3 disparities, one ``selection_mask`` per fraction."""
    total = np.zeros(matrix.shape[1], dtype=float)
    for weight, fraction in zip(weights, grid):
        total += weight * (column_means(matrix[selection_mask(scores, fraction)]) - centroid)
    return total
