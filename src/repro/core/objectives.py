"""Pluggable optimization objectives for DCA.

DCA's update rule moves the bonus vector *against* a per-attribute fairness
signal: ``B ← B − L · D``.  Any metric can drive the search as long as it
(Section VI-C5):

* is a vector with one independently computed dimension per fairness
  attribute,
* lies in [-1, 1] with **negative values meaning the group needs more bonus
  points** (under-representation / disadvantage), positive values meaning the
  group is over-compensated, and zero meaning fairness,
* can be summarized by its norm.

The objectives implemented here are the ones the paper evaluates:

``DisparityObjective``
    The default — Definition 3's centroid difference at a known ``k``.
``LogDiscountedDisparityObjective``
    Section IV-E's discounted average over a grid of ``k`` values.
``DisparateImpactObjective``
    The scaled disparate-impact ratio of Zafar et al. (Section VI-C5).
``FalsePositiveRateObjective``
    Equalized-odds-style FPR differences, used on COMPAS (Figure 10b).
``ExposureGapObjective``
    Per-group average exposure differences (the DDP building block of
    Section VI-C4), usable as a direct optimization target.

Array plane
-----------

Every objective can be **compiled** against a population via
:meth:`FairnessObjective.compile`, yielding a :class:`CompiledObjective` whose
``evaluate(indices, scores, k)`` works directly on NumPy arrays: the
population-level inputs (normalized attribute matrix, group-membership masks,
labels) are gathered once, and each sampled DCA step is served by row
indexing — no per-step :class:`~repro.tabular.Table` construction.  The
built-in objectives provide exact array-plane compilations (bitwise identical
to their table-path results); custom subclasses that only implement
``evaluate`` automatically fall back to a compiled wrapper that slices the
table, so they keep working in the DCA step loop unchanged.

Fits that draw the same sample stream run in lockstep
(:mod:`repro.core.dca`): each step, :meth:`CompiledObjective.take` restricts
a shared compiled objective to the step's sample once, and every fit then
evaluates the taken rows at its own ``k``.  The built-ins gather their state
rows (and, for the disparity objectives, the sample's centroid) once per
step; the default ``take`` just defers to ``evaluate(indices, scores, k)``.

Sharing compiled state
----------------------

Compiling an objective is the expensive part of a fit's setup (it walks the
whole population), and batched fits (:meth:`repro.core.DCA.fit_many`) run
many jobs against the *same* population.
:meth:`FairnessObjective.signature` is a stable, hashable description of an
objective's compiled-state inputs: two objectives with equal signatures,
fitted on the same population, compile to bitwise-identical state, so one
compiled instance can serve them all, cached per population
(:class:`repro.core.parallel.CompiledObjectiveCache`).  A compiled objective
is a plain value: the process backend hands the instances themselves to its
workers (inherited under ``fork``, pickled once per worker under ``spawn``).
Its only mutable state is scratch that is a deterministic function of its
arrays (a centroid, a per-``k`` weight memo), so sharing an instance keeps
every bit.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..ranking import selection_mask
from ..tabular import Table
from .disparity import (
    AttributeNormalizer,
    DisparityCalculator,
    DisparityResult,
    LogDiscountedDisparity,
)

__all__ = [
    "FairnessObjective",
    "CompiledObjective",
    "DisparityObjective",
    "LogDiscountedDisparityObjective",
    "DisparateImpactObjective",
    "FalsePositiveRateObjective",
    "ExposureGapObjective",
]


class CompiledObjective(abc.ABC):
    """A fairness objective bound to one population, evaluated on arrays.

    ``evaluate`` receives the row ``indices`` of the current sample (``None``
    meaning the whole population), the compensated ``scores`` of exactly those
    rows, and the selection fraction ``k``; it returns the raw signal vector
    (one value per fairness attribute) as a plain ``ndarray``.
    """

    __slots__ = ()

    @abc.abstractmethod
    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        """Per-attribute fairness signal for the rows at ``indices``."""

    def take(self, indices: np.ndarray) -> "CompiledObjective":
        """This objective restricted to the rows at ``indices``.

        The returned objective treats those rows as its whole population:
        ``take(indices).evaluate(None, scores, k)`` equals
        ``evaluate(indices, scores, k)`` bit for bit.  The DCA step loop takes
        each step's sample once per compiled objective and then evaluates
        every fit that drew that sample on the taken rows (see
        :mod:`repro.core.dca`).  The default defers each evaluation to
        :meth:`evaluate`, so a custom objective needs nothing more; the
        built-in objectives gather their state rows here, once.
        """
        return _TakenRows(self, indices)


class _TakenRows(CompiledObjective):
    """The default :meth:`CompiledObjective.take`: evaluation deferred to the source."""

    __slots__ = ("_source", "_indices")

    def __init__(self, source: CompiledObjective, indices: np.ndarray) -> None:
        self._source = source
        self._indices = indices

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        rows = self._indices if indices is None else self._indices[indices]
        return self._source.evaluate(rows, scores, k)


class _CompiledTableFallback(CompiledObjective):
    """Compiled wrapper for objectives that only implement the table path."""

    __slots__ = ("_objective", "_table")

    def __init__(self, objective: "FairnessObjective", table: Table) -> None:
        self._objective = objective
        self._table = table

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        subset = self._table if indices is None else self._table.take(indices)
        return self._objective.evaluate(subset, scores, k).vector


class FairnessObjective(abc.ABC):
    """Base class for the vector-valued fairness signals DCA can minimize."""

    def __init__(self, attribute_names: Sequence[str]) -> None:
        if not attribute_names:
            raise ValueError("at least one fairness attribute is required")
        self.attribute_names = tuple(attribute_names)

    @abc.abstractmethod
    def evaluate(self, table: Table, scores: np.ndarray, k: float) -> DisparityResult:
        """Per-attribute fairness signal for selecting the top ``k`` by ``scores``."""

    def fit(self, table: Table) -> "FairnessObjective":
        """Fit any normalization state on a reference population (no-op by default)."""
        return self

    def compile(self, table: Table) -> CompiledObjective:
        """Bind this objective to ``table`` for array-plane evaluation.

        The default compilation wraps the table path (slicing ``table`` per
        call), so any subclass works in the DCA step loop; the built-in
        objectives override this with exact vectorized versions.
        """
        return _CompiledTableFallback(self, table)

    def signature(self) -> tuple | None:
        """A stable, hashable description of this objective's compiled state.

        Contract: two objectives with equal signatures that have been
        ``fit`` on the same population compile to bitwise-identical state.
        The signature is what lets :class:`repro.core.parallel.CompiledObjectiveCache`
        reuse one compiled instance across the jobs of a batched fit.  The
        default ``None`` opts out of caching and sharing (always correct,
        never stale) — override it in subclasses whose compiled state is
        fully determined by constructor parameters plus the fitted
        population, and whose compiled form does not hold on to the table.
        """
        return None

    def norm(self, table: Table, scores: np.ndarray, k: float) -> float:
        return self.evaluate(table, scores, k).norm


class DisparityObjective(FairnessObjective):
    """The paper's default objective: Definition 3 disparity at a known ``k``."""

    def __init__(
        self,
        attribute_names: Sequence[str],
        normalizer: AttributeNormalizer | None = None,
    ) -> None:
        super().__init__(attribute_names)
        self.calculator = DisparityCalculator(self.attribute_names, normalizer=normalizer)

    def fit(self, table: Table) -> "DisparityObjective":
        self.calculator.fit(table)
        return self

    def evaluate(self, table: Table, scores: np.ndarray, k: float) -> DisparityResult:
        return self.calculator.disparity(table, scores, k)

    def compile(self, table: Table) -> CompiledObjective:
        return _CompiledDisparity(self.calculator.normalized_matrix(table))

    def signature(self) -> tuple:
        return ("disparity", self.attribute_names, _type_tag(self.calculator.normalizer))


def _type_tag(instance: object) -> str:
    """Fully qualified type name, used to make objective signatures precise."""
    cls = type(instance)
    return f"{cls.__module__}.{cls.__qualname__}"


def _column_means(matrix: np.ndarray) -> np.ndarray:
    """Column means via the raw ufunc reduction.

    Bitwise identical to ``matrix.mean(axis=0)`` (which performs the same
    ``add.reduce`` followed by the same division) but without the Python-level
    dispatch overhead, which matters at thousands of calls per fit.
    """
    return np.add.reduce(matrix, axis=0) / matrix.shape[0]


def _rows_and_centroid(
    compiled: "_CompiledDisparity | _CompiledLogDiscounted", indices: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The normalized-matrix rows at ``indices`` and their column means.

    The whole matrix's centroid is computed on first use and kept: a taken
    sample (:meth:`CompiledObjective.take`) is evaluated by every fit that
    drew it, and they all share its population centroid.
    """
    if indices is not None:
        matrix = compiled._matrix[indices]
        return matrix, _column_means(matrix)
    if compiled._centroid is None:
        compiled._centroid = _column_means(compiled._matrix)
    return compiled._matrix, compiled._centroid


class _CompiledDisparity(CompiledObjective):
    """Array-plane Definition 3 disparity over a pre-normalized matrix."""

    __slots__ = ("_matrix", "_centroid")

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix
        self._centroid: np.ndarray | None = None

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        matrix, centroid = _rows_and_centroid(self, indices)
        return _column_means(matrix[selection_mask(scores, k)]) - centroid

    def take(self, indices: np.ndarray) -> "_CompiledDisparity":
        return _CompiledDisparity(self._matrix[indices])


class LogDiscountedDisparityObjective(FairnessObjective):
    """Section IV-E: discounted disparity over many selection fractions."""

    def __init__(
        self,
        attribute_names: Sequence[str],
        k_grid: Sequence[float] | None = None,
        normalizer: AttributeNormalizer | None = None,
    ) -> None:
        super().__init__(attribute_names)
        self.calculator = DisparityCalculator(self.attribute_names, normalizer=normalizer)
        self.discounted = LogDiscountedDisparity(self.calculator, k_grid=k_grid)

    def fit(self, table: Table) -> "LogDiscountedDisparityObjective":
        self.calculator.fit(table)
        return self

    def evaluate(self, table: Table, scores: np.ndarray, k: float) -> DisparityResult:
        # ``k`` caps the grid: "the disparity outside that section of the
        # ranking can be ignored" when only part of the ranking matters.
        return self.discounted.disparity(table, scores, k=k)

    def compile(self, table: Table) -> CompiledObjective:
        return _CompiledLogDiscounted(
            self.calculator.normalized_matrix(table), self.discounted.k_grid
        )

    def signature(self) -> tuple:
        return (
            "log-discounted",
            self.attribute_names,
            self.discounted.k_grid,
            _type_tag(self.calculator.normalizer),
        )


class _CompiledLogDiscounted(CompiledObjective):
    """Array-plane log-discounted disparity over a grid of selection fractions."""

    __slots__ = ("_matrix", "_k_grid", "_grids", "_centroid")

    def __init__(
        self,
        matrix: np.ndarray,
        k_grid: tuple[float, ...],
        grids: dict[float, tuple[tuple[float, ...], np.ndarray]] | None = None,
    ) -> None:
        self._matrix = matrix
        self._k_grid = k_grid
        self._grids = {} if grids is None else grids
        self._centroid: np.ndarray | None = None

    def _capped_grid(self, k: float) -> tuple[tuple[float, ...], np.ndarray]:
        # ``k`` is constant across a fit's thousands of steps, and a k sweep
        # evaluates a few ``k`` on one instance in turn: cache the capped
        # grid and normalized weights per ``k`` instead of rebuilding them.
        cached = self._grids.get(k)
        if cached is None:
            grid = tuple(g for g in self._k_grid if g <= k + 1e-12)
            if not grid:
                grid = (self._k_grid[0],)
            weights = np.asarray([1.0 / np.log2(100.0 * g + 1.0) for g in grid], dtype=float)
            cached = self._grids[k] = (grid, weights / weights.sum())
        return cached

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        matrix, population_centroid = _rows_and_centroid(self, indices)
        grid, weights = self._capped_grid(k)
        total = np.zeros(matrix.shape[1], dtype=float)
        for weight, fraction in zip(weights, grid):
            mask = selection_mask(scores, fraction)
            total += weight * (_column_means(matrix[mask]) - population_centroid)
        return total

    def take(self, indices: np.ndarray) -> "_CompiledLogDiscounted":
        # The taken rows share this instance's per-k weight cache.
        return _CompiledLogDiscounted(self._matrix[indices], self._k_grid, self._grids)


class DisparateImpactObjective(FairnessObjective):
    """Scaled disparate impact (Zafar et al.) adapted to DCA's conventions.

    For a binary attribute F, disparate impact is
    ``min(P(O=1|F=0)/P(O=1|F=1), P(O=1|F=1)/P(O=1|F=0))`` — a ratio in [0, 1]
    where 1 means equal selection rates.  To drive DCA it is rescaled to
    [-1, 1]: the magnitude is ``1 − DI`` and the sign is negative when the
    protected group (F=1) is selected at a *lower* rate than the rest, so that
    the standard update ``B ← B − L·D`` adds points to the disadvantaged group.
    """

    def __init__(self, attribute_names: Sequence[str]) -> None:
        super().__init__(attribute_names)

    def evaluate(self, table: Table, scores: np.ndarray, k: float) -> DisparityResult:
        scores = np.asarray(scores, dtype=float)
        mask = selection_mask(scores, k)
        membership = _membership_matrix(table, self.attribute_names)
        return DisparityResult(self.attribute_names, _disparate_impact_values(membership, mask))

    def compile(self, table: Table) -> CompiledObjective:
        return _CompiledGroupObjective(
            _membership_matrix(table, self.attribute_names), _disparate_impact_values
        )

    def signature(self) -> tuple:
        return ("disparate-impact", self.attribute_names)


class FalsePositiveRateObjective(FairnessObjective):
    """Equalized-odds-style objective: per-group false-positive-rate gaps.

    The COMPAS setting flags defendants predicted to re-offend; a *false
    positive* is a defendant who did **not** re-offend but was flagged (i.e.
    was not in the selected low-risk set).  For each group the objective
    reports ``FPR_overall − FPR_group``: negative when the group's FPR exceeds
    the overall rate (the group is over-flagged and needs compensation), zero
    when the rates match.  The paper phrases the same quantity as "subtract
    the overall FPR from the per-group FPR"; the sign here is flipped so that
    the uniform DCA update ``B ← B − L·D`` raises bonuses for over-flagged
    groups.

    Parameters
    ----------
    attribute_names:
        Binary group-membership columns (e.g. one-hot race indicators).
    label_column:
        Column holding the true outcome; 1 means the positive event (e.g.
        recidivism within two years) actually occurred.
    """

    def __init__(self, attribute_names: Sequence[str], label_column: str) -> None:
        super().__init__(attribute_names)
        self.label_column = str(label_column)

    def evaluate(self, table: Table, scores: np.ndarray, k: float) -> DisparityResult:
        scores = np.asarray(scores, dtype=float)
        selected = selection_mask(scores, k)
        membership = _membership_matrix(table, self.attribute_names)
        labels = table.numeric(self.label_column) > 0.5
        return DisparityResult(
            self.attribute_names, _false_positive_rate_values(membership, labels, selected)
        )

    def compile(self, table: Table) -> CompiledObjective:
        membership = _membership_matrix(table, self.attribute_names)
        labels = table.numeric(self.label_column) > 0.5
        return _CompiledFalsePositiveRate(membership, labels)

    def signature(self) -> tuple:
        return ("fpr", self.attribute_names, self.label_column)


class ExposureGapObjective(FairnessObjective):
    """Per-group exposure gaps with logarithmic position discounting.

    Exposure of a ranked object at (1-based) rank ``r`` is ``1 / log2(r + 1)``
    (Gupta et al., 2021).  For each fairness attribute the objective reports
    the difference between the group's average exposure and the complement
    group's average exposure, scaled by the maximum attainable exposure so the
    value stays in [-1, 1].  Negative means the group is ranked systematically
    lower (needs compensation).
    """

    def __init__(self, attribute_names: Sequence[str]) -> None:
        super().__init__(attribute_names)

    def evaluate(self, table: Table, scores: np.ndarray, k: float) -> DisparityResult:
        scores = np.asarray(scores, dtype=float)
        membership = _membership_matrix(table, self.attribute_names)
        return DisparityResult(self.attribute_names, _exposure_gap_values(membership, scores))

    def compile(self, table: Table) -> CompiledObjective:
        return _CompiledExposureGap(_membership_matrix(table, self.attribute_names))

    def signature(self) -> tuple:
        return ("exposure-gap", self.attribute_names)


# ----------------------------------------------------------------------
# Shared array-plane kernels.
#
# The table-path ``evaluate`` methods and the compiled objectives both call
# these functions, so the two planes cannot drift apart: a compiled evaluation
# over ``membership[indices]`` is the same arithmetic as a table evaluation
# over the sliced table.
# ----------------------------------------------------------------------
def _membership_matrix(table: Table, attribute_names: Sequence[str]) -> np.ndarray:
    """Boolean ``(rows, attributes)`` group-membership matrix of ``table``."""
    return np.column_stack(
        [table.numeric(name) > 0.5 for name in attribute_names]
    )


def _disparate_impact_values(membership: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Scaled disparate impact per attribute given membership and selection mask."""
    values = np.zeros(membership.shape[1], dtype=float)
    for i in range(membership.shape[1]):
        member = membership[:, i]
        in_group = member.sum()
        out_group = (~member).sum()
        if in_group == 0 or out_group == 0:
            values[i] = 0.0
            continue
        rate_in = mask[member].mean()
        rate_out = mask[~member].mean()
        if rate_in == 0.0 and rate_out == 0.0:
            values[i] = 0.0
            continue
        high = max(rate_in, rate_out)
        low = min(rate_in, rate_out)
        ratio = low / high if high > 0 else 1.0
        magnitude = 1.0 - ratio
        values[i] = magnitude if rate_in > rate_out else -magnitude
    return values


def _false_positive_rate_values(
    membership: np.ndarray, labels: np.ndarray, selected: np.ndarray
) -> np.ndarray:
    """Per-group ``FPR_overall − FPR_group`` given membership, labels, selection."""
    flagged = ~selected  # not selected for release == predicted positive
    actual_negative = ~labels
    values = np.zeros(membership.shape[1], dtype=float)
    total_negatives = actual_negative.sum()
    overall_fpr = float(flagged[actual_negative].mean()) if total_negatives > 0 else 0.0
    for i in range(membership.shape[1]):
        group_negatives = membership[:, i] & actual_negative
        if group_negatives.sum() == 0:
            values[i] = 0.0
            continue
        group_fpr = float(flagged[group_negatives].mean())
        values[i] = overall_fpr - group_fpr
    return values


def _exposure_gap_values(membership: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Per-group exposure gaps with logarithmic position discounting."""
    n = scores.shape[0]
    if n == 0:
        raise ValueError("cannot compute exposure over an empty table")
    order = np.lexsort((np.arange(n), -scores))
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.arange(1, n + 1, dtype=float)
    exposure = 1.0 / np.log2(ranks + 1.0)
    values = np.zeros(membership.shape[1], dtype=float)
    for i in range(membership.shape[1]):
        member = membership[:, i]
        if member.sum() == 0 or (~member).sum() == 0:
            values[i] = 0.0
            continue
        gap = exposure[member].mean() - exposure[~member].mean()
        values[i] = float(np.clip(gap, -1.0, 1.0))
    return values


class _CompiledGroupObjective(CompiledObjective):
    """Compiled selection-mask objective over a precomputed membership matrix."""

    __slots__ = ("_membership", "_kernel")

    def __init__(self, membership: np.ndarray, kernel) -> None:
        self._membership = membership
        self._kernel = kernel

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        membership = self._membership if indices is None else self._membership[indices]
        return self._kernel(membership, selection_mask(scores, k))

    def take(self, indices: np.ndarray) -> "_CompiledGroupObjective":
        return _CompiledGroupObjective(self._membership[indices], self._kernel)


class _CompiledFalsePositiveRate(CompiledObjective):
    """Compiled equalized-odds FPR gaps over precomputed membership and labels."""

    __slots__ = ("_membership", "_labels")

    def __init__(self, membership: np.ndarray, labels: np.ndarray) -> None:
        self._membership = membership
        self._labels = labels

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        if indices is None:
            membership, labels = self._membership, self._labels
        else:
            membership, labels = self._membership[indices], self._labels[indices]
        return _false_positive_rate_values(membership, labels, selection_mask(scores, k))

    def take(self, indices: np.ndarray) -> "_CompiledFalsePositiveRate":
        return _CompiledFalsePositiveRate(self._membership[indices], self._labels[indices])


class _CompiledExposureGap(CompiledObjective):
    """Compiled exposure gaps over a precomputed membership matrix."""

    __slots__ = ("_membership",)

    def __init__(self, membership: np.ndarray) -> None:
        self._membership = membership

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        membership = self._membership if indices is None else self._membership[indices]
        return _exposure_gap_values(membership, scores)

    def take(self, indices: np.ndarray) -> "_CompiledExposureGap":
        return _CompiledExposureGap(self._membership[indices])
