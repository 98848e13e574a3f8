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
table, so they keep working under the array engine unchanged.

Sharing compiled state
----------------------

Compiling an objective is the expensive part of a fit's setup (it walks the
whole population), and batched fits (:meth:`repro.core.DCA.fit_many`) run
many jobs against the *same* population.  Two hooks let that work be done
once:

* :meth:`FairnessObjective.signature` — a stable, hashable description of an
  objective's compiled-state inputs.  Two objectives with equal signatures,
  fitted on the same population, compile to bitwise-identical state, so the
  state can be cached per population
  (:class:`repro.core.parallel.CompiledObjectiveCache`).
* :meth:`CompiledObjective.export_state` /
  :meth:`CompiledObjective.from_state` — split a compiled objective into a
  dict of plain arrays plus small metadata and rebuild it from them.  The
  arrays can live anywhere (the in-process cache, or
  ``multiprocessing.shared_memory`` segments mapped into worker processes),
  and every rebuilt instance gets private mutable scratch state, so one
  exported state safely serves many concurrent jobs.
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

    def __init_subclass__(cls, **kwargs) -> None:
        """Enforce the shared-state pairing at class-definition time.

        Overriding :meth:`export_state` requires :meth:`from_state` so
        workers can rebuild the state they receive.  Failing here, when the
        subclass is *defined*, beats failing on the first process-pool fit
        months later.
        """
        super().__init_subclass__(**kwargs)

        def overrides(name: str) -> bool:
            ours = getattr(cls, name, None)
            base = getattr(CompiledObjective, name)
            # Compare underlying functions so classmethods participate.
            return getattr(ours, "__func__", ours) is not getattr(base, "__func__", base)

        if overrides("export_state") and not overrides("from_state"):
            raise TypeError(
                f"{cls.__name__} overrides export_state() without from_state(): "
                "workers cannot rebuild the compiled state they are handed"
            )

    @abc.abstractmethod
    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        """Per-attribute fairness signal for the rows at ``indices``."""

    def export_state(self) -> tuple[dict[str, np.ndarray], dict] | None:
        """Split this compiled objective into ``(arrays, metadata)``.

        ``arrays`` maps names to the population-sized ndarrays the objective
        evaluates on; ``metadata`` holds everything else (small, picklable —
        grids, kernels, labels of structure).  ``from_state`` on the same
        class must rebuild an equivalent instance from them, with the arrays
        possibly living in shared memory.  Returning ``None`` (the default)
        marks the state as non-shareable: such objectives still work under
        every executor, but each process-pool job falls back to an in-parent
        fit instead of a shared-memory worker.
        """
        return None

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray], metadata: dict) -> "CompiledObjective":
        """Rebuild a compiled objective from :meth:`export_state` output.

        The returned instance must treat ``arrays`` as read-only (they may be
        shared across jobs, threads, and processes) and must keep any mutable
        scratch state private to itself.
        """
        raise NotImplementedError(f"{cls.__name__} does not support shared state")


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
        call), so any subclass works under the array engine; the built-in
        objectives override this with exact vectorized versions.
        """
        return _CompiledTableFallback(self, table)

    def signature(self) -> tuple | None:
        """A stable, hashable description of this objective's compiled state.

        Contract: two objectives with equal signatures that have been
        ``fit`` on the same population compile to bitwise-identical state.
        The signature is what lets :class:`repro.core.parallel.CompiledObjectiveCache`
        reuse one compilation across the jobs of a batched fit and what keys
        the shared-memory plane handed to process-pool workers.  The default
        ``None`` opts out of caching and sharing (always correct, never
        stale) — override it in subclasses whose compiled state is fully
        determined by constructor parameters plus the fitted population.
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


class _CompiledDisparity(CompiledObjective):
    """Array-plane Definition 3 disparity over a pre-normalized matrix."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        matrix = self._matrix if indices is None else self._matrix[indices]
        return _column_means(matrix[selection_mask(scores, k)]) - _column_means(matrix)

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        return {"matrix": self._matrix}, {}

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray], metadata: dict) -> "_CompiledDisparity":
        return cls(arrays["matrix"])


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

    __slots__ = ("_matrix", "_k_grid", "_cached_k", "_cached_grid", "_cached_weights")

    def __init__(self, matrix: np.ndarray, k_grid: tuple[float, ...]) -> None:
        self._matrix = matrix
        self._k_grid = k_grid
        self._cached_k: float | None = None
        self._cached_grid: tuple[float, ...] = ()
        self._cached_weights = np.zeros(0)

    def _capped_grid(self, k: float) -> tuple[tuple[float, ...], np.ndarray]:
        # ``k`` is constant across a fit's thousands of steps; cache the
        # capped grid and normalized weights instead of rebuilding them.
        if k != self._cached_k:
            grid = tuple(g for g in self._k_grid if g <= k + 1e-12)
            if not grid:
                grid = (self._k_grid[0],)
            weights = np.asarray([1.0 / np.log2(100.0 * g + 1.0) for g in grid], dtype=float)
            self._cached_k = k
            self._cached_grid = grid
            self._cached_weights = weights / weights.sum()
        return self._cached_grid, self._cached_weights

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        matrix = self._matrix if indices is None else self._matrix[indices]
        grid, weights = self._capped_grid(k)
        population_centroid = _column_means(matrix)
        total = np.zeros(matrix.shape[1], dtype=float)
        for weight, fraction in zip(weights, grid):
            mask = selection_mask(scores, fraction)
            total += weight * (_column_means(matrix[mask]) - population_centroid)
        return total

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        # The per-k weight cache is scratch state: every rebuilt instance
        # starts with an empty one, so shared state stays immutable.
        return {"matrix": self._matrix}, {"k_grid": self._k_grid}

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray], metadata: dict) -> "_CompiledLogDiscounted":
        return cls(arrays["matrix"], tuple(metadata["k_grid"]))


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

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        # The kernel is a module-level function, so it travels by reference
        # (both through the in-process cache and through pickle to workers).
        return {"membership": self._membership}, {"kernel": self._kernel}

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray], metadata: dict) -> "_CompiledGroupObjective":
        return cls(arrays["membership"], metadata["kernel"])


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

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        return {"membership": self._membership, "labels": self._labels}, {}

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray], metadata: dict) -> "_CompiledFalsePositiveRate":
        return cls(arrays["membership"], arrays["labels"])


class _CompiledExposureGap(CompiledObjective):
    """Compiled exposure gaps over a precomputed membership matrix."""

    __slots__ = ("_membership",)

    def __init__(self, membership: np.ndarray) -> None:
        self._membership = membership

    def evaluate(self, indices: np.ndarray | None, scores: np.ndarray, k: float) -> np.ndarray:
        membership = self._membership if indices is None else self._membership[indices]
        return _exposure_gap_values(membership, scores)

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        return {"membership": self._membership}, {}

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray], metadata: dict) -> "_CompiledExposureGap":
        return cls(arrays["membership"])
