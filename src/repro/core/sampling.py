"""Sample-size selection and sample streams for DCA.

DCA never looks at the whole dataset: every iteration draws a small uniform
sample and treats its disparity as an estimate of the population disparity
(Section IV-C).  Two quantities bound the sample size from below:

* the Central Limit Theorem needs roughly 30 observations for the selected
  set, so the sample must contain at least ``min_count / k`` rows, and
* every fairness subgroup must also appear roughly ``min_count`` times, so
  the sample must contain at least ``min_count / r`` rows where ``r`` is the
  frequency of the rarest group.

This gives the paper's ``O(max(1/k, 1/r))`` sample-size rule (Section IV-D).
The experiments use a fixed sample of 500 for the school data ("our rarest
fairness category has a frequency of 10%, so we picked a sample size of 500
elements to ensure a representation of 50 elements").

A binary attribute defines *two* groups — the members (value 1) and the
complement (value 0) — and either one can be the rare one.  An attribute with
prevalence 0.9 therefore has a rarest-group frequency of 0.1, not 0.9:
:func:`rarest_group_frequency` takes ``min(freq, 1 - freq)`` per attribute.

The DCA step loop (see :mod:`repro.core.dca`) draws *index arrays* via
:meth:`SampleStream.draw_indices` instead of materialized
:class:`~repro.tabular.Table` slices; :meth:`SampleStream.draw` serves
callers that want the rows themselves.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterator, Sequence

import numpy as np

from ..tabular import Table

__all__ = [
    "rarest_group_frequency",
    "recommended_sample_size",
    "SampleStream",
]


def rarest_group_frequency(table: Table, attribute_names: Sequence[str]) -> float:
    """Frequency of the least common fairness group in ``table``.

    Each binary attribute defines two groups — the attribute holders (1s) and
    their complement (0s) — and the rarer of the two is what bounds the sample
    size, so an attribute with mean 0.9 contributes ``r = 0.1``.  Degenerate
    attributes (all 0s or all 1s) define no real partition and are skipped,
    as are continuous attributes, which do not define a discrete group.  If
    every attribute is skipped the function returns 1.0 (no subgroup
    constraint).
    """
    if table.num_rows == 0:
        raise ValueError("cannot measure group frequencies on an empty table")
    rarest = 1.0
    for name in attribute_names:
        values = table.numeric(name)
        unique = np.unique(values)
        if unique.size <= 2 and np.all(np.isin(unique, (0.0, 1.0))):
            frequency = float(values.mean())
            if 0.0 < frequency < 1.0:
                rarest = min(rarest, frequency, 1.0 - frequency)
    return rarest


def recommended_sample_size(
    k: float,
    rarest_frequency: float,
    min_group_count: int = 30,
    minimum: int = 100,
    maximum: int | None = None,
) -> int:
    """The paper's ``O(max(1/k, 1/r))`` sample-size rule.

    The result is the larger of ``min_group_count / k`` and
    ``min_group_count / rarest_frequency``, floored at ``minimum`` and capped
    at ``maximum``.  The cap is applied *last* and always wins: when
    ``maximum < minimum`` (typically because the dataset itself is smaller
    than the floor) the function returns ``maximum`` and emits a
    ``UserWarning``, since a sample can never usefully exceed the population
    it is drawn from.

    Parameters
    ----------
    k:
        Selection fraction in (0, 1].
    rarest_frequency:
        Frequency ``r`` of the least common fairness group, in (0, 1].
    min_group_count:
        How many selected objects / rarest-group members the sample should
        contain for the Central Limit Theorem to apply (≈30).
    minimum, maximum:
        Floor and optional cap on the returned size.  The cap wins over the
        floor (with a warning) when the two conflict.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k must be in (0, 1], got {k}")
    if not 0.0 < rarest_frequency <= 1.0:
        raise ValueError(f"rarest_frequency must be in (0, 1], got {rarest_frequency}")
    if min_group_count <= 0:
        raise ValueError(f"min_group_count must be positive, got {min_group_count}")
    if maximum is not None and maximum <= 0:
        raise ValueError(f"maximum must be positive, got {maximum}")
    if maximum is not None and maximum < minimum:
        warnings.warn(
            f"sample-size cap ({maximum}) is below the floor ({minimum}); "
            "the cap wins — the sampled estimates will be noisier than the "
            "CLT floor assumes",
            UserWarning,
            stacklevel=2,
        )
        return int(maximum)
    size = max(
        math.ceil(min_group_count / k),
        math.ceil(min_group_count / rarest_frequency),
        minimum,
    )
    if maximum is not None:
        size = min(size, maximum)
    return int(size)


class SampleStream:
    """An endless stream of uniform random samples from a table.

    Core DCA draws "a random sample of sample size from O" at every step; the
    refinement loop takes "the next sample in O".  Both are served by this
    stream, which also guards against degenerate samples (e.g. a sample with
    zero members of some group is fine — the disparity estimate just carries
    more noise — but a sample smaller than the requested selection is not).

    The stream has two faces over the same RNG state:

    * :meth:`draw_indices` returns an ``int64`` index array into the table —
      the hot-path representation the DCA step loop consumes without ever
      materializing a table slice;
    * :meth:`draw` returns an actual :class:`~repro.tabular.Table` sample for
      callers that want one.

    Both consume the RNG identically, so a caller that slices the table per
    draw sees the same sample sequence as one that works on the indices.

    ``population`` may also be a bare row count instead of a
    :class:`~repro.tabular.Table`.  Index draws are a function of the
    population *size* only, so the shared-memory process workers of
    :meth:`repro.core.DCA.fit_many` stream indices without ever holding the
    table; such a stream supports :meth:`draw_indices` but not :meth:`draw`.

    Stratified draws
    ----------------

    A uniform sample can entirely miss a very rare fairness group (a 0.5%
    group is absent from ~8% of 500-row samples), which zeroes that group's
    contribution to the sampled disparity signal.  Passing
    ``stratify=attribute_names`` guarantees every listed binary attribute's
    *rarest side* (members or complement, whichever is less frequent) at
    least ``min_stratum_count`` members per draw: deficient draws have their
    trailing unprotected slots replaced by uniformly drawn members of the
    missing group.  The correction consumes additional RNG state whenever it
    triggers, so stratified streams are not seed-comparable with uniform
    ones; it is opt-in (``DCAConfig(stratified_sampling=True)``).
    Degenerate and continuous attributes are skipped, exactly as in
    :func:`rarest_group_frequency`.  Stratification needs the group masks,
    so it requires a table-backed stream.

    The guarantee is per attribute and unconditional whenever the sample has
    enough slots outside the listed rare groups to host every correction —
    the intended regime (a few very rare, mostly disjoint groups).  In
    pathological overlaps, where nearly every sampled row belongs to some
    listed rare group, a later stratum's replacement falls back to trailing
    slots and may evict an earlier stratum's only member: corrections are
    then best-effort, not re-checked.
    """

    def __init__(
        self,
        population: Table | int,
        sample_size: int,
        rng: np.random.Generator | None = None,
        stratify: Sequence[str] | None = None,
        min_stratum_count: int = 1,
    ) -> None:
        if isinstance(population, Table):
            self.table: Table | None = population
            num_rows = population.num_rows
        else:
            self.table = None
            num_rows = int(population)
        if num_rows <= 0:
            raise ValueError("cannot sample from an empty population")
        if sample_size <= 0:
            raise ValueError(f"sample_size must be positive, got {sample_size}")
        self.num_rows = num_rows
        self.sample_size = int(min(sample_size, num_rows))
        # Documented public-API fallback: callers who pass no generator opt
        # out of reproducibility explicitly.  Every repro code path seeds
        # (R5 proves it: each fit entry point reaches this line only with a
        # DCAConfig.rng()-derived generator in hand).
        self._rng = rng or np.random.default_rng()  # repro-lint: disable=R1,R5
        if min_stratum_count < 1:
            raise ValueError(
                f"min_stratum_count must be a positive integer, got {min_stratum_count}"
            )
        self._min_stratum_count = int(min_stratum_count)
        self._strata: list[tuple[str, np.ndarray, np.ndarray]] = []
        self._protected: np.ndarray | None = None
        if stratify:
            if self.table is None:
                raise TypeError(
                    "stratify requires a table-backed SampleStream; index-only "
                    "streams hold no group information"
                )
            self._build_strata(tuple(stratify))

    def _build_strata(self, attribute_names: Sequence[str]) -> None:
        """Precompute each binary attribute's rarest-side pool and mask."""
        protected = np.zeros(self.num_rows, dtype=bool)
        for name in attribute_names:
            values = self.table.numeric(name)
            unique = np.unique(values)
            if unique.size > 2 or not np.all(np.isin(unique, (0.0, 1.0))):
                continue  # continuous attribute: no discrete group to protect
            frequency = float(values.mean())
            if not 0.0 < frequency < 1.0:
                continue  # degenerate: one side is empty
            rare_value = 1.0 if frequency <= 0.5 else 0.0
            mask = values == rare_value
            self._strata.append((name, np.flatnonzero(mask).astype(np.int64), mask))
            protected |= mask
        self._protected = protected if self._strata else None

    def _apply_strata(self, indices: np.ndarray) -> np.ndarray:
        """Enforce the per-group minimum on one draw (mutates ``indices``)."""
        for _name, pool, mask in self._strata:
            count = int(np.count_nonzero(mask[indices]))
            if count >= self._min_stratum_count:
                continue
            deficit = self._min_stratum_count - count
            available = pool if count == 0 else pool[~np.isin(pool, indices)]
            deficit = min(deficit, int(available.size))
            if deficit == 0:
                continue  # the whole group is already in the sample
            extra = self._rng.choice(available, size=deficit, replace=False)
            # Prefer evicting rows that belong to no protected group, so one
            # stratum's correction cannot starve another; pathological
            # overlaps (almost every sampled row protected) fall back to the
            # trailing slots.
            safe = np.flatnonzero(~self._protected[indices])
            if safe.size >= deficit:
                victims = safe[-deficit:]
            else:
                victims = np.arange(indices.size - deficit, indices.size)
            indices[victims] = extra
        return indices

    def __iter__(self) -> Iterator[Table]:
        return self

    def __next__(self) -> Table:
        return self.draw()

    def draw_indices(self) -> np.ndarray:
        """Row indices of the next uniform random sample (without replacement).

        When the sample covers the whole population the identity index array
        is returned and no RNG state is consumed, mirroring :meth:`draw`.
        Stratified streams additionally enforce the per-group minimum (see
        the class docstring).
        """
        if self.sample_size >= self.num_rows:
            return np.arange(self.num_rows, dtype=np.int64)
        indices = self._rng.choice(self.num_rows, size=self.sample_size, replace=False)
        if self._strata:
            indices = self._apply_strata(indices)
        return indices

    def draw_phase_indices(self, num_steps: int) -> np.ndarray:
        """A whole phase's samples as a ``(num_steps, sample_size)`` matrix.

        This is the ``rng_batching="per_phase"`` fast path: all of the
        phase's randomness comes from **one** generator call
        (``Generator.integers``), which removes the per-step generator
        overhead of :meth:`draw_indices` at the cost of (a) a different
        stream for the same seed and (b) sampling *with* replacement within
        each step — a negligible distinction while the sample is much
        smaller than the population.  When the sample covers the whole
        population, every row is the identity index array and no RNG state
        is consumed, mirroring :meth:`draw_indices`.
        """
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        if self.sample_size >= self.num_rows:
            return np.broadcast_to(
                np.arange(self.num_rows, dtype=np.int64),
                (num_steps, self.num_rows),
            )
        indices = self._rng.integers(
            0, self.num_rows, size=(num_steps, self.sample_size), dtype=np.int64
        )
        if self._strata:
            for row in range(num_steps):
                self._apply_strata(indices[row])
        return indices

    def draw(self) -> Table:
        """Return the next uniform random sample (without replacement).

        Only available when the stream was built from a table; index-only
        streams (built from a row count) raise ``TypeError``.
        """
        if self.table is None:
            raise TypeError(
                "this SampleStream was built from a row count and holds no table; "
                "use draw_indices()"
            )
        if self.sample_size >= self.num_rows:
            return self.table
        return self.table.take(self.draw_indices())
