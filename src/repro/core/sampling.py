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
    population *size* only, so the DCA step loop and the process-pool
    workers of :meth:`repro.core.DCA.fit_many` stream indices from a
    row count without ever holding the table; such a stream supports
    :meth:`draw_indices` but not :meth:`draw`.

    Rare groups are handled by the sample *size*, not by the draw: the
    ``max(1/k, 1/r)`` rule (:func:`recommended_sample_size`) sizes the sample
    so the rarest group appears about ``min_group_count`` times per draw
    (Section IV-D).
    """

    def __init__(
        self,
        population: Table | int,
        sample_size: int,
        rng: np.random.Generator | None = None,
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

    def __iter__(self) -> Iterator[Table]:
        return self

    def __next__(self) -> Table:
        return self.draw()

    def draw_indices(self) -> np.ndarray:
        """Row indices of the next uniform random sample (without replacement).

        When the sample covers the whole population the identity index array
        is returned and no RNG state is consumed, mirroring :meth:`draw`.
        """
        if self.sample_size >= self.num_rows:
            return np.arange(self.num_rows, dtype=np.int64)
        return self._rng.choice(self.num_rows, size=self.sample_size, replace=False)

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
        return self._rng.integers(
            0, self.num_rows, size=(num_steps, self.sample_size), dtype=np.int64
        )

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
