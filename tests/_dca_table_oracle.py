"""Test-only reference implementation of DCA's per-step objective evaluation.

This is the original table-slicing step that the array step loop of
:mod:`repro.core.dca` replaced: every step takes the sampled rows out of the
population :class:`~repro.tabular.Table`, boxes the bonus values in a
:class:`~repro.core.bonus.BonusVector`, applies it to the slice and calls the
objective's table-path ``evaluate``.  The full-population evaluation of
:class:`~repro.core.FullDCA` does the same on the whole table.

:class:`TableOracleSearch` is a ``_BonusSearch`` that evaluates this way.
It is assembled by the production constructor, so it consumes the RNG
through the same :class:`~repro.core.sampling.SampleStream`: for any seed
the array loop must reproduce it bit for bit (``np.array_equal``), for every
objective and every fit entry point.  The oracle rebuilds a ``Table`` per
step, which makes it far too slow for production use.

Import it from a test module as ``from _dca_table_oracle import
oracle_fit``; benchmarks load it by path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import BonusVector, DCAConfig, DCAResult, DCATrace, FairnessObjective
from repro.core.dca import _BonusSearch, _finish_fit, _project, _publish, _signal_norm
from repro.ranking import ScoreFunction
from repro.tabular import Table

__all__ = ["TableOracleSearch", "oracle_fit", "oracle_full_fit"]


class TableOracleSearch(_BonusSearch):
    """A bonus search whose objective evaluations slice the table per step."""

    @classmethod
    def build(
        cls,
        table: Table,
        score_function: ScoreFunction,
        objective: FairnessObjective,
        k: float,
        config: DCAConfig,
    ) -> "TableOracleSearch":
        """Assemble the search on ``table``; ``objective`` must already be fitted."""
        search = cls.from_table(table, score_function, objective, k, config)
        search.table = table
        search.objective = objective
        return search

    def step_signal(self, bonus_values: np.ndarray) -> np.ndarray:
        indices = self._next_indices()
        base = self._base_scores[indices]
        if indices.shape[0] == self.table.num_rows:
            sample = self.table  # sample covers the table: no per-step copy
        else:
            sample = self.table.take(indices)
        bonus = BonusVector(attribute_names=self.attribute_names, values=bonus_values)
        scores = bonus.apply(sample, base)
        return self.objective.evaluate(sample, scores, self.k).vector

    def objective_on_full(self, bonus_values: np.ndarray) -> np.ndarray:
        bonus = BonusVector(attribute_names=self.attribute_names, values=bonus_values)
        scores = bonus.apply(self.table, self._base_scores)
        return self.objective.evaluate(self.table, scores, self.k).vector


def oracle_fit(
    table: Table,
    score_function: ScoreFunction,
    objective: FairnessObjective,
    k: float,
    config: DCAConfig,
) -> DCAResult:
    """The reference for :meth:`repro.core.DCA.fit`: core and refinement phases."""
    start = time.perf_counter()
    objective.fit(table)
    search = TableOracleSearch.build(table, score_function, objective, k, config)
    return _finish_fit(search, objective.attribute_names, config, start)


def oracle_full_fit(
    table: Table,
    score_function: ScoreFunction,
    objective: FairnessObjective,
    k: float,
    config: DCAConfig,
) -> DCAResult:
    """The reference for :meth:`repro.core.FullDCA.fit`: full-population steps."""
    start = time.perf_counter()
    objective.fit(table)
    search = TableOracleSearch.build(table, score_function, objective, k, config)
    bonus = search.initial_bonus()
    traces: list[DCATrace] = []
    for learning_rate in config.learning_rates:
        history = np.zeros((config.iterations, len(search.attribute_names)))
        norms = np.zeros(config.iterations)
        for step in range(config.iterations):
            signal = search.objective_on_full(bonus)
            bonus = _project(bonus - learning_rate * signal, config)
            history[step] = bonus
            norms[step] = _signal_norm(signal)
        traces.append(
            DCATrace(phase=f"full lr={learning_rate:g}", bonus_history=history, objective_norms=norms)
        )
    raw = BonusVector(attribute_names=search.attribute_names, values=bonus)
    return DCAResult(
        bonus=_publish(raw, config),
        raw_bonus=raw,
        core_bonus=raw,
        traces=tuple(traces),
        sample_size=table.num_rows,
        elapsed_seconds=time.perf_counter() - start,
    )
