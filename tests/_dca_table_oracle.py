"""Test-only reference implementation of a DCA fit, one table-sliced step at a time.

This is the original per-fit loop that the array step loop of
:mod:`repro.core.dca` replaced: every step takes the sampled rows out of the
population :class:`~repro.tabular.Table`, boxes the bonus values in a
:class:`~repro.core.bonus.BonusVector`, applies it to the slice and calls the
objective's table-path ``evaluate``.  The full-population evaluation of
:class:`~repro.core.FullDCA` does the same on the whole table.

The oracle is a per-job reference: one fit, its own seeded generator and
:class:`~repro.core.sampling.SampleStream`, its own core and refinement
loops.  It never goes through the production step loop, so it shares none
of the lockstep sharing (one draw and one gather per group of fits) that the
batched paths rely on.  It consumes the RNG in the documented order —
the initial bonus, then one sample per step (or one matrix per phase under
``rng_batching="per_phase"``) — so for any seed the production loop must
reproduce it bit for bit (``np.array_equal``), for every objective and every
fit entry point.  The oracle rebuilds a ``Table`` per step, which makes it
far too slow for production use.

Import it from a test module as ``from _dca_table_oracle import
oracle_fit``; benchmarks load it by path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import (
    Adam,
    BonusVector,
    DCAConfig,
    DCAResult,
    DCATrace,
    FairnessObjective,
    SampleStream,
    rarest_group_frequency,
    recommended_sample_size,
)
from repro.core.dca import _project, _publish, _signal_norm
from repro.ranking import ScoreFunction
from repro.tabular import Table

__all__ = ["OracleSearch", "oracle_core", "oracle_refinement", "oracle_fit", "oracle_full_fit"]


class OracleSearch:
    """One fit's sample stream and table-path objective evaluations."""

    def __init__(
        self,
        table: Table,
        score_function: ScoreFunction,
        objective: FairnessObjective,
        k: float,
        config: DCAConfig,
    ) -> None:
        """Assemble the search on ``table``; ``objective`` must already be fitted."""
        self.table = table
        self.objective = objective
        self.k = float(k)
        self.config = config
        self.attribute_names = tuple(objective.attribute_names)
        self.base_scores = np.asarray(score_function.scores(table), dtype=float)
        if config.sample_size is not None:
            self.sample_size = int(min(config.sample_size, table.num_rows))
        else:
            self.sample_size = recommended_sample_size(
                k,
                rarest_group_frequency(table, self.attribute_names),
                min_group_count=config.min_group_count,
                maximum=table.num_rows,
            )
        self.rng = config.rng()
        self.stream = SampleStream(table, self.sample_size, rng=self.rng)
        self._phase: list[np.ndarray] | None = None

    def initial_bonus(self) -> np.ndarray:
        scale = self.config.initial_bonus_scale
        values = self.rng.uniform(0.0, scale, size=len(self.attribute_names))
        return _project(values, self.config)

    def begin_phase(self, num_steps: int) -> None:
        if self.config.rng_batching == "per_phase":
            self._phase = list(self.stream.draw_phase_indices(num_steps))

    def step_signal(self, bonus_values: np.ndarray) -> np.ndarray:
        indices = self._phase.pop(0) if self._phase is not None else self.stream.draw_indices()
        base = self.base_scores[indices]
        if indices.shape[0] == self.table.num_rows:
            sample = self.table  # sample covers the table: no per-step copy
        else:
            sample = self.table.take(indices)
        bonus = BonusVector(attribute_names=self.attribute_names, values=bonus_values)
        scores = bonus.apply(sample, base)
        return self.objective.evaluate(sample, scores, self.k).vector

    def objective_on_full(self, bonus_values: np.ndarray) -> np.ndarray:
        bonus = BonusVector(attribute_names=self.attribute_names, values=bonus_values)
        scores = bonus.apply(self.table, self.base_scores)
        return self.objective.evaluate(self.table, scores, self.k).vector


def oracle_core(
    search: OracleSearch, initial: np.ndarray | None = None
) -> tuple[np.ndarray, list[DCATrace]]:
    """The reference for :meth:`repro.core.CoreDCA.run`."""
    config = search.config
    bonus = search.initial_bonus() if initial is None else _project(
        np.asarray(initial, dtype=float), config
    )
    traces: list[DCATrace] = []
    for learning_rate in config.learning_rates:
        search.begin_phase(config.iterations)
        history = np.zeros((config.iterations, len(search.attribute_names)))
        norms = np.zeros(config.iterations)
        for step in range(config.iterations):
            signal = search.step_signal(bonus)
            bonus = _project(bonus - learning_rate * signal, config)
            history[step] = bonus
            norms[step] = _signal_norm(signal)
        traces.append(
            DCATrace(phase=f"core lr={learning_rate:g}", bonus_history=history, objective_norms=norms)
        )
    return bonus, traces


def oracle_refinement(search: OracleSearch, initial: np.ndarray) -> tuple[np.ndarray, DCATrace]:
    """The reference for :meth:`repro.core.DCARefinement.run` (``refinement_iterations > 0``)."""
    config = search.config
    bonus = _project(np.asarray(initial, dtype=float), config)
    iterations = config.refinement_iterations
    adam = Adam(learning_rate=config.refinement_learning_rate)
    search.begin_phase(iterations)
    history = np.zeros((iterations, len(search.attribute_names)))
    norms = np.zeros(iterations)
    for step in range(iterations):
        signal = search.step_signal(bonus)
        bonus = _project(adam.step(bonus, signal), config)
        history[step] = bonus
        norms[step] = _signal_norm(signal)
    window = min(config.averaging_window, iterations)
    averaged = _project(history[-window:].mean(axis=0), config)
    return averaged, DCATrace(phase="refinement", bonus_history=history, objective_norms=norms)


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
    search = OracleSearch(table, score_function, objective, k, config)
    core_values, traces = oracle_core(search)
    raw_values = core_values
    if config.refinement_iterations > 0:
        raw_values, refine_trace = oracle_refinement(search, core_values)
        traces = traces + [refine_trace]
    raw = BonusVector(attribute_names=search.attribute_names, values=raw_values)
    return DCAResult(
        bonus=_publish(raw, config),
        raw_bonus=raw,
        core_bonus=BonusVector(attribute_names=search.attribute_names, values=core_values),
        traces=tuple(traces),
        sample_size=search.sample_size,
        elapsed_seconds=time.perf_counter() - start,
    )


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
    search = OracleSearch(table, score_function, objective, k, config)
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
