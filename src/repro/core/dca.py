"""The Disparity Compensation Algorithm (DCA).

This module implements the paper's primary contribution:

* :class:`CoreDCA` — Algorithm 1: iterate over decreasing learning rates; at
  every step draw a small random sample, evaluate the fairness objective for
  the current bonus vector, and move the bonus vector against it, projecting
  back onto the feasible box (non-negative, optionally capped) after every
  step.
* :class:`DCARefinement` — Algorithm 2: continue from Core DCA's output with
  an Adam-driven pass over fresh samples, average the iterates to damp the
  sampling noise, and round to the stakeholder granularity.
* :class:`DCA` — the user-facing facade that runs both phases and returns a
  :class:`~repro.core.result.DCAResult`; :meth:`DCA.fit_many` batches fits
  across seeds, selection fractions, and objectives.
* :class:`FullDCA` — the deterministic variant that evaluates the objective
  on the entire dataset at every step (the object of Theorem 4.1); it is much
  slower but useful as an accuracy reference and in tests.

The objective is pluggable (:mod:`repro.core.objectives`): the default is the
Definition 3 disparity at a known selection fraction ``k``, but the same
machinery optimizes the log-discounted disparity, disparate impact, false
positive rate gaps, or exposure gaps.

Array-plane engine
------------------

The optimization loop runs thousands of sampled steps, so the per-step cost
dominates the fit time.  The default ``engine="array"`` keeps the hot loop
entirely on NumPy arrays:

1. at ``fit`` time the base scores, the raw fairness-attribute matrix
   ``A_f``, and the objective's compiled population state (normalized
   matrix, group masks, labels — see
   :meth:`repro.core.objectives.FairnessObjective.compile`) are gathered
   **once**;
2. every step draws an ``int64`` index array from the
   :class:`~repro.core.sampling.SampleStream`, computes compensated scores
   as ``base[idx] + A_f[idx] @ B``, and evaluates the compiled objective on
   those rows — no per-step :class:`~repro.tabular.Table` materialization,
   no shadow index column, no :class:`~repro.core.bonus.BonusVector`
   boxing.

``engine="table"`` (:class:`~repro.core.config.DCAConfig`) preserves the
legacy reference path that slices a table per step; both engines consume the
RNG identically and produce bitwise identical results for the same seed,
which the equivalence tests pin.  Custom objectives that only implement the
table-path ``evaluate`` are handled transparently through the compiled
fallback wrapper.

Batched execution
-----------------

:meth:`DCA.fit_many` runs seed/k/objective grids (or explicit
:class:`FitSpec` lists) over one population through two interchangeable
backends selected by ``executor``:

* ``"serial"`` — one job after another in the calling thread;
* ``"process"`` — a process pool whose workers map the population out of
  ``multiprocessing.shared_memory`` (see :mod:`repro.core.parallel`): the
  base scores, attribute matrices, and each objective's compiled state are
  placed in a shared segment once, and each job ships only a tiny job
  descriptor.  This is the backend that parallelizes the Python-level step
  loop across cores.

Both produce bitwise identical results for the same specs: every job
owns its own seeded generator, and the shared arrays are exactly the ones a
serial fit would compute.  A per-population
:class:`~repro.core.parallel.CompiledObjectiveCache` additionally lets jobs
(and repeated ``fit_many`` calls) that share a population and an objective
signature skip recompiling the objective, on every backend.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..ranking import ScoreFunction
from ..tabular import Table
from .adam import Adam
from .bonus import BonusVector, compensate_scores
from .config import DCAConfig, validate_worker_count
from .objectives import CompiledObjective, DisparityObjective, FairnessObjective
from .parallel import (
    CompiledObjectiveCache,
    PlaneJob,
    PlanePayload,
    SharedPopulationPlane,
    default_objective_cache,
    execute_process_jobs,
    matrix_key,
)
from .result import DCAResult, DCATrace
from .sampling import SampleStream, rarest_group_frequency, recommended_sample_size

__all__ = [
    "CoreDCA",
    "DCARefinement",
    "DCA",
    "FullDCA",
    "FitSpec",
    "BatchFitResult",
    "fit_bonus_points",
]

#: Executor names accepted by :meth:`DCA.fit_many`.
_EXECUTORS = ("serial", "process")


def _project(values: np.ndarray, config: DCAConfig) -> np.ndarray:
    """Project a bonus vector onto the feasible box [min_bonus, max_bonus]."""
    values = np.maximum(values, config.min_bonus)
    if config.max_bonus is not None:
        values = np.minimum(values, config.max_bonus)
    return values


def _signal_norm(signal: np.ndarray) -> float:
    """L2 norm of a small signal vector (same value as ``np.linalg.norm``)."""
    return float(np.sqrt(signal @ signal))


def _resolve_sample_size(
    config: DCAConfig, k: float, num_rows: int, rarest_frequency: Callable[[], float]
) -> int:
    """Per-step sample size for a population of ``num_rows`` rows.

    Single source of truth for the table-backed :class:`_BonusSearch` and
    the parent-side planner of the process backend — the two must agree
    exactly or the backends stop being bitwise identical.
    ``rarest_frequency`` is a thunk so callers only pay for the group scan
    when ``config.sample_size`` is unset.
    """
    if config.sample_size is not None:
        return int(min(config.sample_size, num_rows))
    return recommended_sample_size(
        k, rarest_frequency(), min_group_count=config.min_group_count, maximum=num_rows
    )


class _BonusSearch:
    """Shared state and helpers for the Core DCA and refinement phases.

    The search owns everything both engines need: the per-fit precomputed
    arrays (base scores, raw attribute matrix, the objective compiled against
    the population), the sample stream, and the RNG.  ``step_signal`` is the
    hot path — one sampled objective evaluation per call.
    """

    def __init__(
        self,
        table: Table,
        score_function: ScoreFunction,
        objective: FairnessObjective,
        k: float,
        config: DCAConfig,
        objective_cache: CompiledObjectiveCache | None = None,
    ) -> None:
        if not 0.0 < k <= 1.0:
            raise ValueError(f"selection fraction k must be in (0, 1], got {k}")
        config.validate()
        if table.num_rows == 0:
            raise ValueError("cannot fit bonus points on an empty table")
        self.table = table
        self.score_function = score_function
        self.objective = objective
        self.k = float(k)
        self.config = config
        self.attribute_names = tuple(objective.attribute_names)
        self.rng = config.rng()

        # Per-fit precomputation: base scores over the full table and, for
        # the array engine, the raw fairness-attribute matrix A_f plus the
        # objective compiled against this population (through the cache when
        # one is provided, so batched jobs share one compilation).
        self._base_scores = np.asarray(score_function.scores(table), dtype=float)
        if config.engine == "array":
            self._attribute_matrix = table.matrix(list(self.attribute_names))
            if objective_cache is not None:
                self._compiled = objective_cache.compile(objective, table)
            else:
                self._compiled = objective.compile(table)
        else:
            self._attribute_matrix = None
            self._compiled = None

        self.sample_size = _resolve_sample_size(
            config,
            self.k,
            table.num_rows,
            lambda: rarest_group_frequency(table, self.attribute_names),
        )
        self._stream = SampleStream(
            table,
            self.sample_size,
            rng=self.rng,
            stratify=self.attribute_names if config.stratified_sampling else None,
        )
        self._phase_indices: np.ndarray | None = None
        self._phase_cursor = 0

    @classmethod
    def from_arrays(
        cls,
        *,
        base_scores: np.ndarray,
        attribute_matrix: np.ndarray,
        compiled: CompiledObjective,
        num_rows: int,
        sample_size: int,
        attribute_names: Sequence[str],
        k: float,
        config: DCAConfig,
    ) -> "_BonusSearch":
        """Assemble a search from precomputed arrays — no table required.

        This is the shared-memory worker path of the process backend: the
        parent computed ``base_scores``, the raw attribute matrix, the
        compiled objective state, and the sample size once, and the worker
        maps them out of shared memory.  The search consumes the RNG exactly
        like the table-backed constructor, so the resulting fit is bitwise
        identical to a serial :meth:`DCA.fit` with the same seed.
        """
        if compiled is None:
            raise ValueError("from_arrays requires a compiled objective")
        if config.stratified_sampling:
            raise ValueError(
                "stratified sampling needs the population table for its group "
                "masks; table-less searches cannot stratify"
            )
        search = cls.__new__(cls)
        search.table = None
        search.score_function = None
        search.objective = None
        search.k = float(k)
        search.config = config
        search.attribute_names = tuple(attribute_names)
        search.rng = config.rng()
        search._base_scores = base_scores
        search._attribute_matrix = attribute_matrix
        search._compiled = compiled
        search.sample_size = int(sample_size)
        search._stream = SampleStream(int(num_rows), search.sample_size, rng=search.rng)
        search._phase_indices = None
        search._phase_cursor = 0
        return search

    # ------------------------------------------------------------------
    def initial_bonus(self) -> np.ndarray:
        """Random non-negative initialization (Algorithm 1's ``B`` init)."""
        scale = self.config.initial_bonus_scale
        values = self.rng.uniform(0.0, scale, size=len(self.attribute_names))
        return _project(values, self.config)

    def begin_phase(self, num_steps: int) -> None:
        """Pre-draw a phase's samples under ``rng_batching="per_phase"``.

        A no-op in the default ``"per_step"`` mode, so the historical
        seed-for-seed stream is untouched.  In ``"per_phase"`` mode the
        phase's ``num_steps`` samples come from one generator call
        (:meth:`~repro.core.sampling.SampleStream.draw_phase_indices`) and
        :meth:`step_signal` consumes them row by row.
        """
        if self.config.rng_batching != "per_phase":
            return
        self._phase_indices = self._stream.draw_phase_indices(num_steps)
        self._phase_cursor = 0

    def _next_indices(self) -> np.ndarray:
        """The next step's sample indices, honoring the RNG batching mode."""
        if self._phase_indices is None:
            return self._stream.draw_indices()
        indices = self._phase_indices[self._phase_cursor]
        self._phase_cursor += 1
        return indices

    def step_signal(self, bonus_values: np.ndarray) -> np.ndarray:
        """Draw the next sample and evaluate the objective under ``bonus_values``."""
        indices = self._next_indices()
        base = self._base_scores[indices]
        if self._compiled is not None:
            scores = compensate_scores(self._attribute_matrix[indices], base, bonus_values)
            return np.asarray(self._compiled.evaluate(indices, scores, self.k), dtype=float)
        if indices.shape[0] == self.table.num_rows:
            sample = self.table  # sample covers the table: no per-step copy
        else:
            sample = self.table.take(indices)
        bonus = BonusVector(attribute_names=self.attribute_names, values=bonus_values)
        scores = bonus.apply(sample, base)
        return self.objective.evaluate(sample, scores, self.k).vector

    def objective_on_full(self, bonus_values: np.ndarray) -> np.ndarray:
        """Evaluate the objective on the entire table (Full DCA / reporting)."""
        if self._compiled is not None:
            scores = compensate_scores(self._attribute_matrix, self._base_scores, bonus_values)
            return np.asarray(self._compiled.evaluate(None, scores, self.k), dtype=float)
        bonus = BonusVector(attribute_names=self.attribute_names, values=bonus_values)
        scores = bonus.apply(self.table, self._base_scores)
        return self.objective.evaluate(self.table, scores, self.k).vector


def _finish_fit(
    search: _BonusSearch, attribute_names: Sequence[str], config: DCAConfig, start: float
) -> DCAResult:
    """Run the core and refinement phases on a prepared search and package the result.

    The shared tail of :meth:`DCA.fit` and the process-backend workers: both
    phases reuse the same search (sample stream, cached arrays), and the
    final bonus is clipped and rounded exactly as the facade documents.
    ``start`` is the fit's ``perf_counter`` origin for ``elapsed_seconds``.
    """
    attribute_names = tuple(attribute_names)
    core = CoreDCA(None, None, None, search.k, config, search=search)
    core_values, traces = core.run()
    core_bonus = BonusVector(attribute_names=attribute_names, values=core_values)

    if config.refinement_iterations > 0:
        refinement = DCARefinement(None, None, None, search.k, config, search=search)
        raw_values, refine_trace = refinement.run(core_values)
        traces = traces + [refine_trace]
    else:
        raw_values = core_values

    raw_bonus = BonusVector(attribute_names=attribute_names, values=raw_values)
    final = raw_bonus.clipped(config.min_bonus, config.max_bonus)
    if config.granularity > 0:
        final = final.rounded(config.granularity)
        final = final.clipped(config.min_bonus, config.max_bonus)
    elapsed = time.perf_counter() - start
    return DCAResult(
        bonus=final,
        raw_bonus=raw_bonus,
        core_bonus=core_bonus,
        traces=tuple(traces),
        sample_size=search.sample_size,
        elapsed_seconds=elapsed,
    )


class CoreDCA:
    """Algorithm 1: fixed-learning-rate sampled descent on the bonus vector."""

    def __init__(
        self,
        table: Table,
        score_function: ScoreFunction,
        objective: FairnessObjective,
        k: float,
        config: DCAConfig | None = None,
        search: _BonusSearch | None = None,
    ) -> None:
        self.config = config or DCAConfig()
        self._search = search or _BonusSearch(table, score_function, objective, k, self.config)

    @property
    def sample_size(self) -> int:
        return self._search.sample_size

    def run(self, initial: np.ndarray | None = None) -> tuple[np.ndarray, list[DCATrace]]:
        """Run the core passes and return (bonus values, per-phase traces)."""
        search = self._search
        config = self.config
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


class DCARefinement:
    """Algorithm 2: Adam-driven refinement plus iterate averaging and rounding."""

    def __init__(
        self,
        table: Table,
        score_function: ScoreFunction,
        objective: FairnessObjective,
        k: float,
        config: DCAConfig | None = None,
        search: _BonusSearch | None = None,
    ) -> None:
        self.config = config or DCAConfig()
        self._search = search or _BonusSearch(table, score_function, objective, k, self.config)

    def run(self, initial: np.ndarray) -> tuple[np.ndarray, DCATrace]:
        """Refine ``initial`` and return (raw averaged bonus values, trace)."""
        search = self._search
        config = self.config
        bonus = _project(np.asarray(initial, dtype=float), config)
        iterations = config.refinement_iterations
        if iterations == 0:
            empty = DCATrace(
                phase="refinement (skipped)",
                bonus_history=np.zeros((0, len(search.attribute_names))),
                objective_norms=np.zeros(0),
            )
            return bonus, empty
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
        averaged = history[-window:].mean(axis=0)
        averaged = _project(averaged, config)
        trace = DCATrace(phase="refinement", bonus_history=history, objective_norms=norms)
        return averaged, trace


@dataclass(frozen=True)
class FitSpec:
    """One unit of work for :meth:`DCA.fit_many`.

    Every field defaults to "inherit from the DCA instance": an empty spec
    reproduces a plain :meth:`DCA.fit`.

    Attributes
    ----------
    k:
        Selection fraction for this fit (``None`` → the instance's ``k``).
    seed:
        RNG seed override (``None`` → the config's seed).
    objective:
        Objective override; its attribute names define the fitted bonus
        vector, so a spec may fit over a different attribute subset.
    config:
        Full config override (``None`` → the instance's config).  A ``seed``
        given alongside still wins over the config's seed.
    label:
        Free-form tag carried through to the result (useful for reporting).
    """

    k: float | None = None
    seed: int | None = None
    objective: FairnessObjective | None = None
    config: DCAConfig | None = None
    label: str | None = None


@dataclass(frozen=True)
class BatchFitResult:
    """One fitted entry of a :meth:`DCA.fit_many` batch.

    ``k`` and ``seed`` record the values actually used, after spec defaults
    were resolved against the DCA instance.
    """

    spec: FitSpec
    k: float
    seed: int | None
    result: DCAResult

    @property
    def bonus(self) -> BonusVector:
        return self.result.bonus

    @property
    def label(self) -> str | None:
        return self.spec.label


class DCA:
    """The user-facing Disparity Compensation Algorithm.

    Examples
    --------
    >>> from repro.datasets import load_school_cohorts, school_admission_rubric
    >>> from repro.datasets import SCHOOL_FAIRNESS_ATTRIBUTES
    >>> train, test = load_school_cohorts(num_students=5000)
    >>> dca = DCA(SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), k=0.05)
    >>> result = dca.fit(train.table)
    >>> sorted(result.as_dict()) == sorted(SCHOOL_FAIRNESS_ATTRIBUTES)
    True

    Parameters
    ----------
    fairness_attributes:
        Columns to compensate.
    score_function:
        The (uncompensated) ranking function.
    k:
        Selection fraction the bonuses are optimized for.  When using a
        log-discounted objective this is the cap of the evaluated range.
    objective:
        Fairness signal to minimize; defaults to the Definition 3 disparity.
    config:
        Hyper-parameters; defaults follow Section V-B.
    objective_cache:
        Optional :class:`~repro.core.parallel.CompiledObjectiveCache`
        through which :meth:`fit` compiles its objective, so repeated fits
        against the same population reuse one compilation.  :meth:`fit_many`
        always caches (using the process-wide default cache when this is
        unset).
    """

    def __init__(
        self,
        fairness_attributes: Sequence[str],
        score_function: ScoreFunction,
        k: float,
        objective: FairnessObjective | None = None,
        config: DCAConfig | None = None,
        objective_cache: CompiledObjectiveCache | None = None,
    ) -> None:
        self.fairness_attributes = tuple(fairness_attributes)
        if not self.fairness_attributes:
            raise ValueError("at least one fairness attribute is required")
        if not 0.0 < float(k) <= 1.0:
            raise ValueError(f"selection fraction k must be in (0, 1], got {k}")
        self.score_function = score_function
        self.k = float(k)
        self.config = config or DCAConfig()
        self.config.validate()
        if objective is not None and tuple(objective.attribute_names) != self.fairness_attributes:
            raise ValueError(
                "the objective's attributes must match the fairness attributes: "
                f"{objective.attribute_names} vs {self.fairness_attributes}"
            )
        self.objective = objective or DisparityObjective(self.fairness_attributes)
        self.objective_cache = objective_cache

    def fit(self, table: Table) -> DCAResult:
        """Fit bonus points on ``table`` (the training cohort / distribution sample)."""
        start = time.perf_counter()
        self.objective.fit(table)
        # The search owns the sample stream and cached arrays; both phases
        # (and the result assembly in _finish_fit) share it.
        search = _BonusSearch(
            table,
            self.score_function,
            self.objective,
            self.k,
            self.config,
            objective_cache=self.objective_cache,
        )
        return _finish_fit(search, self.fairness_attributes, self.config, start)

    def fit_many(
        self,
        table: Table,
        *,
        ks: Sequence[float] | None = None,
        seeds: Sequence[int] | None = None,
        objectives: Sequence[FairnessObjective] | None = None,
        specs: Sequence[FitSpec] | None = None,
        max_workers: int | None = None,
        executor: str | None = None,
    ) -> list[BatchFitResult]:
        """Fit a batch of bonus vectors on ``table`` in one call.

        Either pass explicit ``specs`` or any combination of ``ks``,
        ``seeds``, and ``objectives`` — the grid forms their Cartesian
        product, each axis defaulting to the instance's own setting.  Results
        come back in job order.  Each job gets its own deep-copied objective
        and seeded RNG, so a batched fit is reproducible and **bitwise
        identical to the corresponding sequence of** :meth:`fit` **calls on
        every backend**.

        ``executor`` picks the backend:

        * ``"serial"`` — jobs run one after another in the calling thread;
        * ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor`
          over a shared-memory population plane (:mod:`repro.core.parallel`):
          base scores, attribute matrices, and compiled objective state are
          placed in ``multiprocessing.shared_memory`` once, and workers
          receive only tiny job descriptors — the cohort is never pickled
          per job.
          Jobs that cannot run on the plane (``engine="table"`` configs, or
          custom objectives without a
          :meth:`~repro.core.objectives.FairnessObjective.signature`) fall
          back to in-parent serial execution, preserving result order and
          values.
        * ``None`` (default) — ``"process"`` when ``max_workers`` asks for
          parallelism, else ``"serial"``.

        ``max_workers`` sizes the pool; for the process backend it defaults
        to ``min(len(jobs), os.cpu_count())``.  Zero or negative
        ``max_workers`` is rejected eagerly, before any pool or
        shared-memory segment is created.  A job that raises inside a worker
        re-raises its own exception here; a worker process that dies
        mid-job raises :class:`concurrent.futures.process.BrokenProcessPool`.
        Compiled objectives are cached per population (see
        :func:`repro.core.parallel.default_objective_cache`), so sweeps that
        share a cohort and an objective signature — within one call or
        across calls — compile it once.

        Examples
        --------
        One fit per selection fraction (the Figure 4a sweep)::

            results = dca.fit_many(train, ks=(0.05, 0.1, 0.2))
            bonuses = {r.k: r.bonus for r in results}

        Seed sensitivity of a single setting, across processes::

            spread = dca.fit_many(train, seeds=range(10), executor="process")
        """
        if specs is not None:
            if ks is not None or seeds is not None or objectives is not None:
                raise ValueError("pass either specs or a ks/seeds/objectives grid, not both")
            jobs = [spec if isinstance(spec, FitSpec) else FitSpec(**spec) for spec in specs]
        else:
            jobs = [
                FitSpec(k=k, seed=seed, objective=objective)
                for k in (ks if ks is not None else (None,))
                for seed in (seeds if seeds is not None else (None,))
                for objective in (objectives if objectives is not None else (None,))
            ]
        if not jobs:
            return []

        max_workers = validate_worker_count("max_workers", max_workers)
        if executor is None:
            executor = "process" if (max_workers is not None and max_workers > 1) else "serial"
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        # Explicit None check: an empty cache is falsy (it has __len__).
        cache = (
            self.objective_cache
            if self.objective_cache is not None
            else default_objective_cache()
        )
        if executor == "process":
            workers = max_workers if max_workers is not None else min(len(jobs), os.cpu_count() or 1)
            return self._fit_many_process(table, jobs, cache, workers)
        return [self._run_single_spec(table, spec, cache) for spec in jobs]

    # ------------------------------------------------------------------
    # fit_many internals
    # ------------------------------------------------------------------
    def _resolve_spec(self, spec: FitSpec) -> tuple[DCAConfig, FairnessObjective, float]:
        """Resolve a spec's config/objective/k against this instance's defaults."""
        config = spec.config if spec.config is not None else self.config
        if spec.seed is not None:
            config = replace(config, seed=spec.seed)
        objective = spec.objective if spec.objective is not None else self.objective
        k = self.k if spec.k is None else float(spec.k)
        return config, objective, k

    def _run_single_spec(
        self,
        table: Table,
        spec: FitSpec,
        cache: CompiledObjectiveCache,
    ) -> BatchFitResult:
        """Run one batch job in this process (the serial backend, and process fallbacks)."""
        config, objective_template, k = self._resolve_spec(spec)
        # Fresh objective per job: fit() mutates normalizer state, and
        # concurrent jobs must not share it.
        objective = copy.deepcopy(objective_template)
        job_dca = DCA(
            objective.attribute_names,
            self.score_function,
            k,
            objective=objective,
            config=config,
            objective_cache=cache,
        )
        return BatchFitResult(
            spec=spec,
            k=k,
            seed=config.seed,
            result=job_dca.fit(table),
        )

    def _fit_many_process(
        self,
        table: Table,
        jobs: Sequence[FitSpec],
        cache: CompiledObjectiveCache,
        max_workers: int,
    ) -> list[BatchFitResult]:
        """The shared-memory process backend of :meth:`fit_many`.

        The parent assembles the population plane — base scores, one raw
        attribute matrix per distinct attribute set, one compiled state per
        distinct objective signature — inside a single shared-memory
        segment, then dispatches :class:`~repro.core.parallel.PlaneJob`
        job descriptors to the pool.  Jobs the plane cannot serve (table
        engine, signature-less objectives) run in the parent instead.
        """
        num_rows = table.num_rows
        arrays: dict[str, np.ndarray] = {}
        objective_states: dict[int, tuple[type, dict[str, str], dict]] = {}
        signature_keys: dict[tuple, int] = {}
        rarest: dict[tuple[str, ...], float] = {}
        plane_jobs: list[PlaneJob] = []
        parent_jobs: list[tuple[int, FitSpec]] = []
        job_meta: dict[int, tuple[FitSpec, float, int | None]] = {}

        for index, spec in enumerate(jobs):
            config, objective_template, k = self._resolve_spec(spec)
            signature = objective_template.signature()
            # Jobs the plane cannot serve run in the parent: the table
            # engine has no array state to share, signature-less objectives
            # cannot be cached or exported, and stratified sampling needs the
            # table's group masks.
            if config.engine != "array" or signature is None or config.stratified_sampling:
                parent_jobs.append((index, spec))
                continue
            if signature not in signature_keys:
                objective = copy.deepcopy(objective_template)
                objective.fit(table)
                compiled = cache.compile(objective, table)
                exported = compiled.export_state()
                if exported is None:
                    signature_keys[signature] = -1
                else:
                    state_arrays, metadata = exported
                    key = len(objective_states)
                    array_keys: dict[str, str] = {}
                    for name, value in state_arrays.items():
                        plane_key = f"objective:{key}:{name}"
                        arrays[plane_key] = value
                        array_keys[name] = plane_key
                    objective_states[key] = (type(compiled), array_keys, metadata)
                    signature_keys[signature] = key
            key = signature_keys[signature]
            if key < 0:
                parent_jobs.append((index, spec))
                continue
            attributes = tuple(objective_template.attribute_names)
            attr_key = matrix_key(attributes)
            if attr_key not in arrays:
                arrays[attr_key] = table.matrix(list(attributes))
            def rarest_for(attrs: tuple[str, ...] = attributes) -> float:
                # Not setdefault: its default argument evaluates eagerly,
                # which would re-run the full group scan per job.
                if attrs not in rarest:
                    rarest[attrs] = rarest_group_frequency(table, attrs)
                return rarest[attrs]

            sample_size = _resolve_sample_size(config, k, num_rows, rarest_for)
            plane_jobs.append(PlaneJob(index, attributes, k, config, sample_size, key))
            job_meta[index] = (spec, k, config.seed)

        results: dict[int, BatchFitResult] = {}
        if plane_jobs:
            arrays["base"] = np.asarray(self.score_function.scores(table), dtype=float)
            plane = SharedPopulationPlane(arrays)
            try:
                payload = PlanePayload(plane.name, num_rows, plane.refs, objective_states)
                for index, result in execute_process_jobs(payload, plane_jobs, max_workers):
                    spec, k, seed = job_meta[index]
                    results[index] = BatchFitResult(spec=spec, k=k, seed=seed, result=result)
            finally:
                plane.close()
        for index, spec in parent_jobs:
            results[index] = self._run_single_spec(table, spec, cache)
        return [results[index] for index in range(len(jobs))]

    def compensated_scores(self, table: Table, bonus: BonusVector) -> np.ndarray:
        """Convenience: apply a fitted bonus vector to new data."""
        return bonus.apply(table, self.score_function.scores(table))


class FullDCA:
    """The no-sampling variant: every step evaluates the full dataset.

    Theorem 4.1 is stated for this variant.  It is deterministic given the
    initialization and is used in tests to check the descent property and as
    an accuracy reference in the ablation benchmarks.  Under the array engine
    the per-step full-population evaluation also runs on the precomputed
    matrices, which removes the per-step normalization pass the table path
    performs.
    """

    def __init__(
        self,
        fairness_attributes: Sequence[str],
        score_function: ScoreFunction,
        k: float,
        objective: FairnessObjective | None = None,
        config: DCAConfig | None = None,
    ) -> None:
        self.fairness_attributes = tuple(fairness_attributes)
        if not self.fairness_attributes:
            raise ValueError("at least one fairness attribute is required")
        if not 0.0 < float(k) <= 1.0:
            raise ValueError(f"selection fraction k must be in (0, 1], got {k}")
        self.score_function = score_function
        self.k = float(k)
        base = config or DCAConfig()
        # Full DCA ignores the sampling machinery entirely.
        self.config = base
        self.objective = objective or DisparityObjective(self.fairness_attributes)

    def fit(self, table: Table) -> DCAResult:
        start = time.perf_counter()
        self.objective.fit(table)
        config = self.config
        config.validate()
        search = _BonusSearch(table, self.score_function, self.objective, self.k, config)
        bonus = search.initial_bonus()
        traces: list[DCATrace] = []
        for learning_rate in config.learning_rates:
            history = np.zeros((config.iterations, len(self.fairness_attributes)))
            norms = np.zeros(config.iterations)
            for step in range(config.iterations):
                signal = search.objective_on_full(bonus)
                bonus = _project(bonus - learning_rate * signal, config)
                history[step] = bonus
                norms[step] = _signal_norm(signal)
            traces.append(
                DCATrace(
                    phase=f"full lr={learning_rate:g}", bonus_history=history, objective_norms=norms
                )
            )
        raw = BonusVector(attribute_names=self.fairness_attributes, values=bonus)
        final = raw.clipped(config.min_bonus, config.max_bonus)
        if config.granularity > 0:
            final = final.rounded(config.granularity).clipped(config.min_bonus, config.max_bonus)
        elapsed = time.perf_counter() - start
        return DCAResult(
            bonus=final,
            raw_bonus=raw,
            core_bonus=raw,
            traces=tuple(traces),
            sample_size=table.num_rows,
            elapsed_seconds=elapsed,
        )


def fit_bonus_points(
    table: Table,
    fairness_attributes: Sequence[str],
    score_function: ScoreFunction,
    k: float,
    objective: FairnessObjective | None = None,
    config: DCAConfig | None = None,
) -> DCAResult:
    """One-call convenience wrapper around :class:`DCA`."""
    dca = DCA(fairness_attributes, score_function, k, objective=objective, config=config)
    return dca.fit(table)
