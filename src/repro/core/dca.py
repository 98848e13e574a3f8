"""The Disparity Compensation Algorithm (DCA).

This module implements the paper's primary contribution.  Algorithms 1 and
2 are one procedure behind :class:`DCA`:

* the core passes (Algorithm 1) iterate over decreasing learning rates; at
  every step they draw a small random sample, evaluate the fairness
  objective for the current bonus vector, and move the bonus vector against
  it, projecting back onto the feasible box (non-negative, optionally
  capped) after every step;
* the refinement pass (Algorithm 2) continues from the core passes' output
  with an Adam-driven pass over fresh samples, averages the iterates to
  damp the sampling noise, and rounds to the stakeholder granularity.
  ``DCAConfig.without_refinement()`` runs the core passes alone.

:meth:`DCA.fit` returns a :class:`~repro.core.result.DCAResult`, and
:meth:`DCA.fit_many` batches fits across seeds, selection fractions, and
objectives.  A fit is a batch of one: both run one planner
(:meth:`DCA._plan`) and one group runner (:func:`_run_group`).  The
no-sampling variant that Theorem 4.1 is stated for, which evaluates the
whole population at every step, is a test oracle
(``tests/_dca_table_oracle.py::oracle_full_fit``), not part of the package.

The objective is pluggable (:mod:`repro.core.objectives`): the default is the
Definition 3 disparity at a known selection fraction ``k``, but the same
machinery optimizes the log-discounted disparity, disparate impact, false
positive rate gaps, or exposure gaps.

Array-plane step loop
---------------------

The optimization loop runs thousands of sampled steps, so the per-step cost
dominates the fit time.  The hot loop therefore runs entirely on NumPy
arrays:

1. at ``fit`` time the base scores, the raw fairness-attribute matrix
   ``A_f``, and the objective's compiled population state (normalized
   matrix, group masks, labels — see
   :meth:`repro.core.objectives.FairnessObjective.compile`) are gathered
   **once**;
2. every step draws an ``int64`` index array from the
   :class:`~repro.core.sampling.SampleStream`, gathers the sample's rows
   ``base_s`` and ``A_s`` of ``base`` and ``A_f`` with ``take(idx, axis=0)``
   (several times cheaper than ``base[idx]`` for the same copy), takes the
   compiled objective's rows
   (:meth:`~repro.core.objectives.CompiledObjective.take`), computes
   compensated scores as ``base_s + A_s @ B`` and evaluates the taken
   objective on them — no per-step :class:`~repro.tabular.Table`
   materialization, no shadow index column, no
   :class:`~repro.core.bonus.BonusVector` boxing.

The loop steps a *stream group* of fits at once (see Batched execution);
:meth:`DCA.fit` runs a group of one on the same loop.

Custom objectives that only implement the table-path ``evaluate`` run
through the compiled fallback wrapper.  The per-step table-slicing
evaluation this loop replaced is kept as a per-job test oracle
(``tests/_dca_table_oracle.py``); it consumes its own generator in the same
order, and the equivalence tests pin :meth:`DCA.fit` and both
:meth:`DCA.fit_many` backends to it bitwise.

Batched execution
-----------------

:meth:`DCA.fit_many` runs seed/k/objective grids (or explicit
:class:`FitSpec` lists) over one population.  It first partitions the jobs
into stream groups: jobs whose resolved :class:`DCAConfig` (seed included,
and not ``None``), resolved sample size and attribute names are all equal.
A fit's draws depend only on those and the row count — never on ``k`` or
the objective — so a group's jobs draw the very same samples, and the group
runs in lockstep: one draw, one ``base``/``A_f`` gather and one take per
shared compiled objective per step, then exactly a lone fit's arithmetic
per job (never batched across jobs).  Every result is therefore bitwise
identical to an independent :meth:`DCA.fit`.  A seedless job draws fresh
entropy and is always a group of its own.

Two interchangeable backends, selected by ``executor`` or by the ambient
:func:`~repro.core.parallel.use_execution` scope when a call names none,
run the groups:

* ``"serial"`` — one group after another in the calling thread;
* ``"process"`` — a process pool (see :mod:`repro.core.parallel`) whose
  workers receive the population plane — the base scores, attribute
  matrices, and the batch's compiled objectives themselves — once, through
  the pool initializer.  Each group ships as chunks of at most
  ``ceil(len(jobs) / workers)`` jobs, tiny descriptors; a worker rebuilds a
  chunk's stream from its seed and runs it in lockstep.  This is the
  backend that parallelizes the Python-level step loop across cores.

Both backends, and :meth:`DCA.fit`, run one plan (:meth:`DCA._plan`)
through one group runner (:func:`_run_group`), so they produce bitwise
identical results for the same specs.  Each objective signature is fitted
and compiled once per batch, through the process-wide
:func:`~repro.core.parallel.default_objective_cache`, which also lets
repeated fits and ``fit_many`` calls on a population skip recompiling it;
an objective without a signature is compiled once per job.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..ranking import ScoreFunction
from ..tabular import Table
from .adam import Adam
from .bonus import BonusVector, compensate_scores
from .config import DCAConfig
from .objectives import CompiledObjective, DisparityObjective, FairnessObjective
from .parallel import (
    PlanePayload,
    StreamGroup,
    current_execution,
    default_objective_cache,
    execute_process_jobs,
    matrix_key,
    usable_cores,
    validate_execution,
)
from .result import DCAResult, DCATrace
from .sampling import SampleStream, rarest_group_frequency, recommended_sample_size

__all__ = ["DCA", "FitSpec", "BatchFitResult"]


def _project(values: np.ndarray, config: DCAConfig) -> np.ndarray:
    """Project a bonus vector onto the feasible box [min_bonus, max_bonus]."""
    values = np.maximum(values, config.min_bonus)
    if config.max_bonus is not None:
        values = np.minimum(values, config.max_bonus)
    return values


def _signal_norm(signal: np.ndarray) -> float:
    """L2 norm of a small signal vector (same value as ``np.linalg.norm``)."""
    return float(np.sqrt(signal @ signal))


def _check_fraction(k: float) -> None:
    if not 0.0 < float(k) <= 1.0:
        raise ValueError(f"selection fraction k must be in (0, 1], got {k}")


class _LockstepSearch:
    """The step loop's state for a group of fits that draw one sample stream.

    Per step the search draws the sample once, gathers the base scores and
    attribute rows once, and takes each distinct compiled objective's rows
    once (:meth:`CompiledObjective.take
    <repro.core.objectives.CompiledObjective.take>`); then every member
    runs exactly a lone fit's arithmetic: compensation under its own bonus
    and evaluation at its own ``k``.  A lone fit is a group of one.

    :func:`_run_group` assembles it from a batch's arrays, in the calling
    process or in a pool worker.  Uniform index draws depend only on the
    population's row count, so it takes ``num_rows`` and never the table,
    and each member's fit is bitwise identical to a lone fit with the same
    seed.
    """

    def __init__(
        self,
        *,
        base_scores: np.ndarray,
        attribute_matrix: np.ndarray,
        members: Sequence[tuple[CompiledObjective, float]],
        num_rows: int,
        sample_size: int,
        attribute_names: Sequence[str],
        config: DCAConfig,
    ) -> None:
        self.config = config
        self.attribute_names = tuple(attribute_names)
        self.ks = [float(k) for _, k in members]
        # Members that share a compiled objective instance share its per-step take.
        distinct = {id(compiled): compiled for compiled, _ in members}
        slots = {key: slot for slot, key in enumerate(distinct)}
        self._compiled = list(distinct.values())
        self._slots = [slots[id(compiled)] for compiled, _ in members]
        self.rng = config.rng()
        self._base_scores = base_scores
        self._attribute_matrix = attribute_matrix
        self.sample_size = int(sample_size)
        self._stream = SampleStream(num_rows, self.sample_size, rng=self.rng)
        self._phase_indices: np.ndarray | None = None
        self._phase_cursor = 0

    # ------------------------------------------------------------------
    def initial_bonus(self) -> np.ndarray:
        """Random non-negative initialization (Algorithm 1's ``B`` init), one draw for the group."""
        scale = self.config.initial_bonus_scale
        values = self.rng.uniform(0.0, scale, size=len(self.attribute_names))
        return _project(values, self.config)

    def begin_phase(self, num_steps: int) -> None:
        """Pre-draw a phase's samples under ``rng_batching="per_phase"``.

        A no-op in the default ``"per_step"`` mode, so the historical
        seed-for-seed stream is untouched.  In ``"per_phase"`` mode the
        phase's ``num_steps`` samples come from one generator call
        (:meth:`~repro.core.sampling.SampleStream.draw_phase_indices`) and
        :meth:`step_signals` consumes them row by row.
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

    def step_signals(self, bonuses: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Draw the next sample and evaluate every member under its own bonus values."""
        indices = self._next_indices()
        base = self._base_scores.take(indices)
        matrix = self._attribute_matrix.take(indices, axis=0)
        taken = [compiled.take(indices) for compiled in self._compiled]
        return [
            np.asarray(
                taken[slot].evaluate(None, compensate_scores(matrix, base, bonus), k), dtype=float
            )
            for slot, k, bonus in zip(self._slots, self.ks, bonuses)
        ]


def _run_phase(
    search: _LockstepSearch,
    bonuses: list[np.ndarray],
    num_steps: int,
    update: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``num_steps`` lockstep steps; ``update(member, bonus, signal)`` is one member's move.

    Updates ``bonuses`` in place and returns each member's bonus history and
    signal norms.
    """
    search.begin_phase(num_steps)
    histories = [np.zeros((num_steps, len(search.attribute_names))) for _ in bonuses]
    norms = [np.zeros(num_steps) for _ in bonuses]
    for step in range(num_steps):
        for member, signal in enumerate(search.step_signals(bonuses)):
            bonuses[member] = update(member, bonuses[member], signal)
            histories[member][step] = bonuses[member]
            norms[member][step] = _signal_norm(signal)
    return histories, norms


def _core_passes(
    search: _LockstepSearch, bonuses: list[np.ndarray]
) -> tuple[list[np.ndarray], list[list[DCATrace]]]:
    """Algorithm 1 for every member: one fixed-rate pass per learning rate."""
    config = search.config
    traces: list[list[DCATrace]] = [[] for _ in bonuses]
    for learning_rate in config.learning_rates:
        histories, norms = _run_phase(
            search,
            bonuses,
            config.iterations,
            lambda _, bonus, signal, rate=learning_rate: _project(bonus - rate * signal, config),
        )
        for member_traces, history, norm in zip(traces, histories, norms):
            member_traces.append(
                DCATrace(
                    phase=f"core lr={learning_rate:g}", bonus_history=history, objective_norms=norm
                )
            )
    return bonuses, traces


def _refinement_pass(
    search: _LockstepSearch, bonuses: list[np.ndarray]
) -> tuple[list[np.ndarray], list[DCATrace]]:
    """Algorithm 2 for every member: Adam steps, then the averaged, projected iterate."""
    config = search.config
    iterations = config.refinement_iterations
    adams = [Adam(learning_rate=config.refinement_learning_rate) for _ in bonuses]
    histories, norms = _run_phase(
        search,
        [_project(bonus, config) for bonus in bonuses],
        iterations,
        lambda member, bonus, signal: _project(adams[member].step(bonus, signal), config),
    )
    window = min(config.averaging_window, iterations)
    averaged = [_project(history[-window:].mean(axis=0), config) for history in histories]
    traces = [
        DCATrace(phase="refinement", bonus_history=history, objective_norms=norm)
        for history, norm in zip(histories, norms)
    ]
    return averaged, traces


def _publish(raw_bonus: BonusVector, config: DCAConfig) -> BonusVector:
    """The published bonus: clip to the feasible box, round to the granularity, clip again."""
    final = raw_bonus.clipped(config.min_bonus, config.max_bonus)
    if config.granularity > 0:
        final = final.rounded(config.granularity).clipped(config.min_bonus, config.max_bonus)
    return final


def _run_group(
    arrays: Mapping[str, np.ndarray],
    num_rows: int,
    group: StreamGroup,
    objective_for: Callable[[int], CompiledObjective],
) -> list[tuple[int, DCAResult]]:
    """Fit one stream group in lockstep; ``(job index, result)`` per member.

    The one runner of :meth:`DCA.fit`, serial batches and the process-backend
    workers.  ``arrays`` holds the batch's ``"base"`` scores and attribute
    matrices (keyed by :func:`~repro.core.parallel.matrix_key`);
    ``objective_for`` turns an objective key into the batch's compiled
    objective for it, so members with one key share one instance (and its
    per-step take).  Every member runs the core and refinement phases, and
    its final bonus is published by :func:`_publish`.  Each member's
    ``elapsed_seconds`` is its share of the group's wall-clock.
    """
    start = time.perf_counter()
    config = group.config
    names = group.attribute_names
    search = _LockstepSearch(
        base_scores=arrays["base"],
        attribute_matrix=arrays[matrix_key(names)],
        members=[(objective_for(key), k) for _, k, key in group.members],
        num_rows=num_rows,
        sample_size=group.sample_size,
        attribute_names=names,
        config=config,
    )
    initial = search.initial_bonus()
    core_values, traces = _core_passes(search, [initial for _ in search.ks])
    if config.refinement_iterations > 0:
        raw_values, refine_traces = _refinement_pass(search, core_values)
        traces = [member + [refine] for member, refine in zip(traces, refine_traces)]
    else:
        raw_values = core_values
    share = (time.perf_counter() - start) / len(search.ks)
    results = []
    for (index, _, _), core, raw, member_traces in zip(
        group.members, core_values, raw_values, traces
    ):
        raw_bonus = BonusVector(attribute_names=names, values=raw)
        result = DCAResult(
            bonus=_publish(raw_bonus, config),
            raw_bonus=raw_bonus,
            core_bonus=BonusVector(attribute_names=names, values=core),
            traces=tuple(member_traces),
            sample_size=search.sample_size,
            elapsed_seconds=share,
        )
        results.append((index, result))
    return results


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


def _batch_results(
    jobs: Sequence[FitSpec],
    groups: Sequence[StreamGroup],
    pairs: Sequence[tuple[int, DCAResult]],
) -> dict[int, BatchFitResult]:
    """Wrap ``(job index, result)`` pairs as batch entries, keyed by job index."""
    resolved = {
        index: (k, group.config.seed) for group in groups for index, k, _ in group.members
    }
    return {
        index: BatchFitResult(
            spec=jobs[index], k=resolved[index][0], seed=resolved[index][1], result=result
        )
        for index, result in pairs
    }


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
        Hyper-parameters; defaults follow Section V-B.  For the core passes
        alone (Algorithm 1), pass ``config.without_refinement()``.

    An explicit objective must list exactly the fairness attributes, in the
    same order: the fitted values follow the objective's order and are
    published under the fairness attributes' names.
    """

    def __init__(
        self,
        fairness_attributes: Sequence[str],
        score_function: ScoreFunction,
        k: float,
        objective: FairnessObjective | None = None,
        config: DCAConfig | None = None,
    ) -> None:
        attributes = tuple(fairness_attributes)
        if not attributes:
            raise ValueError("at least one fairness attribute is required")
        _check_fraction(k)
        config = config or DCAConfig()
        config.validate()
        if objective is not None and tuple(objective.attribute_names) != attributes:
            raise ValueError(
                "the objective's attributes must match the fairness attributes: "
                f"{objective.attribute_names} vs {attributes}"
            )
        self.fairness_attributes = attributes
        self.k = float(k)
        self.objective = objective or DisparityObjective(attributes)
        self.config = config
        self.score_function = score_function

    def fit(self, table: Table) -> DCAResult:
        """Fit bonus points on ``table`` (the training cohort / distribution sample).

        A batch of one: the same plan and group runner as :meth:`fit_many`,
        always in the calling process.  Like every batched job, it fits and
        compiles a private copy of the objective through the process-wide
        :func:`~repro.core.parallel.default_objective_cache`, so
        ``self.objective`` is left as it was, and repeated fits on one
        cohort compile it once.  ``elapsed_seconds`` covers the whole call.
        """
        start = time.perf_counter()
        groups, arrays, compiled = self._plan(table, [FitSpec()])
        [(_, result)] = _run_group(arrays, table.num_rows, groups[0], compiled.__getitem__)
        return replace(result, elapsed_seconds=time.perf_counter() - start)

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
        come back in job order.  Jobs that draw the same sample stream — equal
        resolved config (seed included, and not ``None``), sample size and
        attribute names — run as one lockstep group with one draw and one row
        gather per step (see the module docstring); every job still runs its
        own compensation, evaluation and update, so a batched fit is
        reproducible and **bitwise identical to the corresponding sequence
        of** :meth:`fit` **calls on every backend**.  A batched result's
        ``elapsed_seconds`` is its share of its group's wall-clock.

        ``executor`` picks the backend:

        * ``"serial"`` — groups run one after another in the calling thread;
        * ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor`
          over a population plane (:mod:`repro.core.parallel`): base
          scores, attribute matrices, and the compiled objectives reach
          each worker once, through the pool initializer (inherited under
          ``fork``, pickled once per worker under ``spawn``), and each
          group ships as chunks of at most ``ceil(len(jobs) / max_workers)``
          jobs, tiny descriptors — the cohort is never pickled per job.
          Every job runs on the pool, custom objectives included; under
          ``spawn`` a compiled objective that cannot be pickled raises here.
        * ``None`` (default) — ``"process"`` when ``max_workers`` asks for
          parallelism, else ``"serial"``.

        A call given neither ``executor`` nor ``max_workers`` takes both from
        the ambient :func:`repro.core.parallel.use_execution` scope (outside
        one, ``(None, None)``: serial); explicit arguments replace the
        ambient pair as a whole.

        ``max_workers`` sizes the pool; for the process backend it defaults
        to ``min(len(jobs), usable_cores())``, the cores this process may
        run on (:func:`repro.core.parallel.usable_cores`).  Zero or negative
        ``max_workers``, and ``max_workers > 1`` with ``"serial"``, are
        rejected eagerly, before any pool is created, and so is every
        job's config and ``k``.  A job that raises inside a worker
        re-raises its own exception here; a worker process that dies
        mid-job raises :class:`concurrent.futures.process.BrokenProcessPool`.
        Each objective signature is fitted and compiled once per call, and
        compiled objectives are cached per population (see
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

        if executor is None and max_workers is None:
            executor, max_workers = current_execution()
        else:
            executor, max_workers = validate_execution(executor, max_workers)
        if executor is None:
            executor = "process" if (max_workers is not None and max_workers > 1) else "serial"
        groups, arrays, compiled = self._plan(table, jobs)
        if executor == "process":
            workers = max_workers if max_workers is not None else min(len(jobs), usable_cores())
            size = -(-len(jobs) // workers)
            chunks = [chunk for group in groups for chunk in group.chunks(size)]
            payload = PlanePayload(table.num_rows, arrays, tuple(compiled))
            pairs = execute_process_jobs(payload, chunks, workers)
        else:
            pairs = [
                pair
                for group in groups
                for pair in _run_group(arrays, table.num_rows, group, compiled.__getitem__)
            ]
        results = _batch_results(jobs, groups, pairs)
        return [results[index] for index in range(len(jobs))]

    # ------------------------------------------------------------------
    # fit_many internals
    # ------------------------------------------------------------------
    def _resolve_spec(self, spec: FitSpec) -> tuple[DCAConfig, FairnessObjective, float]:
        """Resolve a spec's config/objective/k against this instance's defaults.

        Validates both, so every backend rejects a bad job in the parent,
        before any pool exists.
        """
        config = spec.config if spec.config is not None else self.config
        if spec.seed is not None:
            config = replace(config, seed=spec.seed)
        config.validate()
        objective = spec.objective if spec.objective is not None else self.objective
        k = self.k if spec.k is None else float(spec.k)
        _check_fraction(k)
        return config, objective, k

    def _plan(
        self, table: Table, jobs: Sequence[FitSpec]
    ) -> tuple[list[StreamGroup], dict[str, np.ndarray], list[CompiledObjective]]:
        """Resolve and compile every job, and partition the jobs into stream groups.

        Each objective signature is fitted and compiled once, through the
        process-wide :func:`~repro.core.parallel.default_objective_cache`;
        an objective without a signature gets its own copy per job.  Jobs share a group when their resolved config (seed included,
        and not ``None``), sample size and attribute names are all equal:
        they draw the same sample stream.  Returns the groups, the arrays
        they read — the ``"base"`` scores and one attribute matrix per
        attribute set — and the compiled objectives their members' keys
        index.
        """
        num_rows = table.num_rows
        if num_rows == 0:
            raise ValueError("cannot fit bonus points on an empty table")
        cache = default_objective_cache()
        arrays: dict[str, np.ndarray] = {}
        compiled: list[CompiledObjective] = []
        keys: dict[tuple, int] = {}
        rarest: dict[tuple[str, ...], float] = {}
        streams: dict[tuple, list[tuple[int, float, int]]] = {}
        for index, spec in enumerate(jobs):
            config, template, k = self._resolve_spec(spec)
            signature = template.signature()
            if signature is None or signature not in keys:
                # A private copy: fit() mutates normalizer state.
                objective = copy.deepcopy(template)
                objective.fit(table)
                compiled.append(cache.compile(objective, table))
                if signature is not None:
                    keys[signature] = len(compiled) - 1
            key = len(compiled) - 1 if signature is None else keys[signature]
            attributes = tuple(template.attribute_names)
            if matrix_key(attributes) not in arrays:
                arrays[matrix_key(attributes)] = table.matrix(list(attributes))

            if config.sample_size is not None:
                sample_size = int(min(config.sample_size, num_rows))
            else:
                if attributes not in rarest:  # one group scan per attribute set
                    rarest[attributes] = rarest_group_frequency(table, attributes)
                sample_size = recommended_sample_size(
                    k, rarest[attributes], min_group_count=config.min_group_count, maximum=num_rows
                )
            # A seedless job draws fresh entropy, so it shares its stream with no one.
            stream = (attributes, config, sample_size, None if config.seed is not None else index)
            streams.setdefault(stream, []).append((index, k, key))
        arrays["base"] = np.asarray(self.score_function.scores(table), dtype=float)
        groups = [
            StreamGroup(attributes, config, sample_size, tuple(members))
            for (attributes, config, sample_size, _), members in streams.items()
        ]
        return groups, arrays, compiled

    def compensated_scores(self, table: Table, bonus: BonusVector) -> np.ndarray:
        """Convenience: apply a fitted bonus vector to new data."""
        return bonus.apply(table, self.score_function.scores(table))
