"""Tests for the batched DCA.fit_many API and its execution backends."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _dca_table_oracle import oracle_fit

from repro.core import (
    DCA,
    CompiledObjective,
    CompiledObjectiveCache,
    DCAConfig,
    DisparateImpactObjective,
    DisparityObjective,
    DisparityResult,
    ExposureGapObjective,
    FairnessObjective,
    FalsePositiveRateObjective,
    FitSpec,
    LogDiscountedDisparityObjective,
    SampleStream,
    current_execution,
    use_execution,
)
from repro.core.parallel import process_start_method
from repro.ranking import ColumnScore, selection_mask
from repro.tabular import Table

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def population() -> Table:
    rng = np.random.default_rng(12)
    n = 2000
    protected = (rng.uniform(size=n) < 0.3).astype(float)
    score = rng.normal(10.0, 2.0, size=n) - 2.0 * protected
    return Table({"score": score, "protected": protected})


FAST = DCAConfig(seed=5, iterations=25, refinement_iterations=25, sample_size=250)


def _dca(config: DCAConfig = FAST) -> DCA:
    return DCA(["protected"], ColumnScore("score"), k=0.2, config=config)


class TestGrids:
    def test_defaults_to_single_fit(self, population):
        batch = _dca().fit_many(population)
        assert len(batch) == 1
        assert batch[0].k == 0.2
        assert batch[0].seed == 5

    def test_k_sweep_matches_individual_fits(self, population):
        ks = (0.1, 0.2, 0.4)
        batch = _dca().fit_many(population, ks=ks)
        assert [entry.k for entry in batch] == list(ks)
        for k, entry in zip(ks, batch):
            solo = DCA(["protected"], ColumnScore("score"), k=k, config=FAST).fit(population)
            assert np.array_equal(entry.result.raw_bonus.values, solo.raw_bonus.values)

    def test_seed_grid_overrides_config_seed(self, population):
        batch = _dca().fit_many(population, seeds=(1, 2))
        assert [entry.seed for entry in batch] == [1, 2]
        resolo = DCA(
            ["protected"], ColumnScore("score"), k=0.2, config=replace(FAST, seed=2)
        )
        assert np.array_equal(
            batch[1].result.raw_bonus.values, resolo.fit(population).raw_bonus.values
        )

    def test_cartesian_product_order(self, population):
        batch = _dca().fit_many(population, ks=(0.1, 0.2), seeds=(1, 2))
        assert [(entry.k, entry.seed) for entry in batch] == [
            (0.1, 1), (0.1, 2), (0.2, 1), (0.2, 2)
        ]

    def test_objectives_axis_fits_each_objective(self, population):
        objectives = (DisparityObjective(("protected",)), ExposureGapObjective(("protected",)))
        batch = _dca().fit_many(population, objectives=objectives)
        assert len(batch) == 2
        for entry in batch:
            assert entry.result.attribute_names == ("protected",)

    def test_shared_objective_instances_not_mutated(self, population):
        objective = DisparityObjective(("protected",))
        _dca().fit_many(population, objectives=(objective, objective))
        # fit_many deep-copies per job, so the caller's instance stays unfitted.
        assert not objective.calculator.normalizer.is_fitted


class TestSpecs:
    def test_specs_and_grid_are_mutually_exclusive(self, population):
        with pytest.raises(ValueError):
            _dca().fit_many(population, ks=(0.1,), specs=[FitSpec()])

    def test_spec_config_override_and_label(self, population):
        specs = [
            FitSpec(label="short", config=FAST),
            FitSpec(label="long", config=FAST.without_refinement()),
        ]
        batch = _dca().fit_many(population, specs=specs)
        assert [entry.label for entry in batch] == ["short", "long"]
        assert batch[1].result.traces[-1].phase.startswith("core")

    def test_empty_specs(self, population):
        assert _dca().fit_many(population, specs=[]) == []


class TestParallel:
    def test_threaded_batch_matches_sequential(self, population):
        dca = _dca()
        sequential = dca.fit_many(population, seeds=(1, 2, 3))
        threaded = dca.fit_many(population, seeds=(1, 2, 3), max_workers=3)
        for left, right in zip(sequential, threaded):
            assert np.array_equal(
                left.result.raw_bonus.values, right.result.raw_bonus.values
            )

    def test_batch_result_accessors(self, population):
        entry = _dca().fit_many(population, ks=(0.25,))[0]
        assert entry.bonus is entry.result.bonus
        assert entry.label is None


class _SignatureLessObjective(FairnessObjective):
    """A custom objective without a signature: exercises the process fallback."""

    def evaluate(self, table, scores, k):
        mask = selection_mask(np.asarray(scores, dtype=float), k)
        values = np.zeros(len(self.attribute_names))
        for i, name in enumerate(self.attribute_names):
            member = table.numeric(name) > 0.5
            if member.any():
                values[i] = float(mask[member].mean() - mask.mean())
        return DisparityResult(self.attribute_names, values)


class _SignedTablePathObjective(_SignatureLessObjective):
    """A custom objective with a signature but only the table path."""

    def signature(self):
        return ("signed-table-path", self.attribute_names)


class _UnpicklableObjective(_SignatureLessObjective):
    """A custom objective holding a lambda, which no ``spawn`` worker can receive."""

    def __init__(self, attribute_names) -> None:
        super().__init__(attribute_names)
        self.hook = lambda values: values


_NO_SHARED_MEMORY_PROBE = """
import os
from multiprocessing import resource_tracker

import numpy as np

from repro.core import DCA, DCAConfig
from repro.ranking import ColumnScore
from repro.tabular import Table


def segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


rng = np.random.default_rng(12)
protected = (rng.uniform(size=2000) < 0.3).astype(float)
table = Table({"score": rng.normal(10.0, 2.0, size=2000) - 2.0 * protected,
               "protected": protected})
config = DCAConfig(seed=5, iterations=25, refinement_iterations=25, sample_size=250)
dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=config)
before = segments()
dca.fit_many(table, seeds=(1, 2), executor="process", max_workers=2)
print(f"tracker={resource_tracker._resource_tracker._pid}")
print("segments=" + ",".join(sorted(segments() - before)))
"""


def _raw_values(batch):
    return [entry.result.raw_bonus.values for entry in batch]


class TestExecutors:
    """The executor backends must be interchangeable, bit for bit."""

    def test_unknown_executor_rejected(self, population):
        with pytest.raises(ValueError, match="executor"):
            _dca().fit_many(population, seeds=(1, 2), executor="gpu")

    def test_thread_executor_rejected(self, population):
        with pytest.raises(ValueError, match=r"\('serial', 'process'\).*'thread'"):
            _dca().fit_many(population, seeds=(1, 2), executor="thread")

    def test_serial_rejects_a_pool_size(self, population):
        # A worker count would be dropped without a word: serial runs one job at a time.
        with pytest.raises(ValueError, match="serial.*max_workers=4"):
            _dca().fit_many(population, seeds=(1, 2), executor="serial", max_workers=4)

    def test_max_workers_alone_selects_process(self, population, monkeypatch):
        calls = _spy_pool(monkeypatch)
        _dca().fit_many(population, seeds=(1, 2), max_workers=2)
        assert len(calls) == 1
        _dca().fit_many(population, seeds=(1, 2))
        assert len(calls) == 1  # no max_workers: serial

    @staticmethod
    def _assert_every_job_on_the_pool(population, monkeypatch, config) -> None:
        in_parent = _spy_groups(monkeypatch)
        dca = _dca(config)
        batch = dca.fit_many(population, ks=(0.1, 0.2), seeds=(1, 2), executor="process")
        assert in_parent == []
        monkeypatch.undo()
        serial = dca.fit_many(population, ks=(0.1, 0.2), seeds=(1, 2), executor="serial")
        for left, right in zip(serial, batch):
            assert np.array_equal(left.result.raw_bonus.values, right.result.raw_bonus.values)

    def test_process_runs_no_default_job_in_the_parent(self, population, monkeypatch):
        """Default-config jobs all run on the pool: none falls back in-parent."""
        self._assert_every_job_on_the_pool(population, monkeypatch, FAST)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sample_size": None},
            {"rng_batching": "per_phase"},
            {"refinement_iterations": 0},
            {"max_bonus": 1.0},
        ],
        ids=["rule_sample_size", "per_phase", "no_refinement", "max_bonus"],
    )
    def test_process_runs_no_exportable_job_in_the_parent(
        self, population, monkeypatch, overrides
    ):
        """No config routes a job to the parent: only the objective decides."""
        self._assert_every_job_on_the_pool(population, monkeypatch, replace(FAST, **overrides))

    def test_default_pool_follows_cpu_affinity(self, population, monkeypatch):
        """Without max_workers the pool is sized by the usable cores, not os.cpu_count()."""
        import repro.core.dca as dca_module

        received = []
        original = dca_module.execute_process_jobs

        def spy(payload, jobs, max_workers):
            received.append(max_workers)
            return original(payload, jobs, max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(dca_module, "execute_process_jobs", spy)
        _dca().fit_many(population, seeds=(1, 2, 3), executor="process")
        assert received == [1]

    def test_named_executors_match_serial(self, population):
        dca = _dca()
        serial = dca.fit_many(population, seeds=(1, 2, 3), executor="serial")
        batch = dca.fit_many(population, seeds=(1, 2, 3), executor="process", max_workers=2)
        for left, right in zip(serial, batch):
            assert np.array_equal(left.result.raw_bonus.values, right.result.raw_bonus.values)

    def test_process_eight_job_grid_bitwise_identical(self, population):
        """The acceptance grid: 8 seeded jobs, process == serial bitwise."""
        dca = _dca()
        serial = dca.fit_many(population, ks=(0.1, 0.2), seeds=(1, 2, 3, 4))
        process = dca.fit_many(
            population, ks=(0.1, 0.2), seeds=(1, 2, 3, 4), executor="process"
        )
        assert len(serial) == 8
        assert [(e.k, e.seed) for e in serial] == [(e.k, e.seed) for e in process]
        for left, right in zip(serial, process):
            assert np.array_equal(
                left.result.raw_bonus.values, right.result.raw_bonus.values
            )
            assert np.array_equal(left.result.bonus.values, right.result.bonus.values)
            assert left.result.sample_size == right.result.sample_size
            for trace_l, trace_r in zip(left.result.traces, right.result.traces):
                assert trace_l.phase == trace_r.phase
                assert np.array_equal(trace_l.bonus_history, trace_r.bonus_history)

    def test_spawn_workers_match_serial(self, monkeypatch):
        """Under ``spawn`` the plane is pickled to each worker; results do not move."""
        import repro.core.parallel as parallel_module

        rng = np.random.default_rng(31)
        n = 5_000
        protected = (rng.uniform(size=n) < 0.3).astype(float)
        low_income = (rng.uniform(size=n) < 0.4).astype(float)
        score = rng.normal(10.0, 2.0, size=n) - 1.5 * protected - low_income
        table = Table({"score": score, "protected": protected, "low_income": low_income})
        dca = DCA(["protected", "low_income"], ColumnScore("score"), k=0.1, config=FAST)
        serial = dca.fit_many(table, seeds=(1, 2, 3, 4), executor="serial")
        monkeypatch.setattr(parallel_module, "process_start_method", lambda: "spawn")
        spawned = dca.fit_many(table, seeds=(1, 2, 3, 4), executor="process", max_workers=2)
        for left, right in zip(serial, spawned):
            assert np.array_equal(left.result.raw_bonus.values, right.result.raw_bonus.values)
            assert np.array_equal(left.result.bonus.values, right.result.bonus.values)

    def test_spawn_workers_receive_every_objective_kind(self, monkeypatch):
        """One spawned pool serves every built-in and a custom objective, bitwise."""
        import repro.core.parallel as parallel_module

        rng = np.random.default_rng(32)
        n = 2_000
        protected = (rng.uniform(size=n) < 0.3).astype(float)
        label = (rng.uniform(size=n) < 0.4).astype(float)
        score = rng.normal(10.0, 2.0, size=n) - 1.5 * protected
        table = Table({"score": score, "protected": protected, "label": label})
        attributes = ("protected",)
        objectives = (
            DisparityObjective(attributes),
            LogDiscountedDisparityObjective(attributes),
            DisparateImpactObjective(attributes),
            FalsePositiveRateObjective(attributes, label_column="label"),
            ExposureGapObjective(attributes),
            _SignatureLessObjective(attributes),
        )
        specs = [
            FitSpec(k=k, seed=1, objective=objective)
            for objective in objectives
            for k in (0.1, 0.3)
        ]
        serial = _dca().fit_many(table, specs=specs, executor="serial")
        monkeypatch.setattr(parallel_module, "process_start_method", lambda: "spawn")
        spawned = _dca().fit_many(table, specs=specs, executor="process", max_workers=2)
        assert len(spawned) == len(specs)
        for left, right in zip(serial, spawned):
            _assert_same_result(right.result, left.result)

    @pytest.mark.skipif(
        process_start_method() != "fork",
        reason="spawn pools start the resource tracker for their semaphores",
    )
    def test_process_backend_allocates_no_shared_memory(self):
        """A process ``fit_many`` starts no resource tracker and leaves no segment.

        Run in a fresh interpreter: the tracker is per process, and this one
        may have started it already.
        """
        completed = subprocess.run(
            [sys.executable, "-c", _NO_SHARED_MEMORY_PROBE],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["tracker=None", "segments="]

    def test_process_mixed_objectives(self, population):
        objectives = (DisparityObjective(("protected",)), ExposureGapObjective(("protected",)))
        serial = _dca().fit_many(population, objectives=objectives)
        process = _dca().fit_many(population, objectives=objectives, executor="process")
        for left, right in zip(serial, process):
            assert np.array_equal(
                left.result.raw_bonus.values, right.result.raw_bonus.values
            )

    def test_process_rule_based_sample_size(self, population):
        """sample_size=None exercises the parent-side max(1/k, 1/r) planning."""
        config = replace(FAST, sample_size=None)
        serial = _dca(config).fit_many(population, seeds=(1, 2))
        process = _dca(config).fit_many(population, seeds=(1, 2), executor="process")
        for left, right in zip(serial, process):
            assert left.result.sample_size == right.result.sample_size
            assert np.array_equal(
                left.result.raw_bonus.values, right.result.raw_bonus.values
            )

    def test_process_falls_back_for_signatureless_objectives(self, population, monkeypatch):
        """Custom objectives without a signature run on the pool too, same results."""
        objective = _SignatureLessObjective(("protected",))
        assert objective.signature() is None
        specs = [FitSpec(seed=1, objective=objective), FitSpec(seed=2)]
        serial = _dca().fit_many(population, specs=specs)
        # Installed before the pool forks: workers inherit the spy and record
        # into their own copy, so only a group run in the parent shows here.
        in_parent = _spy_groups(monkeypatch)
        process = _dca().fit_many(population, specs=specs, executor="process")
        assert in_parent == []
        for left, right in zip(serial, process):
            assert np.array_equal(
                left.result.raw_bonus.values, right.result.raw_bonus.values
            )


def _mixed_specs() -> list[FitSpec]:
    """A batch whose jobs split into stream groups of several shapes.

    2 seeds x 3 ks x 3 objectives share one stream per seed; the rule-sized
    jobs differ in sample size by k; a second schedule and ``per_phase``
    draws each form their own group.
    """
    objectives = (
        DisparityObjective(("protected",)),
        LogDiscountedDisparityObjective(("protected",)),
        DisparateImpactObjective(("protected",)),
    )
    specs = [
        FitSpec(k=k, seed=seed, objective=objective)
        for seed in (1, 2)
        for k in (0.1, 0.2, 0.4)
        for objective in objectives
    ]
    specs += [FitSpec(k=k, seed=1, config=replace(FAST, sample_size=None)) for k in (0.1, 0.2, 0.4)]
    specs += [
        FitSpec(k=k, seed=2, config=replace(FAST, learning_rates=(0.5,))) for k in (0.1, 0.4)
    ]
    specs += [
        FitSpec(k=k, seed=1, config=replace(FAST, rng_batching="per_phase")) for k in (0.2, 0.4)
    ]
    return specs


#: Group sizes of the mixed batch, in first-member order.
_MIXED_GROUPS = [9, 9, 1, 1, 1, 2, 2]


def _assert_same_result(result, reference) -> None:
    assert np.array_equal(result.core_bonus.values, reference.core_bonus.values)
    assert np.array_equal(result.raw_bonus.values, reference.raw_bonus.values)
    assert np.array_equal(result.bonus.values, reference.bonus.values)
    assert result.sample_size == reference.sample_size
    assert len(result.traces) == len(reference.traces)
    for trace, expected in zip(result.traces, reference.traces):
        assert trace.phase == expected.phase
        assert np.array_equal(trace.bonus_history, expected.bonus_history)
        assert np.array_equal(trace.objective_norms, expected.objective_norms)


def _spy_groups(monkeypatch) -> list[int]:
    """Sizes of the stream groups run in this process."""
    import repro.core.dca as dca_module

    sizes = []
    original = dca_module._run_group

    def spy(arrays, num_rows, group, objective_for):
        sizes.append(len(group.members))
        return original(arrays, num_rows, group, objective_for)

    monkeypatch.setattr(dca_module, "_run_group", spy)
    return sizes


def _spy_pool(monkeypatch) -> list[int]:
    """The worker count of every process pool ``fit_many`` starts."""
    import repro.core.dca as dca_module

    calls = []
    original = dca_module.execute_process_jobs

    def spy(payload, groups, max_workers):
        calls.append(max_workers)
        return original(payload, groups, max_workers)

    monkeypatch.setattr(dca_module, "execute_process_jobs", spy)
    return calls


class TestStreamGroups:
    """Jobs that draw one sample stream run in lockstep, bitwise equal to lone fits."""

    @pytest.fixture(scope="class")
    def references(self, population):
        """Per spec of the mixed batch: an independent ``DCA.fit`` and the table oracle."""
        fits, oracles = [], []
        for spec in _mixed_specs():
            config = replace(spec.config or FAST, seed=spec.seed)
            objective = spec.objective or DisparityObjective(("protected",))
            dca = DCA(
                objective.attribute_names,
                ColumnScore("score"),
                k=spec.k,
                objective=copy.deepcopy(objective),
                config=config,
            )
            fits.append(dca.fit(population))
            oracles.append(
                oracle_fit(
                    population, ColumnScore("score"), copy.deepcopy(objective), spec.k, config
                )
            )
        return fits, oracles

    def test_seeded_k_sweep_shares_one_stream(self, population, monkeypatch):
        sizes = _spy_groups(monkeypatch)
        _dca().fit_many(population, ks=(0.1, 0.2, 0.4), seeds=(1, 2))
        assert sizes == [3, 3]

    def test_list_learning_rates_group_like_a_tuple(self, population, monkeypatch):
        """A config given its rates as a list is still a grouping key (hashable)."""
        sizes = _spy_groups(monkeypatch)
        listed = replace(FAST, learning_rates=[1.0, 0.1])
        batch = _dca(listed).fit_many(population, ks=(0.1, 0.2))
        assert sizes == [2]
        reference = _dca().fit_many(population, ks=(0.1, 0.2))
        for left, right in zip(batch, reference):
            _assert_same_result(left.result, right.result)

    def test_seedless_jobs_never_share_a_stream(self, population, monkeypatch):
        sizes = _spy_groups(monkeypatch)
        draws = []
        original = SampleStream.draw_indices

        def record(self):
            draws.append(original(self))
            return draws[-1]

        monkeypatch.setattr(SampleStream, "draw_indices", record)
        seedless = replace(FAST, seed=None)
        _dca(seedless).fit_many(population, ks=(0.1, 0.2))
        assert sizes == [1, 1]
        steps = 2 * FAST.iterations + FAST.refinement_iterations
        assert len(draws) == 2 * steps  # one stream per job
        assert not np.array_equal(draws[0], draws[steps])

    @pytest.mark.parametrize("backend", ["serial", "process", "spawn", "one_worker"])
    def test_mixed_batch_matches_independent_fits_and_oracle(
        self, population, references, monkeypatch, backend
    ):
        import repro.core.parallel as parallel_module

        if backend == "serial":
            sizes = _spy_groups(monkeypatch)
            batch = _dca().fit_many(population, specs=_mixed_specs(), executor="serial")
            assert sizes == _MIXED_GROUPS
        else:
            if backend == "spawn":
                monkeypatch.setattr(parallel_module, "process_start_method", lambda: "spawn")
            workers = 1 if backend == "one_worker" else 2
            batch = _dca().fit_many(
                population, specs=_mixed_specs(), executor="process", max_workers=workers
            )
        fits, oracles = references
        assert len(batch) == len(fits)
        for entry, fit, oracle in zip(batch, fits, oracles):
            _assert_same_result(entry.result, fit)
            _assert_same_result(entry.result, oracle)

    def test_process_chunks_a_group_per_worker(self, population, monkeypatch):
        """A five-job group on two workers ships as lockstep chunks of 3 and 2."""
        import repro.core.dca as dca_module

        chunks = []
        original = dca_module.execute_process_jobs

        def spy(payload, groups, max_workers):
            chunks.append([len(group.members) for group in groups])
            return original(payload, groups, max_workers)

        monkeypatch.setattr(dca_module, "execute_process_jobs", spy)
        ks = (0.1, 0.2, 0.3, 0.4, 0.5)
        process = _dca().fit_many(population, ks=ks, executor="process", max_workers=2)
        serial = _dca().fit_many(population, ks=ks, executor="serial")
        assert chunks == [[3, 2]]
        for left, right in zip(serial, process):
            _assert_same_result(right.result, left.result)

    def test_elapsed_seconds_share_the_group_wall_clock(self, population):
        """A batched fit reports its share of its group's wall-clock, never more."""
        start = time.perf_counter()
        batch = _dca().fit_many(population, ks=(0.1, 0.2, 0.4), seeds=(1, 2))
        wall = time.perf_counter() - start
        assert sum(entry.result.elapsed_seconds for entry in batch) <= wall
        for seed in (1, 2):
            shares = {entry.result.elapsed_seconds for entry in batch if entry.seed == seed}
            assert len(shares) == 1 and shares.pop() > 0


class _WorkerFault(Exception):
    """Raised by :class:`_FaultyCompiled` inside a pool worker."""


class _FaultyCompiled(CompiledObjective):
    """A compiled objective whose evaluate fails in the worker.

    ``fault="raise"`` raises :class:`_WorkerFault`; ``fault="exit"`` kills
    the worker process outright; ``fault="write"`` writes into its state
    array, which is part of the worker's plane.  The parent only compiles
    it, so the fault fires on the pool side.
    """

    def __init__(self, membership: np.ndarray, fault: str) -> None:
        self._membership = membership
        self._fault = fault

    def evaluate(self, indices, scores, k):
        if self._fault == "exit":
            os._exit(3)
        if self._fault == "write":
            self._membership[indices] = False
        raise _WorkerFault(f"evaluate failed on {len(scores)} rows")


class _FaultyObjective(FairnessObjective):
    def __init__(self, attribute_names, fault: str) -> None:
        super().__init__(attribute_names)
        self.fault = fault

    def evaluate(self, table, scores, k):
        raise AssertionError("the faulty objective only runs compiled, in a worker")

    def compile(self, table):
        membership = np.column_stack([table.numeric(name) > 0.5 for name in self.attribute_names])
        return _FaultyCompiled(membership, self.fault)

    def signature(self):
        return ("faulty", self.attribute_names, self.fault)


class TestProcessFailures:
    """The process backend's failure contract."""

    def _faulty_batch(self, population, fault: str):
        dca = DCA(
            ["protected"],
            ColumnScore("score"),
            k=0.2,
            objective=_FaultyObjective(("protected",), fault),
            config=FAST,
        )
        return dca.fit_many(population, seeds=(1, 2, 3), executor="process", max_workers=2)

    def test_job_exception_reraised_with_its_own_type(self, population):
        with pytest.raises(_WorkerFault, match="evaluate failed"):
            self._faulty_batch(population, "raise")

    def test_dead_worker_breaks_the_pool_without_hanging(self, population):
        start = time.perf_counter()
        with pytest.raises(BrokenProcessPool) as raised:
            self._faulty_batch(population, "exit")
        assert isinstance(raised.value, RuntimeError)
        # A hang guard, not a speed floor: detection takes well under a second.
        assert time.perf_counter() - start < 60.0

    def test_worker_plane_is_read_only(self, population):
        """A job cannot write to the plane, so it cannot leak state to the next job."""
        with pytest.raises(ValueError, match="read-only"):
            self._faulty_batch(population, "write")

    def test_unpicklable_objective_raises_under_spawn(self, population, monkeypatch):
        """No quiet in-parent run: a plane that cannot be pickled fails the call."""
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "process_start_method", lambda: "spawn")
        dca = DCA(
            ["protected"],
            ColumnScore("score"),
            k=0.2,
            objective=_UnpicklableObjective(("protected",)),
            config=FAST,
        )
        with pytest.raises(Exception, match="pickle"):
            dca.fit_many(population, seeds=(1, 2), executor="process", max_workers=2)


class TestObjectiveCache:
    """Batches compile through the process-wide cache, emptied around each test."""

    def test_batch_compiles_each_signature_once(self, population, cleared_objective_cache):
        cache = cleared_objective_cache
        _dca().fit_many(population, seeds=(1, 2, 3, 4))
        # The batch compiles each signature once, so it asks the cache once.
        assert cache.misses == 1
        assert cache.hits == 0
        assert len(cache) == 1

    def test_cache_persists_across_fit_many_calls(self, population, cleared_objective_cache):
        dca = _dca()
        dca.fit_many(population, ks=(0.1, 0.2))
        dca.fit_many(population, ks=(0.3, 0.4))
        assert cleared_objective_cache.misses == 1
        assert cleared_objective_cache.hits == 1

    def test_cached_results_identical_to_uncached(self, population, cleared_objective_cache):
        """A cold compile, a cache hit and the uncompiled table oracle agree bitwise."""
        dca = _dca()
        cold = dca.fit_many(population, seeds=(5, 6))
        warm = dca.fit_many(population, seeds=(5, 6))
        assert (cleared_objective_cache.misses, cleared_objective_cache.hits) == (1, 1)
        for seed, left, right in zip((5, 6), cold, warm):
            reference = oracle_fit(
                population,
                ColumnScore("score"),
                DisparityObjective(("protected",)),
                0.2,
                replace(FAST, seed=seed),
            )
            assert np.array_equal(left.result.raw_bonus.values, reference.raw_bonus.values)
            assert np.array_equal(right.result.raw_bonus.values, reference.raw_bonus.values)

    def test_distinct_populations_do_not_collide(self, population, cleared_objective_cache):
        other = population.take(np.arange(population.num_rows // 2))
        dca = _dca()
        dca.fit_many(population, seeds=(1,))
        dca.fit_many(other, seeds=(1,))
        assert cleared_objective_cache.misses == 2
        assert len(cleared_objective_cache) == 2

    def test_entries_evicted_when_population_dies(self, population, cleared_objective_cache):
        import gc

        mortal = population.take(np.arange(500))
        _dca().fit_many(mortal, seeds=(1,))
        assert len(cleared_objective_cache) == 1
        del mortal
        gc.collect()
        assert len(cleared_objective_cache) == 0

    def test_direct_compile_entry_dies_with_table(self, population):
        """The weakref contract holds for direct cache.compile() use too."""
        import gc

        cache = CompiledObjectiveCache()
        mortal = population.take(np.arange(400))
        objective = DisparityObjective(("protected",)).fit(mortal)
        cache.compile(objective, mortal)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        cache.compile(objective, mortal)
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        del mortal, objective
        gc.collect()
        assert len(cache) == 0

    def test_table_path_objective_does_not_pin_its_table(
        self, population, cleared_objective_cache
    ):
        """A signed objective with only the table path is never cached.

        Its compiled wrapper holds the table, so a cached wrapper would keep
        the weakly keyed entry, and the cohort, alive forever.
        """
        import gc
        import weakref

        cache = cleared_objective_cache
        mortal = population.take(np.arange(500))
        DCA(
            ["protected"],
            ColumnScore("score"),
            k=0.2,
            objective=_SignedTablePathObjective(("protected",)),
            config=FAST,
        ).fit_many(mortal, seeds=(1, 2))
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 0)
        alive = weakref.ref(mortal)
        del mortal
        gc.collect()
        assert alive() is None
        assert not cache._populations

    def test_dead_entry_not_resurrected_by_signature_collision(self, population):
        """A dead table's cache slot must never serve a successor population.

        Populations are keyed by ``id()``, which CPython recycles
        aggressively: a table allocated right after another dies frequently
        lands on the same address.  An equal objective signature on such a
        successor must be a cache *miss* compiled against the new table —
        resurrecting the dead entry's arrays would silently evaluate the
        wrong population.
        """
        import gc

        cache = CompiledObjectiveCache()
        first = population.take(np.arange(300))
        objective = DisparityObjective(("protected",)).fit(first)
        dead_matrix = cache.compile(objective, first)._matrix.copy()
        dead_id = id(first)
        del first, objective
        gc.collect()
        assert len(cache) == 0

        # Hunt for an id() collision; even without one the assertions below
        # still pin the fresh-compile behavior.
        collided = False
        for start in range(50):
            successor = population.take(np.arange(start, start + 300))
            if id(successor) == dead_id:
                collided = True
                break
        objective = DisparityObjective(("protected",)).fit(successor)
        misses_before = cache.misses
        compiled = cache.compile(objective, successor)
        assert cache.misses == misses_before + 1  # fresh compile, not a stale hit
        expected = objective.compile(successor)._matrix
        assert np.array_equal(compiled._matrix, expected)
        if collided:  # the recycled id really did point at different data
            assert not np.array_equal(compiled._matrix, dead_matrix)


class TestAmbientExecution:
    """``use_execution`` sets the backend once; ``fit_many`` reads it."""

    def test_fit_many_reads_the_ambient_backend(self, population, monkeypatch):
        dca = _dca()
        serial = dca.fit_many(population, seeds=(1, 2, 3))
        pooled = _spy_pool(monkeypatch)
        with use_execution("process", 2):
            assert current_execution() == ("process", 2)
            batch = dca.fit_many(population, seeds=(1, 2, 3))
        assert current_execution() == (None, None)
        assert pooled == [2]
        for left, right in zip(serial, batch):
            assert np.array_equal(left.result.raw_bonus.values, right.result.raw_bonus.values)

    def test_explicit_arguments_replace_the_ambient_pair(self, population, monkeypatch):
        import repro.core.dca as dca_module

        monkeypatch.setattr(dca_module, "usable_cores", lambda: 5)
        pooled = _spy_pool(monkeypatch)
        with use_execution("process", 2):
            _dca().fit_many(population, seeds=(1, 2), executor="serial")
            _dca().fit_many(population, seeds=(1, 2, 3), executor="process")
        # Serial stayed serial; the explicit pool took the default size, not the ambient 2.
        assert pooled == [3]

    @pytest.mark.parametrize(
        "executor, max_workers, message",
        [("thread", None, "executor"), (None, 0, "max_workers"), ("serial", 4, "serial")],
        ids=["unknown_executor", "zero_workers", "serial_with_pool_size"],
    )
    def test_use_execution_validates_on_entry(self, executor, max_workers, message):
        with pytest.raises(ValueError, match=message):
            with use_execution(executor, max_workers):
                raise AssertionError("the block ran with an invalid execution pair")
        assert current_execution() == (None, None)


class TestEagerValidation:
    """Bad worker counts, configs and fractions fail fast, before any pool exists."""

    @pytest.mark.parametrize("bad", [0, -3])
    def test_fit_many_rejects_bad_max_workers(self, school_train, rubric, school_attributes, bad):
        dca = DCA(school_attributes, rubric, k=0.05, config=FAST)
        with pytest.raises(ValueError, match="max_workers"):
            dca.fit_many(school_train.table, seeds=(1, 2), max_workers=bad)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            (FitSpec(config=replace(FAST, iterations=0)), "iterations must be positive"),
            (FitSpec(config=replace(FAST, learning_rates=(0.1, 1.0))), "decreasing order"),
            (FitSpec(k=1.5), "selection fraction"),
        ],
        ids=["zero_iterations", "increasing_learning_rates", "k_above_one"],
    )
    def test_every_backend_rejects_a_bad_job(
        self, population, monkeypatch, executor, spec, message
    ):
        import repro.core.dca as dca_module

        pools = []
        monkeypatch.setattr(
            dca_module, "execute_process_jobs", lambda *args: pools.append(args) or []
        )
        workers = 2 if executor == "process" else None
        with pytest.raises(ValueError, match=message):
            _dca().fit_many(population, specs=[spec], executor=executor, max_workers=workers)
        assert pools == []


class TestSharedColumnStore:
    """Copula buffer-fill tests (the class name keeps their test ids stable)."""

    def test_copula_sample_into_matches_sample(self):
        from repro.datasets.copula import GaussianCopula, binary_marginal, uniform_marginal

        copula = GaussianCopula(
            [binary_marginal("flag", 0.3), uniform_marginal("level", 0.0, 2.0)],
            np.array([[1.0, 0.4], [0.4, 1.0]]),
        )
        direct = copula.sample(500, np.random.default_rng(21))
        out = {"flag": np.empty(500), "level": np.empty(500)}
        copula.latent_and_sample_into(500, np.random.default_rng(21), out)
        assert np.array_equal(direct["flag"], out["flag"])
        assert np.array_equal(direct["level"], out["level"])

    def test_sample_into_rejects_bad_buffer_shape(self):
        from repro.datasets.copula import GaussianCopula, binary_marginal

        copula = GaussianCopula([binary_marginal("flag", 0.3)], np.eye(1))
        with pytest.raises(ValueError, match="shape"):
            copula.latent_and_sample_into(
                100, np.random.default_rng(0), {"flag": np.empty(99)}
            )
