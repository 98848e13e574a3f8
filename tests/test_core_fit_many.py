"""Tests for the batched DCA.fit_many API, its execution backends and shared-memory planes."""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    DCA,
    CompiledObjective,
    CompiledObjectiveCache,
    DCAConfig,
    DisparityObjective,
    DisparityResult,
    ExposureGapObjective,
    FairnessObjective,
    FitSpec,
    SharedColumnStore,
)
from repro.ranking import ColumnScore, selection_mask
from repro.tabular import Table


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

    def test_max_workers_alone_selects_process(self, population, monkeypatch):
        calls = []
        original = DCA._fit_many_process

        def spy(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DCA, "_fit_many_process", spy)
        _dca().fit_many(population, seeds=(1, 2), max_workers=2)
        assert len(calls) == 1
        _dca().fit_many(population, seeds=(1, 2))
        assert len(calls) == 1  # no max_workers: serial

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

    def test_process_falls_back_for_signatureless_objectives(self, population):
        """Custom objectives without a signature run in the parent, same results."""
        objective = _SignatureLessObjective(("protected",))
        assert objective.signature() is None
        specs = [FitSpec(seed=1, objective=objective), FitSpec(seed=2)]
        serial = _dca().fit_many(population, specs=specs)
        process = _dca().fit_many(population, specs=specs, executor="process")
        for left, right in zip(serial, process):
            assert np.array_equal(
                left.result.raw_bonus.values, right.result.raw_bonus.values
            )

    def test_process_falls_back_for_table_engine_jobs(self, population):
        """engine="table" jobs cannot ride the array plane; results still match."""
        specs = [
            FitSpec(seed=1, config=replace(FAST, engine="table")),
            FitSpec(seed=1),
        ]
        serial = _dca().fit_many(population, specs=specs)
        process = _dca().fit_many(population, specs=specs, executor="process")
        for left, right in zip(serial, process):
            assert np.array_equal(
                left.result.raw_bonus.values, right.result.raw_bonus.values
            )
        # And the table-engine job agrees with the array-engine job (the
        # engines are bitwise equivalent for the same seed).
        assert np.array_equal(
            process[0].result.raw_bonus.values, process[1].result.raw_bonus.values
        )


class _WorkerFault(Exception):
    """Raised by :class:`_FaultyCompiled` inside a pool worker."""


class _FaultyCompiled(CompiledObjective):
    """An exportable compiled objective whose evaluate fails in the worker.

    ``fault="raise"`` raises :class:`_WorkerFault`; ``fault="exit"`` kills
    the worker process outright.  The parent only compiles and exports it,
    so the fault fires on the pool side.
    """

    def __init__(self, membership: np.ndarray, fault: str) -> None:
        self._membership = membership
        self._fault = fault

    def evaluate(self, indices, scores, k):
        if self._fault == "exit":
            os._exit(3)
        raise _WorkerFault(f"evaluate failed on {len(scores)} rows")

    def export_state(self):
        return {"membership": self._membership}, {"fault": self._fault}

    @classmethod
    def from_state(cls, arrays, metadata):
        return cls(arrays["membership"], metadata["fault"])


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
    """The process backend's failure contract.

    The autouse shm sanitizer additionally proves the plane is unlinked on
    both failure paths.
    """

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


class TestObjectiveCache:
    def test_batch_compiles_each_signature_once(self, population):
        cache = CompiledObjectiveCache()
        dca = DCA(
            ["protected"], ColumnScore("score"), k=0.2, config=FAST, objective_cache=cache
        )
        dca.fit_many(population, seeds=(1, 2, 3, 4))
        assert cache.misses == 1
        assert cache.hits == 3
        assert len(cache) == 1

    def test_cache_persists_across_fit_many_calls(self, population):
        cache = CompiledObjectiveCache()
        dca = DCA(
            ["protected"], ColumnScore("score"), k=0.2, config=FAST, objective_cache=cache
        )
        dca.fit_many(population, ks=(0.1, 0.2))
        dca.fit_many(population, ks=(0.3, 0.4))
        assert cache.misses == 1
        assert cache.hits == 3

    def test_cached_results_identical_to_uncached(self, population):
        cached = DCA(
            ["protected"],
            ColumnScore("score"),
            k=0.2,
            config=FAST,
            objective_cache=CompiledObjectiveCache(),
        ).fit_many(population, seeds=(5, 6))
        plain = [
            DCA(
                ["protected"], ColumnScore("score"), k=0.2, config=replace(FAST, seed=seed)
            ).fit(population)
            for seed in (5, 6)
        ]
        for entry, solo in zip(cached, plain):
            assert np.array_equal(entry.result.raw_bonus.values, solo.raw_bonus.values)

    def test_distinct_populations_do_not_collide(self, population):
        cache = CompiledObjectiveCache()
        other = population.take(np.arange(population.num_rows // 2))
        dca = DCA(
            ["protected"], ColumnScore("score"), k=0.2, config=FAST, objective_cache=cache
        )
        dca.fit_many(population, seeds=(1,))
        dca.fit_many(other, seeds=(1,))
        assert cache.misses == 2
        assert len(cache) == 2

    def test_entries_evicted_when_population_dies(self, population):
        import gc

        cache = CompiledObjectiveCache()
        mortal = population.take(np.arange(500))
        DCA(
            ["protected"], ColumnScore("score"), k=0.2, config=FAST, objective_cache=cache
        ).fit_many(mortal, seeds=(1,))
        assert len(cache) == 1
        del mortal
        gc.collect()
        assert len(cache) == 0

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


class TestEagerValidation:
    """Zero/negative worker counts fail fast, before any pool exists."""

    @pytest.mark.parametrize("bad", [0, -3])
    def test_fit_many_rejects_bad_max_workers(self, school_train, rubric, school_attributes, bad):
        dca = DCA(school_attributes, rubric, k=0.05, config=FAST)
        with pytest.raises(ValueError, match="max_workers"):
            dca.fit_many(school_train.table, seeds=(1, 2), max_workers=bad)


class TestSharedColumnStore:
    def test_round_trip_and_table_views(self):
        with SharedColumnStore(100, ("a", "b")) as store:
            store.view("a")[...] = np.arange(100, dtype=float)
            store.view("b")[...] = np.ones(100)
            table = store.table()
            assert np.array_equal(table.numeric("a"), np.arange(100, dtype=float))
            # Continuous float columns are zero-copy views into the segment.
            store.view("a")[0] = 41.0
            assert table.numeric("a")[0] == 41.0

    def test_validation(self):
        # Both constructors raise before any segment exists, so there is
        # nothing to close — statically unverifiable, hence the disables.
        with pytest.raises(ValueError, match="num_rows"):
            SharedColumnStore(0, ("a",))  # repro-lint: disable=R2
        with pytest.raises(ValueError, match="column name"):
            SharedColumnStore(10, ())  # repro-lint: disable=R2

    def test_shared_cohort_bitwise_identical_to_plain(self):
        from repro.datasets import SchoolGeneratorConfig, generate_school_cohort

        config = SchoolGeneratorConfig(num_students=2000)
        plain = generate_school_cohort("store-test", config, seed=13)
        shared = generate_school_cohort("store-test", config, seed=13, shared=True)
        try:
            assert shared.store is not None
            for name in (
                "student_id", "gpa", "test_scores", "grade_ela", "test_math",
                "absences", "district", "low_income", "ell", "special_ed", "eni",
            ):
                assert np.array_equal(plain.table.numeric(name), shared.table.numeric(name)), name
        finally:
            shared.close()
        plain.close()  # no-op for unshared cohorts

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
