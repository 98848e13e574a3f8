"""Benchmark: the fit_many execution backends on a district-size cohort.

The process backend hands each worker the population plane once, through
the pool initializer — base scores, attribute matrix, and the compiled
objective, inherited copy-on-write under ``fork`` — and every chunk of a
stream group ships as a tiny descriptor, which parallelizes the
Python-level step loop across cores.

Two grids pin the backend contract:

* a seeded 8-job *seed* grid (one job per seed, so no two jobs share a
  sample stream): the process backend is **bitwise identical** to the
  serial backend and to a thread pool running the same serial jobs (always
  checked), and the three wall-clocks are always recorded into
  ``BENCH_fit_many.json``.  Two floors, calibrated on two usable cores,
  gate under ``REPRO_BENCH_ENFORCE=1`` (the CI bench job): the process
  backend **beats the serial backend** and **beats the thread pool** — the
  library has no thread backend because the step loop holds the GIL
  between NumPy kernels, and this pins the reason.  Both floors are
  relative and skip on a single usable core (there is nothing to
  parallelize onto);
* the paper's *sweep* grid (one seed x ``DEFAULT_K_SWEEP``), whose jobs all
  draw one sample stream and run in lockstep: serial, process and a
  sequence of independent ``DCA.fit`` calls are **bitwise identical**
  (always checked), and the three wall-clocks are recorded, with the core
  count, into ``BENCH_fit_many.json`` — no wall-clock floor.
"""

from __future__ import annotations

import concurrent.futures
import os
import time

import numpy as np
import pytest

from _bench_record import floors_enforced, record_bench, usable_cores
from repro.core import DCA, DCAConfig
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)
from repro.experiments import DEFAULT_K_SWEEP

#: Cohort size for the backend comparison (the acceptance floor is 20k rows).
FITMANY_STUDENTS = int(os.environ.get("REPRO_BENCH_FITMANY_STUDENTS", "20000"))

#: Number of jobs in the grid (the acceptance floor is 8).
FITMANY_JOBS = int(os.environ.get("REPRO_BENCH_FITMANY_JOBS", "8"))

#: Per-fit work sized so one fit takes a few hundred milliseconds: large
#: samples and a longer refinement make the per-step loop the dominant cost,
#: which is exactly the regime the process backend exists for.
FITMANY_CONFIG = DCAConfig(seed=1, sample_size=4000, iterations=150, refinement_iterations=300)


@pytest.fixture(scope="module")
def cohort():
    config = SchoolGeneratorConfig(num_students=FITMANY_STUDENTS)
    return generate_school_cohort("bench-fit-many", config, seed=3)


@pytest.fixture(scope="module")
def dca():
    return DCA(
        SCHOOL_FAIRNESS_ATTRIBUTES,
        school_admission_rubric(),
        k=0.05,
        config=FITMANY_CONFIG,
    )


def _run(dca, table, executor: str, workers: int | None = None):
    start = time.perf_counter()
    batch = dca.fit_many(
        table, seeds=range(FITMANY_JOBS), executor=executor, max_workers=workers
    )
    return time.perf_counter() - start, batch


def _run_threaded(dca, table, workers: int):
    """The same jobs as ``_run``, each a serial fit on a thread pool."""
    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        batch = list(
            pool.map(
                lambda seed: dca.fit_many(table, seeds=[seed], executor="serial")[0],
                range(FITMANY_JOBS),
            )
        )
    return time.perf_counter() - start, batch


def _assert_bitwise_equal(left, right) -> None:
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert np.array_equal(a.result.raw_bonus.values, b.result.raw_bonus.values)
        assert np.array_equal(a.result.bonus.values, b.result.bonus.values)
        assert np.array_equal(a.result.core_bonus.values, b.result.core_bonus.values)


def test_process_backend_bitwise_identical_to_serial(dca, cohort):
    """The acceptance pin: pool workers drift by not one bit."""
    assert cohort.table.num_rows >= 20_000
    assert FITMANY_JOBS >= 8
    _, serial = _run(dca, cohort.table, "serial")
    _, process = _run(dca, cohort.table, "process")
    _assert_bitwise_equal(serial, process)


def _best_of_two(run):
    """The faster of two runs, which keeps a comparison stable on noisy runners."""
    return min((run() for _ in range(2)), key=lambda pair: pair[0])


def _gate_floor(faster: float, slower: float, message: str) -> None:
    """The wall-clock floor ``faster < slower``, gated by ``REPRO_BENCH_ENFORCE=1``.

    Calibrated on two usable cores; on one there is nothing to parallelize
    onto, so the floor skips there.
    """
    if not floors_enforced():
        return
    if usable_cores() < 2:
        pytest.skip("a backend floor needs at least two usable cores")
    assert faster < slower, message


def test_process_backend_beats_serial_backend(dca, cohort):
    """The plane workers out-run one process; the floor gates under REPRO_BENCH_ENFORCE=1.

    The timings are recorded and the batches compared bit for bit on every
    run; the floor is relative, so absolute machine speed does not matter.
    """
    workers = min(usable_cores(), FITMANY_JOBS)
    serial_seconds, serial_batch = _best_of_two(lambda: _run(dca, cohort.table, "serial"))
    process_seconds, process_batch = _best_of_two(
        lambda: _run(dca, cohort.table, "process", workers)
    )
    _assert_bitwise_equal(serial_batch, process_batch)
    record_bench(
        "fit_many",
        {
            "seed_grid_serial_seconds": round(serial_seconds, 4),
            "seed_grid_process_seconds": round(process_seconds, 4),
        },
        context={"seed_grid_jobs": FITMANY_JOBS, "seed_grid_workers": workers},
    )
    _gate_floor(
        process_seconds,
        serial_seconds,
        f"process backend ({process_seconds:.2f}s) should beat the serial backend "
        f"({serial_seconds:.2f}s) on {workers} workers / {FITMANY_JOBS} jobs",
    )


def test_process_backend_beats_thread_backend(dca, cohort):
    """The plane workers out-run a thread pool; the floor gates under REPRO_BENCH_ENFORCE=1.

    The timings are recorded and the batches compared bit for bit on every
    run; the floor is relative, so absolute machine speed does not matter.
    """
    workers = min(usable_cores(), FITMANY_JOBS)
    thread_seconds, thread_batch = _best_of_two(
        lambda: _run_threaded(dca, cohort.table, workers)
    )
    process_seconds, process_batch = _best_of_two(
        lambda: _run(dca, cohort.table, "process", workers)
    )
    _assert_bitwise_equal(thread_batch, process_batch)
    record_bench(
        "fit_many",
        {"seed_grid_thread_seconds": round(thread_seconds, 4)},
        context={"seed_grid_jobs": FITMANY_JOBS, "seed_grid_workers": workers},
    )
    _gate_floor(
        process_seconds,
        thread_seconds,
        f"process backend ({process_seconds:.2f}s) should beat the thread pool "
        f"({thread_seconds:.2f}s) on {workers} workers / {FITMANY_JOBS} jobs",
    )


#: Per-fit work of the sweep grid: the paper's default settings.
SWEEP_CONFIG = DCAConfig(seed=1)

#: Timed repetitions per path of the sweep grid; the median is recorded.
SWEEP_REPEATS = 3


def test_sweep_grid_lockstep_identity_and_record(cohort):
    """One seed x DEFAULT_K_SWEEP: serial == process == independent fits, timings recorded."""
    table = cohort.table
    dca = DCA(
        SCHOOL_FAIRNESS_ATTRIBUTES,
        school_admission_rubric(),
        k=max(DEFAULT_K_SWEEP),
        config=SWEEP_CONFIG,
    )
    workers = usable_cores()

    def sweep(executor: str):
        options = {"max_workers": workers} if executor == "process" else {}
        return dca.fit_many(table, ks=DEFAULT_K_SWEEP, executor=executor, **options)

    def independent():
        return [
            DCA(
                SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), k=k, config=SWEEP_CONFIG
            ).fit(table)
            for k in DEFAULT_K_SWEEP
        ]

    def timed(run):
        seconds = []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            output = run()
            seconds.append(time.perf_counter() - start)
        return float(np.median(seconds)), output

    serial_seconds, serial = timed(lambda: sweep("serial"))
    process_seconds, process = timed(lambda: sweep("process"))
    independent_seconds, fits = timed(independent)
    _assert_bitwise_equal(serial, process)
    for entry, fit in zip(serial, fits):
        assert np.array_equal(entry.result.core_bonus.values, fit.core_bonus.values)
        assert np.array_equal(entry.result.raw_bonus.values, fit.raw_bonus.values)
        assert np.array_equal(entry.result.bonus.values, fit.bonus.values)
        for trace, expected in zip(entry.result.traces, fit.traces):
            assert np.array_equal(trace.bonus_history, expected.bonus_history)
            assert np.array_equal(trace.objective_norms, expected.objective_norms)
    record_bench(
        "fit_many",
        {
            "sweep_serial_seconds": round(serial_seconds, 4),
            "sweep_process_seconds": round(process_seconds, 4),
            "sweep_independent_seconds": round(independent_seconds, 4),
            "lockstep": {"speedup": round(independent_seconds / serial_seconds, 3)},
        },
        context={
            "students": table.num_rows,
            "jobs": len(DEFAULT_K_SWEEP),
            "sample_size": serial[0].result.sample_size,
            "workers": workers,
            "cores": usable_cores(),
            "repeats": SWEEP_REPEATS,
        },
    )
