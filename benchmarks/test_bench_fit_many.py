"""Benchmark: the fit_many execution backends on a district-size cohort.

The process backend maps the population out of
``multiprocessing.shared_memory`` — base scores, attribute matrix, and the
compiled objective are placed in one segment and every job ships a tiny
job descriptor — which parallelizes the Python-level step loop across
cores.

Three assertions pin the backend contract:

* the process backend is **bitwise identical** to the serial backend on a
  seeded 8-job grid over a >= 20k-row cohort (always checked);
* the process backend **beats the serial backend** on the same grid, and
* it **beats a thread pool** running the same serial jobs — the library has
  no thread backend because the step loop holds the GIL between NumPy
  kernels, and this pins the reason.  Both are relative assertions,
  meaningful on any multi-core runner, skipped when the machine has a
  single usable core (there is nothing to parallelize onto).
"""

from __future__ import annotations

import concurrent.futures
import os
import time

import numpy as np
import pytest

from _bench_record import usable_cores
from repro.core import DCA, DCAConfig
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)

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


def test_process_backend_bitwise_identical_to_serial(dca, cohort):
    """The acceptance pin: shared-memory workers drift by not one bit."""
    assert cohort.table.num_rows >= 20_000
    assert FITMANY_JOBS >= 8
    _, serial = _run(dca, cohort.table, "serial")
    _, process = _run(dca, cohort.table, "process")
    _assert_bitwise_equal(serial, process)


@pytest.mark.skipif(
    usable_cores() < 2,
    reason="process-vs-serial comparison needs at least two usable cores",
)
def test_process_backend_beats_serial_backend(dca, cohort):
    """On a multi-core machine the plane workers must out-run one process.

    Best-of-two per backend keeps the comparison stable on noisy CI
    runners; the assertion stays relative, so absolute machine speed does
    not matter.
    """
    workers = min(usable_cores(), FITMANY_JOBS)
    serial_seconds, serial_batch = min(
        (_run(dca, cohort.table, "serial") for _ in range(2)),
        key=lambda pair: pair[0],
    )
    process_seconds, process_batch = min(
        (_run(dca, cohort.table, "process", workers) for _ in range(2)),
        key=lambda pair: pair[0],
    )
    _assert_bitwise_equal(serial_batch, process_batch)
    assert process_seconds < serial_seconds, (
        f"process backend ({process_seconds:.2f}s) should beat the serial backend "
        f"({serial_seconds:.2f}s) on {workers} workers / {FITMANY_JOBS} jobs"
    )


@pytest.mark.skipif(
    usable_cores() < 2,
    reason="process-vs-thread comparison needs at least two usable cores",
)
def test_process_backend_beats_thread_backend(dca, cohort):
    """On a multi-core machine the plane workers must out-run a thread pool.

    Best-of-two per backend keeps the comparison stable on noisy CI
    runners; the assertion stays relative, so absolute machine speed does
    not matter.
    """
    workers = min(usable_cores(), FITMANY_JOBS)
    thread_seconds, thread_batch = min(
        (_run_threaded(dca, cohort.table, workers) for _ in range(2)),
        key=lambda pair: pair[0],
    )
    process_seconds, process_batch = min(
        (_run(dca, cohort.table, "process", workers) for _ in range(2)),
        key=lambda pair: pair[0],
    )
    _assert_bitwise_equal(thread_batch, process_batch)
    assert process_seconds < thread_seconds, (
        f"process backend ({process_seconds:.2f}s) should beat the thread pool "
        f"({thread_seconds:.2f}s) on {workers} workers / {FITMANY_JOBS} jobs"
    )
