"""Benchmark: the sampled DCA step loop and its log-discounted kernel.

Section IV-D says a fit's cost is set by its per-step sample, not by the
dataset, so the cost of one step is the whole runtime.  This bench records
into ``BENCH_step_loop.json``:

* ``discounted_shift`` µs per call at 500, 5k, 20k and 200k rows (four
  attributes, distinct scores, the default grid), next to the
  one-``selection_mask``-per-fraction test oracle
  (``tests/_discounted_oracle.py``) on the same inputs;
* µs per step of a default log-discounted fit (``k = 0.5``, the whole
  default grid) and of a default Definition 3 disparity fit (``k = 0.05``),
  on 20k- and 200k-student cohorts.  A step's cost is the marginal one: the
  default fit's wall-clock minus that of the same fit cut to one step per
  phase, over the steps that differ, so scoring, compiling and publishing
  (recorded as ``setup_ms``, the cut fit's wall-clock) cancel out;
* the core count.

It records and never gates: the only assertion is that the kernel and its
oracle agree on the timed inputs.  Each figure is the median of
``REPEATS`` timed repetitions.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path

import numpy as np

from _bench_record import record_bench, usable_cores
from repro.core import DCA, DCAConfig, LogDiscountedDisparityObjective
from repro.core.disparity import column_means, default_k_grid, discounted_grid, discounted_shift
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "_discounted_oracle.py"
_spec = importlib.util.spec_from_file_location("_discounted_oracle", _ORACLE_PATH)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)

REPEATS = 5

#: Rows per kernel call, with the calls per timed repetition (about 0.1 s each).
KERNEL_CALLS = {500: 400, 5_000: 100, 20_000: 30, 200_000: 3}

FIT_STUDENTS = (20_000, 200_000)


def _median_us(function, calls: int) -> float:
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            function()
        seconds.append((time.perf_counter() - start) / calls)
    return round(statistics.median(seconds) * 1e6, 2)


def _kernel_us(rows: int, calls: int) -> dict[str, float]:
    rng = np.random.default_rng(rows)
    matrix = rng.uniform(size=(rows, 4))
    centroid = column_means(matrix)
    scores = rng.normal(size=rows)
    grid, weights = discounted_grid(default_k_grid())
    arguments = (matrix, centroid, scores, grid, weights)
    assert (
        discounted_shift(*arguments).tobytes()
        == _oracle.reference_discounted_shift(*arguments).tobytes()
    )
    return {
        "discounted_shift_us": _median_us(lambda: discounted_shift(*arguments), calls),
        "oracle_us": _median_us(lambda: _oracle.reference_discounted_shift(*arguments), calls),
    }


def _fit_seconds(table, k: float, objective, config: DCAConfig) -> tuple[float, int]:
    """Median wall-clock of a fit and the number of steps it ran."""
    rubric = school_admission_rubric()
    dca = DCA(SCHOOL_FAIRNESS_ATTRIBUTES, rubric, k=k, objective=objective, config=config)
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = dca.fit(table)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), sum(len(trace.objective_norms) for trace in result.traces)


def _step_cost(table, k: float, objective=None) -> dict[str, float]:
    full_seconds, full_steps = _fit_seconds(table, k, objective, DCAConfig(seed=1))
    cut_seconds, cut_steps = _fit_seconds(
        table, k, objective, DCAConfig(seed=1, iterations=1, refinement_iterations=0)
    )
    return {
        "step_us": round((full_seconds - cut_seconds) / (full_steps - cut_steps) * 1e6, 2),
        "setup_ms": round(cut_seconds * 1e3, 2),
    }


def test_step_loop_recorded():
    kernel = {f"rows_{rows}": _kernel_us(rows, calls) for rows, calls in KERNEL_CALLS.items()}
    fits = {}
    for students in FIT_STUDENTS:
        table = generate_school_cohort(
            "bench-step-loop", SchoolGeneratorConfig(num_students=students), seed=3
        ).table
        fits[f"students_{students}"] = {
            "log_discounted": _step_cost(
                table, 0.5, LogDiscountedDisparityObjective(SCHOOL_FAIRNESS_ATTRIBUTES)
            ),
            "disparity": _step_cost(table, 0.05),
        }
    record_bench(
        "step_loop",
        {"discounted_shift": kernel, "fit": fits},
        context={
            "repeats": REPEATS,
            "attributes": len(SCHOOL_FAIRNESS_ATTRIBUTES),
            "grid_fractions": len(default_k_grid()),
            "sample_size": DCAConfig().sample_size,
            "cores": usable_cores(),
        },
    )
