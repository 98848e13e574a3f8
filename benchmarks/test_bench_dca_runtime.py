"""Benchmark: DCA fit time and its independence from the dataset size.

Section IV-D argues that DCA's runtime depends on the sample size — governed
by ``max(1/k, 1/r)`` — rather than on the dataset size.  This benchmark times
a single DCA fit at the default setting on cohorts of different sizes and
checks that the fit time grows far more slowly than the data (it is not
strictly constant because scoring the cohort once and the top-k evaluation of
samples retain a mild dependence).

Every test records its wall-clocks into ``BENCH_dca_runtime.json``.  The
floors (the quick profile's speedup over the table oracle, the 30 s fit and
the sublinear growth, calibrated on 2 cores) gate only under
``REPRO_BENCH_ENFORCE=1`` (see ``floors_enforced``); the bitwise identity
against the oracle always runs.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from _bench_record import floors_enforced, record_bench, usable_cores
from repro.core import DCA, DCAConfig, DisparityObjective
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)

from conftest import run_once

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "_dca_table_oracle.py"
_spec = importlib.util.spec_from_file_location("_dca_table_oracle", _ORACLE_PATH)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)


def _fit_once(num_students: int, seed: int = 7, oracle: bool = False):
    cohort = generate_school_cohort("bench", SchoolGeneratorConfig(num_students=num_students), seed=3)
    config = DCAConfig(seed=seed)
    start = time.perf_counter()
    if oracle:
        result = _oracle.oracle_fit(
            cohort.table,
            school_admission_rubric(),
            DisparityObjective(SCHOOL_FAIRNESS_ATTRIBUTES),
            0.05,
            config,
        )
    else:
        dca = DCA(SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), k=0.05, config=config)
        result = dca.fit(cohort.table)
    return time.perf_counter() - start, result


def test_dca_array_engine_quick_profile_5k():
    """Quick-profile smoke on the paper's 5k-student cohort (the CI perf canary).

    The array step loop produces bonus vectors bitwise identical to the
    table-slicing test oracle (``tests/_dca_table_oracle.py``) on the very
    same fit, checked on every run, and both best-of-three wall-clocks are
    recorded into ``BENCH_dca_runtime.json``.  Under
    ``REPRO_BENCH_ENFORCE=1`` (the CI bench job) the array loop must also
    beat the oracle by a clear margin: a relative floor, calibrated on one
    core, so it stays meaningful on slow runners.
    """
    array_seconds, array_result = min(
        (_fit_once(5_000) for _ in range(3)), key=lambda pair: pair[0]
    )
    table_seconds, table_result = min(
        (_fit_once(5_000, oracle=True) for _ in range(3)), key=lambda pair: pair[0]
    )
    assert np.array_equal(array_result.raw_bonus.values, table_result.raw_bonus.values)
    record_bench(
        "dca_runtime",
        {
            "quick_profile_array_seconds": round(array_seconds, 4),
            "quick_profile_table_oracle_seconds": round(table_seconds, 4),
            "quick_profile": {"speedup": round(table_seconds / array_seconds, 3)},
        },
        context={"students": 5_000, "repeats": 3, "cores": usable_cores()},
    )
    if floors_enforced():
        assert array_seconds * 1.5 < table_seconds


def test_dca_fit_runtime_default_setting(benchmark, bench_students):
    seconds, _ = run_once(benchmark, _fit_once, bench_students)
    record_bench(
        "dca_runtime",
        {"default_fit_seconds": round(seconds, 4)},
        context={"default_fit_students": bench_students, "cores": usable_cores()},
    )
    # The paper reports ≈10s on 80k students with their Python/Pandas setup;
    # this implementation should fit well within that on the reduced cohort.
    if floors_enforced():
        assert seconds < 30.0


def test_dca_fit_time_sublinear_in_dataset_size():
    small = min(_fit_once(10_000, seed=s)[0] for s in (1, 2))
    large = min(_fit_once(40_000, seed=s)[0] for s in (1, 2))
    record_bench(
        "dca_runtime",
        {
            "sublinear": {
                "seconds_10k": round(small, 4),
                "seconds_40k": round(large, 4),
                "ratio": round(large / small, 3),
            }
        },
        context={"cores": usable_cores()},
    )
    # 4x more data must cost far less than 4x more time (sampling-based fit).
    if floors_enforced():
        assert large < small * 3.0
