"""Benchmark: (Δ+2) re-ranking by membership type against the reference loop.

One fig7 instance — the school training cohort at ``bench_students`` rows,
constraints copied from DCA's selection at bonus proportion 1.0, the three
binary fairness groups plus their complements — re-ranked twice: by
:meth:`repro.baselines.DeltaTwoReranker.rerank` (one score-ordered queue per
membership type) and by the original per-(position, item) scan kept as the
test oracle in ``tests/_delta_two_oracle.py``.

The two index sequences must be identical (``np.array_equal``) on every run.
Both wall-clocks, the instance shape (n, k, G groups, T distinct types) and
the core count land in ``BENCH_delta_two.json``; no wall-clock floor gates
the test.
"""

from __future__ import annotations

import importlib.util
import os
import time
import warnings
from pathlib import Path

import numpy as np

from _bench_record import record_bench
from repro.baselines import DeltaTwoReranker, augment_with_complements, constraints_from_selection
from repro.core import DisparityObjective
from repro.core.calibration import proportion_sweep
from repro.experiments.setting import DEFAULT_K, SchoolSetting
from repro.ranking import selection_mask, selection_size

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "_delta_two_oracle.py"
_spec = importlib.util.spec_from_file_location("_delta_two_oracle", _ORACLE_PATH)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fig7_instance(num_students: int):
    setting = SchoolSetting(num_students=num_students)
    table = setting.train.table
    base = setting.base_scores("train")
    (point,) = proportion_sweep(
        table,
        setting.rubric,
        setting.fit_dca(DEFAULT_K).bonus,
        DisparityObjective(setting.fairness_attributes),
        DEFAULT_K,
        proportions=[1.0],
        granularity=setting.dca_config.granularity,
    )
    binary = tuple(name for name in setting.fairness_attributes if name != "eni")
    augmented, names = augment_with_complements(table, binary)
    constraints = constraints_from_selection(
        augmented,
        selection_mask(point.bonus.apply(table, base), DEFAULT_K),
        names,
        selection_size(table.num_rows, DEFAULT_K),
    )
    return augmented, base, constraints


def test_delta_two_by_type_identical_to_reference_loop(bench_students):
    table, scores, constraints = _fig7_instance(bench_students)
    reranker = DeltaTwoReranker(constraints)

    with warnings.catch_warnings():
        # DCA's own composition is feasible: no position may be relaxed.
        warnings.simplefilter("error")
        start = time.perf_counter()
        fast = reranker.rerank(table, scores)
        fast_seconds = time.perf_counter() - start
    start = time.perf_counter()
    expected = _oracle.reference_rerank(constraints, table, scores)
    oracle_seconds = time.perf_counter() - start

    assert np.array_equal(fast, expected)
    bits = np.column_stack([table.numeric(name) > 0.5 for name in constraints.group_names])
    record_bench(
        "delta_two",
        {
            "fast_seconds": round(fast_seconds, 4),
            "oracle_seconds": round(oracle_seconds, 4),
            "speedup": round(oracle_seconds / fast_seconds, 3),
        },
        context={
            "n": table.num_rows,
            "k": constraints.k,
            "groups": len(constraints.group_names),
            "types": len(np.unique(bits, axis=0)),
            "proportion": 1.0,
            "cores": _usable_cores(),
        },
    )
    print(
        f"\n(Δ+2) n={table.num_rows} k={constraints.k}: by type {fast_seconds:.3f}s, "
        f"reference loop {oracle_seconds:.2f}s ({oracle_seconds / fast_seconds:.0f}x)"
    )
