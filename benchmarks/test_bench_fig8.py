"""Benchmark: Figure 8 — effect and runtime of the DCA refinement step.

The refinement's effect on the residual disparity and the sample-size rule
are asserted on every run.  Fig 8b's per-k runtimes are recorded into
``BENCH_fig8.json``; its runtime ratio (a refined fit takes at least 0.8x
the unrefined one, calibrated on 2 cores) is a wall-clock floor, so it
gates only under ``REPRO_BENCH_ENFORCE=1`` (see ``floors_enforced``).
"""

from __future__ import annotations

import numpy as np

from _bench_record import floors_enforced, record_bench, usable_cores
from repro.experiments import fig8_refinement

from conftest import run_once


def test_fig8_refinement_effect_and_runtime(benchmark, bench_students, bench_k_sweep):
    result = run_once(
        benchmark,
        fig8_refinement.run,
        num_students=bench_students,
        k_values=bench_k_sweep,
    )
    disparity_rows = result.table("fig 8a: disparity with and without refinement")
    unrefined = [row["norm"] for row in disparity_rows if row["series"].startswith("Core")]
    refined = [row["norm"] for row in disparity_rows if row["series"].startswith("DCA")]
    # Paper shape: the refinement step improves the residual disparity (about
    # threefold in the paper) and smooths the curve.
    assert np.mean(refined) < np.mean(unrefined)
    assert max(refined) <= max(unrefined) + 0.02

    timings = result.table("fig 8b: runtime with and without refinement")
    record_bench(
        "fig8",
        {
            f"k={row['k']:g}": {
                "refined_seconds": round(row["refined_seconds"], 4),
                "unrefined_seconds": round(row["unrefined_seconds"], 4),
            }
            for row in timings
        },
        context={"students": bench_students, "cores": usable_cores()},
    )
    # The refined run does strictly more work than the unrefined one, and the
    # smallest k needs the largest sample (max(1/k, 1/r) rule).
    if floors_enforced():
        assert all(row["refined_seconds"] >= row["unrefined_seconds"] * 0.8 for row in timings)
    smallest_k = min(timings, key=lambda row: row["k"])
    largest_k = max(timings, key=lambda row: row["k"])
    assert smallest_k["sample_size"] >= largest_k["sample_size"]
    print("\n" + result.format())
