"""Benchmark: the scenario stress sweep as a recorded envelope trajectory.

Runs the Monte-Carlo market-shape sweep at stress scale — every built-in
scenario, both matching engines on both proposing sides, a serial fit
per objective — and records the fairness/runtime envelopes into
``BENCH_scenarios.json`` via :func:`record_bench`.

One hard assertion rides along (the scenario-smoke CI step relies on it):
**cross-engine identity** — the vector engine produced the reference
engine's matching on every generated market shape, both proposing sides.

The recorded ``speedup`` per scenario is the reference engine's match time
over the vector engine's — the committed trajectory tracks how the vector
engine's edge moves across market shapes (tie storms and magnet-school
tails are its hardest inputs).
"""

from __future__ import annotations

import os

from _bench_record import record_bench, usable_cores
from repro.scenarios import builtin_scenarios, run_scenario

#: Students per scenario at stress scale (tiny scenarios keep their size).
STRESS_STUDENTS = int(os.environ.get("REPRO_BENCH_SCENARIO_STUDENTS", "20000"))

#: Monte-Carlo trials per scenario.
STRESS_TRIALS = int(os.environ.get("REPRO_BENCH_SCENARIO_TRIALS", "1"))


def test_scenario_sweep_envelopes_and_identity():
    metrics = {}
    total_students = 0
    for config in builtin_scenarios():
        # The tiny-district shape IS the small market; everything else runs
        # at stress scale.
        if config.name != "tiny_district":
            config = config.scaled(num_students=STRESS_STUDENTS)
        total_students += config.num_students
        envelope = run_scenario(config, trials=STRESS_TRIALS)
        assert envelope.identity["engines_identical"] == 1, (
            f"{config.name}: engines disagreed: {envelope.identity}"
        )
        runtime = envelope.runtime
        metrics[config.name] = {
            "students": config.num_students,
            "ddp_after": envelope.fairness["ddp_after"]["mean"],
            "disparity_after": envelope.fairness["disparity_norm_after"]["mean"],
            "fit_serial_seconds": runtime["fit_serial_seconds"]["mean"],
            "match_vector_seconds": runtime["match_vector_seconds"]["mean"],
            "match_reference_seconds": runtime["match_reference_seconds"]["mean"],
            "speedup": (
                runtime["match_reference_seconds"]["mean"]
                / max(runtime["match_vector_seconds"]["mean"], 1e-9)
            ),
            **envelope.identity,
        }
    record_bench(
        "scenarios",
        metrics,
        context={
            "scenarios": len(metrics),
            "total_students": total_students,
            "trials": STRESS_TRIALS,
            "cores": usable_cores(),
        },
    )
