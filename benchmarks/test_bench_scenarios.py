"""Benchmark: the scenario stress sweep as a recorded envelope trajectory.

Runs the Monte-Carlo market-shape sweep at stress scale — every built-in
scenario, the matching engine on both proposing sides, a serial fit per
objective — and records the fairness/runtime envelopes into
``BENCH_scenarios.json`` via :func:`record_bench`.

One hard assertion rides along (the scenario-smoke CI step relies on it):
**engine-to-oracle identity**.  A recording spy wraps the driver's private
match entry point ``_match`` (the driver validates a market's preferences
once, then matches both sides); every match the sweep makes is replayed
through the pure-Python oracle (``tests/_da_reference_oracle.py``, loaded by
path) from the same preference matrix and compensated score plane, and must
come out identical on every generated market shape, both proposing sides.

The recorded ``speedup`` per scenario is the oracle's mean match time over
the engine's — the committed trajectory tracks how the engine's edge moves
across market shapes (tie storms and magnet-school tails are its hardest
inputs).
"""

from __future__ import annotations

import importlib.util
import os
import time
from pathlib import Path

import numpy as np

import repro.scenarios.driver as driver
from _bench_record import record_bench, usable_cores
from repro.scenarios import builtin_scenarios, run_scenario

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "_da_reference_oracle.py"
_spec = importlib.util.spec_from_file_location("_da_reference_oracle", _ORACLE_PATH)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)

#: Students per scenario at stress scale (tiny scenarios keep their size).
STRESS_STUDENTS = int(os.environ.get("REPRO_BENCH_SCENARIO_STUDENTS", "20000"))

#: Monte-Carlo trials per scenario.
STRESS_TRIALS = int(os.environ.get("REPRO_BENCH_SCENARIO_TRIALS", "1"))


def _replay_through_oracle(name: str, calls) -> list[float]:
    """Assert the oracle reproduces every recorded match; return its seconds."""
    seconds = []
    for args, kwargs, match in calls:
        start = time.perf_counter()
        oracle = _oracle.reference_deferred_acceptance(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
        where = f"{name} ({kwargs}): the engine differs from the oracle"
        assert np.array_equal(match.assignment, oracle.assignment), where
        assert np.array_equal(match.matched_rank, oracle.matched_rank), where
        assert match.rosters == oracle.rosters, where
        assert match.proposals_made == oracle.proposals_made, where
    return seconds


def test_scenario_sweep_envelopes_and_identity(monkeypatch):
    calls = []
    engine = driver._match

    def spy(preferences, school_rankings, capacities, proposing):
        match = engine(preferences, school_rankings, capacities, proposing)
        args = (preferences.matrix, school_rankings, capacities)
        calls.append((args, {"proposing": proposing}, match))
        return match

    monkeypatch.setattr(driver, "_match", spy)
    metrics = {}
    total_students = 0
    for config in builtin_scenarios():
        # The tiny-district shape IS the small market; everything else runs
        # at stress scale.
        if config.name != "tiny_district":
            config = config.scaled(num_students=STRESS_STUDENTS)
        total_students += config.num_students
        calls.clear()
        envelope = run_scenario(config, trials=STRESS_TRIALS)
        sides = {kwargs["proposing"] for _, kwargs, _ in calls}
        assert sides == {"students", "schools"}, f"{config.name}: matched sides {sides}"
        reference_seconds = _replay_through_oracle(config.name, calls)
        runtime = envelope.runtime
        vector_seconds = runtime["match_seconds"]["mean"]
        metrics[config.name] = {
            "students": config.num_students,
            "ddp_after": envelope.fairness["ddp_after"]["mean"],
            "disparity_after": envelope.fairness["disparity_norm_after"]["mean"],
            "fit_serial_seconds": runtime["fit_serial_seconds"]["mean"],
            "match_vector_seconds": vector_seconds,
            "match_reference_seconds": float(np.mean(reference_seconds)),
            "speedup": float(np.mean(reference_seconds)) / max(vector_seconds, 1e-9),
            "engines_identical": 1,
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
