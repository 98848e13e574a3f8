"""Benchmark: ablations of the design choices the paper sets empirically.

Not a paper figure — these record how the sample-size rule, the learning-rate
schedule, and the rounding granularity affect accuracy and runtime, so
regressions in the defaults are caught.
"""

from __future__ import annotations

from repro.experiments import ablations

from conftest import run_once


def test_ablation_sample_size(benchmark, bench_students):
    result = run_once(benchmark, ablations.run_sample_size, num_students=bench_students)
    rows = result.table("sample-size ablation")
    by_size = {str(row["sample_size"]): row for row in rows}
    # Very small samples are noisier (worse or equal disparity) than the paper's 500.
    assert by_size["500"]["test_disparity_norm"] <= by_size["100"]["test_disparity_norm"] + 0.05
    # The rule-based size lands in a sensible range and performs comparably.
    rule_row = by_size["rule max(1/k,1/r)"]
    assert rule_row["test_disparity_norm"] < 0.15


def test_ablation_learning_rate_schedule(benchmark, bench_students):
    result = run_once(benchmark, ablations.run_schedule, num_students=bench_students)
    rows = {row["schedule"]: row for row in result.table("learning-rate schedule ablation")}
    # The paper's two-rate schedule performs at least as well as a single
    # small learning rate and comparably to a three-rate schedule.
    assert rows["paper (1.0, 0.1)"]["test_disparity_norm"] <= rows["single 0.1"]["test_disparity_norm"] + 0.05
    assert rows["paper (1.0, 0.1)"]["test_disparity_norm"] < 0.15


def test_ablation_granularity(benchmark, bench_students):
    result = run_once(benchmark, ablations.run_granularity, num_students=bench_students)
    rows = {row["granularity"]: row for row in result.table("granularity ablation")}
    # Coarser rounding can only degrade the residual disparity; the paper's
    # 0.5-point granularity stays close to the fine-grained optimum.
    assert rows[0.5]["test_disparity_norm"] <= rows[2.0]["test_disparity_norm"] + 0.05
    assert rows[0.5]["test_disparity_norm"] < rows[0.1]["test_disparity_norm"] + 0.08
