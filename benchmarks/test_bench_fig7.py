"""Benchmark: Figure 7 — accuracy vs disparity for DCA and the (Δ+2)-approximation."""

from __future__ import annotations

import warnings

from repro.experiments import fig7_delta2

from conftest import run_once


def test_fig7_dca_vs_delta_two(benchmark, bench_students):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_once(
            benchmark,
            fig7_delta2.run,
            num_students=bench_students,
            proportions=[0.25, 0.5, 0.75, 1.0],
        )
    # DCA's own composition is always feasible: (Δ+2) never relaxes it.
    assert not [w for w in caught if "constraints infeasible" in str(w.message)]
    rows = result.table("fig 7: DCA vs (Δ+2)")
    dca = {row["proportion"]: row for row in rows if row["method"] == "DCA"}
    delta = {row["proportion"]: row for row in rows if row["method"] == "(Δ+2)"}

    # Paper shape: the two methods achieve very similar trade-offs.
    for proportion in dca:
        assert abs(dca[proportion]["disparity_norm"] - delta[proportion]["disparity_norm"]) < 0.12
        assert delta[proportion]["ndcg"] > 0.85
    # At full proportion both essentially eliminate disparity.
    assert dca[1.0]["disparity_norm"] < 0.1
    assert delta[1.0]["disparity_norm"] < 0.15
    print("\n" + result.format())
