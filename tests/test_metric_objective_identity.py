"""Each reported fairness metric and the DCA objective built on it agree bit for bit.

The paper's explainability claim (Section VI-C5) is that DCA optimizes
exactly the number the tables report.  These tests pin that for the five
built-in objectives against the reporting functions of :mod:`repro.metrics`
and :mod:`repro.core.disparity`:

* disparate impact: ``±(1 − DI)``, signed by which side is selected more;
* false positive rates: the objective is the negated ``fpr_gaps``;
* exposure: the gap of the in-group and out-group average exposures;
* Definition 3 disparity, on the table path and on the array plane;
* the log-discounted disparity over a capped ``k`` grid.

Each also pins the built-in objective's table path to its compiled form, and
the rules that differ on degenerate inputs (an empty side, a group with no
negatives).  Populations are small and random, with heavily tied rounded
scores and groups that are sometimes empty or universal.  Values are compared
as bytes, so even the sign of a zero is pinned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DisparateImpactObjective,
    DisparityCalculator,
    DisparityObjective,
    ExposureGapObjective,
    FalsePositiveRateObjective,
    LogDiscountedDisparity,
    LogDiscountedDisparityObjective,
)
from repro.metrics import (
    average_group_exposure,
    ddp,
    disparate_impact,
    disparate_impact_by_attribute,
    fpr_gaps,
    group_exposure,
    group_false_positive_rates,
    position_values,
    selection_rates,
)
from repro.ranking import rank_positions, selection_mask, top_k_indices
from repro.tabular import Table

GROUPS = ("a", "b", "c")
LABEL = "outcome"
SEEDS = range(40)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _population(seed: int) -> tuple[Table, np.ndarray, float]:
    """A small random population with ties, degenerate groups and a random ``k``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    columns: dict[str, np.ndarray] = {}
    for name in GROUPS:
        kind = rng.integers(0, 6)
        if kind == 0:
            columns[name] = np.zeros(n)  # empty group
        elif kind == 1:
            columns[name] = np.ones(n)  # universal group (empty complement)
        else:
            columns[name] = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
    columns["income"] = np.round(rng.uniform(0.0, 50.0, n), 0)
    labels = rng.random(n) < rng.uniform(0.0, 1.0)
    if seed % 7 == 0:
        labels[:] = True  # no negatives anywhere
    columns[LABEL] = labels.astype(float)
    scores = np.round(rng.normal(0.0, 1.0, n), 1)  # rounding makes many ties
    if seed % 5 == 0:
        scores[:] = 1.0  # one big tie
    k = float(np.round(rng.uniform(0.01, 1.0), 3))
    return Table(columns), scores, k


def _members(table: Table) -> dict[str, np.ndarray]:
    return {name: table.numeric(name) > 0.5 for name in GROUPS}


@pytest.mark.parametrize("seed", SEEDS)
def test_disparate_impact_objective_is_the_signed_reported_ratio(seed):
    table, scores, k = _population(seed)
    reported = disparate_impact_by_attribute(table, scores, GROUPS, k)
    selected = selection_mask(scores, k)
    expected = []
    for name, member in _members(table).items():
        if member.all() or not member.any():
            assert reported[name] == 1.0
            with pytest.raises(ValueError):
                disparate_impact(member, selected)
            expected.append(0.0)
            continue
        assert _bits(reported[name]) == _bits(disparate_impact(member, selected))
        rate_in, rate_out = selection_rates(member, selected)
        if rate_in == 0.0 and rate_out == 0.0:
            expected.append(0.0)
            continue
        magnitude = 1.0 - reported[name]
        expected.append(magnitude if rate_in > rate_out else -magnitude)
    objective = DisparateImpactObjective(GROUPS)
    compiled = objective.compile(table).evaluate(None, scores, k)
    assert _bits(compiled) == _bits(expected)
    assert _bits(objective.evaluate(table, scores, k).vector) == _bits(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_false_positive_rate_objective_is_the_negated_reported_gap(seed):
    table, scores, k = _population(seed)
    gaps = fpr_gaps(table, scores, GROUPS, LABEL, k)
    rates = group_false_positive_rates(table, scores, GROUPS, LABEL, k)
    negatives = table.numeric(LABEL) <= 0.5
    expected = []
    for name, member in _members(table).items():
        if not (member & negatives).any():
            # No negatives in the group: the report reads rate 0, gap −overall,
            # while the objective leaves the group alone.
            assert rates[name] == 0.0
            expected.append(0.0)
            continue
        expected.append(0.0 - gaps[name])
    objective = FalsePositiveRateObjective(GROUPS, LABEL)
    compiled = objective.compile(table).evaluate(None, scores, k)
    assert _bits(compiled) == _bits(expected)
    assert _bits(objective.evaluate(table, scores, k).vector) == _bits(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_exposure_objective_is_the_reported_average_exposure_gap(seed):
    table, scores, k = _population(seed)
    values = position_values(scores.shape[0])[rank_positions(scores)]
    expected = []
    averages = []
    for member in _members(table).values():
        assert _bits(group_exposure(scores, member)) == _bits(values[member].sum())
        for side in (member, ~member):
            if side.any():
                averages.append(average_group_exposure(scores, side))
            else:
                with pytest.raises(ValueError):
                    average_group_exposure(scores, side)
        if member.all() or not member.any():
            expected.append(0.0)
            continue
        gap = average_group_exposure(scores, member) - average_group_exposure(scores, ~member)
        expected.append(float(np.clip(gap, -1.0, 1.0)))
    objective = ExposureGapObjective(GROUPS)
    compiled = objective.compile(table).evaluate(None, scores, k)
    assert _bits(compiled) == _bits(expected)
    assert _bits(objective.evaluate(table, scores, k).vector) == _bits(expected)
    # DDP skips the empty sides: each group contributes at least one.
    result = ddp(table, scores, GROUPS, include_complements=True)
    assert _bits(result) == _bits(max(averages) - min(averages))


@pytest.mark.parametrize("seed", SEEDS)
def test_disparity_objective_is_the_reported_definition_3(seed):
    table, scores, k = _population(seed)
    names = ("a", "income")
    calculator = DisparityCalculator(names).fit(table)
    reported = calculator.disparity(table, scores, k).vector
    objective = DisparityObjective(names).fit(table)
    compiled = objective.compile(table)
    assert _bits(compiled.evaluate(None, scores, k)) == _bits(reported)
    assert _bits(objective.evaluate(table, scores, k).vector) == _bits(reported)
    # A sample: the reported value over the sample's rows of the normalized
    # matrix equals the compiled evaluation at those indices.
    rng = np.random.default_rng(seed + 1000)
    rows = np.sort(rng.choice(table.num_rows, size=max(1, table.num_rows // 2), replace=False))
    matrix = calculator.normalized_matrix(table)
    sample = calculator.disparity_from_matrix(matrix[rows], scores[rows], k).vector
    assert _bits(compiled.evaluate(rows, scores[rows], k)) == _bits(sample)
    assert _bits(compiled.take(rows).evaluate(None, scores[rows], k)) == _bits(sample)
    mask = selection_mask(scores, k)
    assert _bits(calculator.disparity_from_mask(table, mask).vector) == _bits(reported)


@pytest.mark.parametrize("seed", SEEDS)
def test_log_discounted_objective_is_the_reported_discounted_disparity(seed):
    table, scores, k = _population(seed)
    names = ("b", "income")
    grid = (0.05, 0.1, 0.25, 0.5, 0.75)
    calculator = DisparityCalculator(names).fit(table)
    reported = LogDiscountedDisparity(calculator, k_grid=grid).disparity(table, scores, k)
    objective = LogDiscountedDisparityObjective(names, k_grid=grid).fit(table)
    compiled = objective.compile(table)
    assert _bits(compiled.evaluate(None, scores, k)) == _bits(reported.vector)
    assert _bits(objective.evaluate(table, scores, k).vector) == _bits(reported.vector)


def test_log_discounted_grid_cap_and_weights():
    calculator = DisparityCalculator(["a"])
    discounted = LogDiscountedDisparity(calculator, k_grid=(0.1, 0.2, 0.4))
    raw = 1.0 / np.log2(100.0 * np.asarray([0.1, 0.2, 0.4]) + 1.0)
    assert _bits(discounted.weights) == _bits(raw / raw.sum())
    table = Table({"a": [1, 0, 1, 0, 0, 1, 0, 0, 1, 0]})
    scores = np.arange(10, 0, -1, dtype=float)
    # A cap below the whole grid keeps the first fraction alone.
    below = discounted.disparity(table, scores, k=0.05).vector
    assert _bits(below) == _bits(calculator.fit(table).disparity(table, scores, 0.1).vector)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_ranking_order(seed):
    _, scores, k = _population(seed)
    n = scores.shape[0]
    reference = sorted(range(n), key=lambda i: (-scores[i], i))
    ranks = rank_positions(scores)
    assert [int(i) for i in np.argsort(ranks)] == reference
    top = top_k_indices(scores, k)
    assert top.tolist() == reference[: top.shape[0]]
    assert np.flatnonzero(selection_mask(scores, k)).tolist() == sorted(top.tolist())
