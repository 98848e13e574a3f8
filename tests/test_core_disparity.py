"""Unit tests for the Disparity metric and its log-discounted variant."""

from __future__ import annotations

import numpy as np
import pytest

from _discounted_oracle import reference_discounted_shift
from repro.core import (
    AttributeNormalizer,
    DisparityCalculator,
    DisparityResult,
    LogDiscountedDisparity,
    default_k_grid,
    disparity_norm,
    disparity_vector,
)
from repro.core.disparity import (
    column_means,
    discounted_grid,
    discounted_shift,
    selection_shift,
)
from repro.tabular import Table


class TestDisparityResult:
    def test_as_dict_and_norm(self):
        result = DisparityResult(("a", "b"), np.array([0.3, -0.4]))
        assert result.as_dict() == {"a": 0.3, "b": -0.4, "norm": pytest.approx(0.5)}

    def test_getitem(self):
        result = DisparityResult(("a",), np.array([0.1]))
        assert result["a"] == pytest.approx(0.1)
        with pytest.raises(KeyError):
            result["b"]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DisparityResult(("a", "b"), np.array([0.1]))


class TestAttributeNormalizer:
    def test_binary_attributes_pass_through(self):
        table = Table({"flag": [0, 1, 1, 0]})
        normalizer = AttributeNormalizer(["flag"]).fit(table)
        assert normalizer.transform(table)[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_continuous_attribute_scaled_by_range(self):
        table = Table({"income": [0.0, 100_000.0, 200_000.0]})
        normalizer = AttributeNormalizer(["income"]).fit(table)
        assert normalizer.transform(table)[:, 0].tolist() == pytest.approx([0.0, 0.5, 1.0])

    def test_unfitted_clips_to_unit_interval(self):
        table = Table({"x": [-1.0, 0.5, 2.0]})
        normalizer = AttributeNormalizer(["x"])
        assert normalizer.transform(table)[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_bounds_require_fit(self):
        with pytest.raises(RuntimeError):
            AttributeNormalizer(["x"]).bounds()

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            AttributeNormalizer([])

    def test_new_data_uses_training_bounds(self):
        train = Table({"income": [0.0, 100.0]})
        other = Table({"income": [50.0, 200.0]})
        normalizer = AttributeNormalizer(["income"]).fit(train)
        transformed = normalizer.transform(other)[:, 0]
        assert transformed.tolist() == [0.5, 1.0]  # clipped at the training max


class TestDisparityCalculator:
    def test_paper_worked_example(self):
        """Population 30% low-income, selection 20% low-income → disparity -0.1."""
        population = [1] * 30 + [0] * 70
        # Scores such that exactly 10 objects are selected, 2 of them low-income.
        scores = [0.0] * 100
        selected_indices = list(range(0, 2)) + list(range(30, 38))
        for index in selected_indices:
            scores[index] = 10.0
        table = Table({"low_income": population})
        calculator = DisparityCalculator(["low_income"]).fit(table)
        result = calculator.disparity(table, np.asarray(scores), 0.1)
        assert result["low_income"] == pytest.approx(-0.1)

    def test_parity_gives_zero(self):
        table = Table({"flag": [1, 0] * 10})
        scores = np.array([1.0, 1.0] * 10)  # every pair ranks together
        calculator = DisparityCalculator(["flag"]).fit(table)
        result = calculator.disparity(table, scores, 0.5)
        assert result["flag"] == pytest.approx(0.0)

    def test_extreme_disparity_bounds(self):
        # All selected objects are protected, none of the rest are.
        table = Table({"flag": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]})
        scores = np.array([10.0, 9.0] + [1.0] * 8)
        calculator = DisparityCalculator(["flag"]).fit(table)
        result = calculator.disparity(table, scores, 0.2)
        assert result["flag"] == pytest.approx(1.0 - 0.2)
        assert -1.0 <= result["flag"] <= 1.0

    def test_sign_convention(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        result = calculator.disparity(toy_table, toy_table.numeric("score"), 0.3)
        assert result["protected"] < 0  # under-represented at the top

    def test_continuous_attribute_normalized(self, toy_table):
        calculator = DisparityCalculator(["income"]).fit(toy_table)
        result = calculator.disparity(toy_table, toy_table.numeric("score"), 0.3)
        assert result["income"] > 0  # high earners over-represented
        assert result["income"] <= 1.0

    def test_score_shape_validation(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        with pytest.raises(ValueError):
            calculator.disparity(toy_table, np.zeros(3), 0.3)

    def test_empty_table_rejected(self):
        calculator = DisparityCalculator(["flag"])
        with pytest.raises(ValueError):
            calculator.disparity(Table({"flag": []}), np.array([]), 0.5)

    def test_disparity_from_mask_matches_topk(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        scores = toy_table.numeric("score")
        from repro.ranking import selection_mask

        by_k = calculator.disparity(toy_table, scores, 0.3)
        by_mask = calculator.disparity_from_mask(toy_table, selection_mask(scores, 0.3))
        assert by_k.vector.tolist() == pytest.approx(by_mask.vector.tolist())

    def test_disparity_from_mask_empty_selection(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        with pytest.raises(ValueError):
            calculator.disparity_from_mask(toy_table, np.zeros(10, dtype=bool))

    def test_disparity_curve_keys(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        curve = calculator.disparity_curve(toy_table, toy_table.numeric("score"), [0.2, 0.5])
        assert set(curve) == {0.2, 0.5}

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            DisparityCalculator([])


class TestDefaultKGrid:
    def test_default_grid(self):
        grid = default_k_grid()
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.5)
        assert len(grid) == 10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            default_k_grid(max_k=0.0)
        with pytest.raises(ValueError):
            default_k_grid(max_k=0.5, step=0.6)


class TestLogDiscountedDisparity:
    def test_weights_sum_to_one_and_decrease(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        discounted = LogDiscountedDisparity(calculator, k_grid=[0.1, 0.2, 0.3])
        weights = discounted.weights
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] > weights[1] > weights[2]

    def test_value_is_weighted_average(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        scores = toy_table.numeric("score")
        grid = [0.2, 0.4]
        discounted = LogDiscountedDisparity(calculator, k_grid=grid)
        expected = np.zeros(1)
        weights = discounted.weights
        for weight, k in zip(weights, grid):
            expected += weight * calculator.disparity(toy_table, scores, k).vector
        assert discounted.disparity(toy_table, scores).vector == pytest.approx(expected)

    def test_k_cap_restricts_grid(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        discounted = LogDiscountedDisparity(calculator, k_grid=[0.1, 0.2, 0.5])
        capped = discounted.disparity(toy_table, toy_table.numeric("score"), k=0.25)
        only_small = LogDiscountedDisparity(calculator, k_grid=[0.1, 0.2])
        uncapped = only_small.disparity(toy_table, toy_table.numeric("score"))
        assert capped.vector == pytest.approx(uncapped.vector)

    def test_invalid_grid(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        with pytest.raises(ValueError):
            LogDiscountedDisparity(calculator, k_grid=[])
        with pytest.raises(ValueError):
            LogDiscountedDisparity(calculator, k_grid=[0.0, 0.5])

    def test_bounded_in_unit_interval(self, toy_table):
        calculator = DisparityCalculator(["protected"]).fit(toy_table)
        discounted = LogDiscountedDisparity(calculator)
        value = discounted.disparity(toy_table, toy_table.numeric("score"))
        assert -1.0 <= value["protected"] <= 1.0


class TestFunctionalHelpers:
    def test_disparity_vector_one_shot(self, toy_table):
        result = disparity_vector(toy_table, toy_table.numeric("score"), ["protected"], 0.3)
        assert result["protected"] < 0

    def test_disparity_norm_non_negative(self, toy_table):
        assert disparity_norm(toy_table, toy_table.numeric("score"), ["protected"], 0.3) >= 0.0


def _scores(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Scores of one of the shapes the discounted kernel is pinned on."""
    if kind == "distinct":
        return rng.normal(size=n)
    if kind == "ties":
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "nan":
        scores = rng.integers(0, 4, size=n).astype(float)
        scores[rng.uniform(size=n) < 0.3] = np.nan
        return scores
    if kind == "inf":
        return rng.choice([-np.inf, np.inf, 0.0, -0.0, 1.5], size=n)
    return np.full(n, 0.25)  # all equal


#: (grid, cap) pairs: the default grid uncapped and capped, a cap below the
#: first grid point, and an unsorted custom grid uncapped and capped.
_GRIDS = [
    (default_k_grid(), None),
    (default_k_grid(), 0.2),
    (default_k_grid(), 0.01),
    ((0.3, 0.05, 0.5, 0.1), None),
    ((0.3, 0.05, 0.5, 0.1), 0.2),
]


class TestDiscountedShiftOracle:
    """The rank-once kernel equals one ``selection_mask`` per fraction, byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 19, 500, 5_000, 200_000])
    @pytest.mark.parametrize("kind", ["distinct", "ties", "nan", "inf", "equal"])
    def test_matches_per_fraction_oracle(self, n, kind):
        rng = np.random.default_rng(n)
        matrix = rng.uniform(size=(n, 3))
        centroid = column_means(matrix)
        scores = _scores(kind, n, rng)
        for k_grid, k in _GRIDS:
            grid, weights = discounted_grid(k_grid, k)
            expected = reference_discounted_shift(matrix, centroid, scores, grid, weights)
            actual = discounted_shift(matrix, centroid, scores, grid, weights)
            assert actual.tobytes() == expected.tobytes(), (k_grid, k)


class TestRowCountChecks:
    """A gather by ``compress``/``take`` would not notice a wrong length: the kernels do."""

    @pytest.mark.parametrize("length", [9, 11])
    def test_selection_shift_rejects_wrong_length_mask(self, length):
        matrix = np.random.default_rng(1).uniform(size=(10, 2))
        mask = np.zeros(length, dtype=bool)
        mask[:3] = True
        with pytest.raises(ValueError, match="selection mask"):
            selection_shift(matrix, mask, column_means(matrix))

    @pytest.mark.parametrize("length", [9, 11])
    def test_discounted_shift_rejects_wrong_length_scores(self, length):
        matrix = np.random.default_rng(2).uniform(size=(10, 2))
        scores = np.arange(length, dtype=float)
        grid, weights = discounted_grid(default_k_grid())
        with pytest.raises(ValueError, match="score vector"):
            discounted_shift(matrix, column_means(matrix), scores, grid, weights)
