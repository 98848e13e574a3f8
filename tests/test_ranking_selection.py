"""Unit tests for repro.ranking.selection and repro.ranking.ranking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ranking import (
    Ranking,
    best_first_order,
    rank_positions,
    rank_table,
    selection_mask,
    selection_size,
    selection_threshold,
    top_k_indices,
    ColumnScore,
)
from repro.ranking.selection import _LEXSORT_BELOW, _tie_repaired_order
from repro.tabular import Table


class TestSelectionSize:
    def test_five_percent_of_hundred(self):
        assert selection_size(100, 0.05) == 5

    def test_rounds_up(self):
        assert selection_size(10, 0.05) == 1
        assert selection_size(101, 0.05) == 6

    def test_full_selection(self):
        assert selection_size(10, 1.0) == 10

    def test_zero_objects(self):
        assert selection_size(0, 0.5) == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            selection_size(10, 0.0)
        with pytest.raises(ValueError):
            selection_size(10, 1.5)

    def test_negative_population(self):
        with pytest.raises(ValueError):
            selection_size(-1, 0.5)

    def test_at_least_one_selected(self):
        assert selection_size(3, 0.01) == 1


class TestRankPositions:
    def test_simple_ordering(self):
        ranks = rank_positions(np.array([1.0, 3.0, 2.0]))
        assert ranks.tolist() == [2, 0, 1]

    def test_ties_broken_by_index(self):
        ranks = rank_positions(np.array([2.0, 2.0, 1.0]))
        assert ranks.tolist() == [0, 1, 2]

    def test_empty(self):
        assert rank_positions(np.array([])).shape == (0,)


#: Sizes on both sides of the crossover from the small-input lexsort to the
#: SIMD sort with tie repair, plus the empty and one-row edges.
_ORDER_SIZES = [
    0, 1, 2, _LEXSORT_BELOW - 1, _LEXSORT_BELOW, _LEXSORT_BELOW + 1,
    4 * _LEXSORT_BELOW, 200_000,
]


def _order_scores(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "integer_ties":
        return rng.integers(0, 10, size=n).astype(float)
    if kind == "specials":  # NaN of either sign, +-0.0, +-inf
        values = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0]
        return rng.choice(np.array(values), size=n)
    if kind == "all_nan":
        return np.full(n, np.nan)
    if kind == "signed_zeros":
        return np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "float32":
        return rng.normal(size=n).astype(np.float32)
    raise AssertionError(kind)


class TestBestFirstOrder:
    """``best_first_order`` is the permutation of ``np.lexsort((arange, -scores))``."""

    @pytest.mark.parametrize("n", _ORDER_SIZES)
    @pytest.mark.parametrize(
        "kind",
        ["continuous", "integer_ties", "specials", "all_nan", "signed_zeros", "float32"],
    )
    def test_byte_identical_to_lexsort(self, kind, n):
        scores = _order_scores(kind, n)
        before = scores.copy()
        order = best_first_order(scores)
        expected = np.lexsort((np.arange(n), -scores))
        assert order.dtype == expected.dtype
        assert order.tobytes() == expected.tobytes()
        assert np.array_equal(scores, before, equal_nan=True)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 250])
    @pytest.mark.parametrize("kind", ["integer_ties", "specials", "all_nan", "signed_zeros"])
    def test_tie_repair_identical_below_the_crossover(self, kind, n):
        # The small sizes take the lexsort; the repair path is exact there too.
        scores = _order_scores(kind, n)
        expected = np.lexsort((np.arange(n), -scores))
        assert _tie_repaired_order(scores).tobytes() == expected.tobytes()

    def test_nan_last_in_row_order_and_signed_zeros_tie(self):
        scores = np.r_[np.zeros(_LEXSORT_BELOW), [np.nan, 1.0, -0.0, -np.nan, -np.inf]]
        order = best_first_order(scores)
        n = _LEXSORT_BELOW
        assert order[0] == n + 1
        assert order[1 : n + 2].tolist() == list(range(n)) + [n + 2]
        assert order[n + 2 :].tolist() == [n + 4, n, n + 3]


class TestTopK:
    def test_top_k_indices_order(self):
        scores = np.array([5.0, 1.0, 3.0, 4.0])
        assert top_k_indices(scores, 0.5).tolist() == [0, 3]

    def test_selection_mask_count(self):
        scores = np.arange(100, dtype=float)
        mask = selection_mask(scores, 0.1)
        assert mask.sum() == 10
        assert mask[90:].all()

    def test_threshold_is_last_selected_score(self):
        scores = np.array([10.0, 9.0, 8.0, 7.0])
        assert selection_threshold(scores, 0.5) == 9.0

    def test_threshold_empty(self):
        with pytest.raises(ValueError):
            selection_threshold(np.array([]), 0.5)

    def test_ties_at_boundary_deterministic(self):
        scores = np.array([1.0, 1.0, 1.0, 1.0])
        assert top_k_indices(scores, 0.5).tolist() == [0, 1]

    def test_mask_ties_admitted_in_row_order(self):
        # Three objects tie at the boundary score; the earliest rows win.
        scores = np.array([5.0, 2.0, 2.0, 2.0, 1.0])
        mask = selection_mask(scores, 0.6)  # size 3: the 5.0 plus two of the 2.0s
        assert mask.tolist() == [True, True, True, False, False]

    def test_mask_matches_top_k_indices_under_heavy_ties(self):
        """The partition-based mask must select exactly the lexsort top-k set."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 120))
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            k = float(rng.uniform(0.01, 1.0))
            reference = np.zeros(n, dtype=bool)
            reference[top_k_indices(scores, k)] = True
            assert np.array_equal(selection_mask(scores, k), reference)

    def test_mask_handles_nan_scores_like_lexsort(self):
        scores = np.array([3.0, np.nan, 2.0, np.nan, 1.0])
        reference = np.zeros(5, dtype=bool)
        reference[top_k_indices(scores, 0.6)] = True
        assert np.array_equal(selection_mask(scores, 0.6), reference)


class TestRankingObject:
    @pytest.fixture
    def ranking(self):
        table = Table({"score": [1.0, 4.0, 3.0, 2.0], "flag": [1, 0, 1, 0]})
        return Ranking(table, table.numeric("score"))

    def test_shape_validation(self):
        table = Table({"x": [1.0, 2.0]})
        with pytest.raises(ValueError):
            Ranking(table, np.array([1.0]))

    def test_ranks(self, ranking):
        assert ranking.ranks.tolist() == [3, 0, 1, 2]

    def test_order_and_sorted_table(self, ranking):
        assert ranking.order().tolist() == [1, 2, 3, 0]
        assert ranking.sorted_table().numeric("score").tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_selected_and_unselected_partition(self, ranking):
        selected = ranking.selected(0.5)
        unselected = ranking.unselected(0.5)
        assert selected.num_rows + unselected.num_rows == ranking.num_objects
        assert selected.numeric("score").tolist() == [4.0, 3.0]

    def test_selected_mask_matches_size(self, ranking):
        assert ranking.selected_mask(0.25).sum() == ranking.selection_size(0.25)

    def test_with_scores_re_ranks(self, ranking):
        reranked = ranking.with_scores(np.array([4.0, 3.0, 2.0, 1.0]))
        assert reranked.order().tolist() == [0, 1, 2, 3]

    def test_centroid_population_vs_selection(self, ranking):
        population = ranking.centroid(["flag"])
        selected = ranking.centroid(["flag"], k=0.5)
        assert population[0] == pytest.approx(0.5)
        assert selected[0] == pytest.approx(0.5)

    def test_rank_table_helper(self):
        table = Table({"x": [2.0, 1.0]})
        ranking = rank_table(table, ColumnScore("x"))
        assert ranking.order().tolist() == [0, 1]
