"""Tests for the baseline fair-ranking algorithms (repro.baselines)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from _delta_two_oracle import reference_rerank

from repro.baselines import (
    DeltaTwoReranker,
    augment_with_complements,
    FairRanker,
    MultinomialFairRanker,
    MultinomialMTable,
    PrefixConstraints,
    adjusted_alpha,
    cartesian_subgroups,
    constraints_from_selection,
    delta_two_from_dca,
    fair_topk_mask,
    mtable,
    multi_quota_selection,
    quota_selection,
)
from repro.core import DisparityCalculator
from repro.ranking import selection_size
from repro.tabular import Table


@pytest.fixture
def biased_table():
    """40 objects; the 30%-protected group occupies the bottom of the ranking."""
    n = 40
    protected = np.zeros(n)
    protected[-12:] = 1.0  # bottom 12 objects are protected (30%)
    scores = np.arange(n, 0, -1, dtype=float)
    other = np.zeros(n)
    other[-6:] = 1.0  # an even rarer overlapping group
    return Table({"protected": protected, "other": other}), scores


class TestQuota:
    def test_reserved_share_met(self, biased_table):
        table, scores = biased_table
        mask = quota_selection(table, scores, 0.25, "protected", reserved_share=0.3)
        selected_protected = table.numeric("protected")[mask].sum()
        assert mask.sum() == 10
        assert selected_protected >= 3

    def test_default_share_is_population_share(self, biased_table):
        table, scores = biased_table
        mask = quota_selection(table, scores, 0.25, "protected")
        share = table.numeric("protected")[mask].mean()
        assert share == pytest.approx(0.3, abs=0.05)

    def test_quota_reduces_disparity(self, biased_table):
        table, scores = biased_table
        calculator = DisparityCalculator(["protected"]).fit(table)
        from repro.ranking import selection_mask

        before = calculator.disparity_from_mask(table, selection_mask(scores, 0.25))
        after = calculator.disparity_from_mask(
            table, quota_selection(table, scores, 0.25, "protected")
        )
        assert abs(after["protected"]) < abs(before["protected"])

    def test_remaining_seats_by_merit(self, biased_table):
        table, scores = biased_table
        mask = quota_selection(table, scores, 0.25, "protected", reserved_share=0.2)
        # The very best unprotected objects must still be selected.
        assert mask[0] and mask[1]

    def test_invalid_share(self, biased_table):
        table, scores = biased_table
        with pytest.raises(ValueError):
            quota_selection(table, scores, 0.25, "protected", reserved_share=1.5)

    def test_score_shape_check(self, biased_table):
        table, _ = biased_table
        with pytest.raises(ValueError):
            quota_selection(table, np.zeros(3), 0.25, "protected")

    def test_reserved_share_capped_by_group_size(self):
        table = Table({"flag": [1, 0, 0, 0]})
        mask = quota_selection(table, np.array([1.0, 4.0, 3.0, 2.0]), 0.75, "flag", reserved_share=1.0)
        assert mask.sum() == 3

    def test_multi_quota_covers_every_dimension(self, biased_table):
        table, scores = biased_table
        mask = multi_quota_selection(table, scores, 0.25, ["protected", "other"])
        protected_share = table.numeric("protected")[mask].mean()
        other_share = table.numeric("other")[mask].mean()
        assert protected_share >= 0.2
        assert other_share >= 0.1

    def test_multi_quota_requires_attributes(self, biased_table):
        table, scores = biased_table
        with pytest.raises(ValueError):
            multi_quota_selection(table, scores, 0.25, {})

    def test_multi_quota_selection_size(self, biased_table):
        table, scores = biased_table
        mask = multi_quota_selection(table, scores, 0.25, ["protected"])
        assert mask.sum() == selection_size(table.num_rows, 0.25)


class TestFairBinomial:
    def test_mtable_monotone_in_prefix(self):
        table = mtable(50, 0.3, 0.1)
        assert len(table) == 50
        assert np.all(np.diff(table) >= 0)

    def test_mtable_bounds(self):
        table = mtable(20, 0.5, 0.1)
        assert table[0] in (0, 1)
        assert table[-1] <= 20

    def test_mtable_stricter_alpha_means_weaker_requirement(self):
        lenient = mtable(50, 0.3, 0.5)
        strict = mtable(50, 0.3, 0.01)
        assert np.all(strict <= lenient)

    def test_mtable_validation(self):
        with pytest.raises(ValueError):
            mtable(0, 0.3, 0.1)
        with pytest.raises(ValueError):
            mtable(10, 0.0, 0.1)
        with pytest.raises(ValueError):
            mtable(10, 0.3, 1.0)

    def test_adjusted_alpha_is_smaller(self):
        corrected = adjusted_alpha(30, 0.3, 0.1, trials=500, seed=1)
        assert 0.0 < corrected <= 0.1

    def test_reranker_satisfies_mtable(self, biased_table):
        table, scores = biased_table
        protected = table.numeric("protected") > 0.5
        ranker = FairRanker(target_proportion=0.3, alpha=0.1)
        chosen = ranker.rerank(scores, protected, 20)
        minima = mtable(20, 0.3, 0.1)
        counts = np.cumsum(protected[chosen])
        assert np.all(counts >= minima)

    def test_reranker_without_pressure_is_merit_order(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        protected = np.array([True, False, True, False, False])
        ranker = FairRanker(target_proportion=0.4, alpha=0.1)
        chosen = ranker.rerank(scores, protected, 3)
        assert chosen.tolist() == [0, 1, 2]

    def test_reranker_validation(self):
        ranker = FairRanker(target_proportion=0.3)
        with pytest.raises(ValueError):
            ranker.rerank(np.zeros(3), np.zeros(4, dtype=bool), 2)
        with pytest.raises(ValueError):
            ranker.rerank(np.zeros(3), np.zeros(3, dtype=bool), 0)

    def test_fair_topk_mask(self, biased_table):
        table, scores = biased_table
        mask = fair_topk_mask(table, scores, "protected", 10, alpha=0.1)
        assert mask.sum() == 10
        assert table.numeric("protected")[mask].sum() >= 1


class TestMultinomialFair:
    def test_mtable_estimate_monotone(self):
        estimate = MultinomialMTable.estimate(30, {"g1": 0.2, "g2": 0.1}, alpha=0.1, trials=1_000)
        assert estimate.minima.shape == (30, 2)
        assert np.all(np.diff(estimate.minima, axis=0) >= 0)

    def test_mtable_estimate_validation(self):
        with pytest.raises(ValueError):
            MultinomialMTable.estimate(0, {"g": 0.2})
        with pytest.raises(ValueError):
            MultinomialMTable.estimate(10, {"g": 0.0})
        with pytest.raises(ValueError):
            MultinomialMTable.estimate(10, {"a": 0.6, "b": 0.6})

    def test_required_counts_lookup(self):
        estimate = MultinomialMTable.estimate(10, {"g": 0.3}, alpha=0.2, trials=500)
        required = estimate.required(10)
        assert set(required) == {"g"}
        with pytest.raises(ValueError):
            estimate.required(11)

    def test_reranker_meets_minimum_counts(self, biased_table):
        table, scores = biased_table
        groups = {
            "protected_only": (table.numeric("protected") > 0.5) & ~(table.numeric("other") > 0.5),
            "other": table.numeric("other") > 0.5,
        }
        proportions = {name: float(mask.mean()) for name, mask in groups.items()}
        ranker = MultinomialFairRanker(proportions=proportions, alpha=0.1, trials=1_000, seed=0)
        chosen = ranker.rerank(scores, groups, 20)
        assert len(chosen) == 20
        minima = ranker._mtable(20).minima
        for g, name in enumerate(ranker._mtable(20).group_names):
            counts = np.cumsum(groups[name][chosen])
            assert np.all(counts >= minima[:, g])

    def test_reranker_rejects_overlapping_groups(self, biased_table):
        table, scores = biased_table
        groups = {
            "protected": table.numeric("protected") > 0.5,
            "other": table.numeric("other") > 0.5,  # subset of protected -> overlap
        }
        ranker = MultinomialFairRanker(proportions={"protected": 0.3, "other": 0.15})
        with pytest.raises(ValueError):
            ranker.rerank(scores, groups, 10)

    def test_reranker_missing_group(self, biased_table):
        table, scores = biased_table
        ranker = MultinomialFairRanker(proportions={"missing": 0.2})
        with pytest.raises(ValueError):
            ranker.rerank(scores, {}, 5)

    def test_rerank_mask_size(self, biased_table):
        table, scores = biased_table
        groups = {"protected_only": (table.numeric("protected") > 0.5) & ~(table.numeric("other") > 0.5)}
        ranker = MultinomialFairRanker(proportions={"protected_only": 0.15}, trials=500)
        mask = ranker.rerank_mask(scores, groups, 12)
        assert mask.sum() == 12

    def test_cartesian_subgroups_disjoint(self, biased_table):
        table, _ = biased_table
        subgroups = cartesian_subgroups(table, ["protected", "other"], top=3)
        masks = list(subgroups.values())
        total = np.zeros(table.num_rows, dtype=int)
        for mask in masks:
            total += mask.astype(int)
        assert total.max() <= 1  # disjoint
        assert all(mask.any() for mask in masks)

    def test_cartesian_subgroups_prefers_intersections(self, biased_table):
        table, _ = biased_table
        subgroups = cartesian_subgroups(table, ["protected", "other"], top=1)
        assert list(subgroups) == ["protected&other"]

    def test_cartesian_requires_attributes(self, biased_table):
        table, _ = biased_table
        with pytest.raises(ValueError):
            cartesian_subgroups(table, [])


class TestDeltaTwo:
    def test_constraints_from_selection_shape(self, biased_table):
        table, scores = biased_table
        selected = np.zeros(table.num_rows, dtype=bool)
        selected[:10] = True
        constraints = constraints_from_selection(table, selected, ["protected"], 10)
        assert constraints.k == 10
        assert constraints.maxima.shape == (10, 1)
        assert np.all(np.diff(constraints.maxima[:, 0]) >= 0)

    def test_constraints_validation(self, biased_table):
        table, _ = biased_table
        with pytest.raises(ValueError):
            constraints_from_selection(table, np.zeros(3, dtype=bool), ["protected"], 10)
        with pytest.raises(ValueError):
            constraints_from_selection(table, np.zeros(table.num_rows, dtype=bool), ["protected"], 0)
        with pytest.raises(ValueError):
            PrefixConstraints(("a",), np.zeros((3, 2)))

    def test_reranker_respects_group_caps(self, biased_table):
        table, scores = biased_table
        # Allow at most 2 unprotected objects in the top 10 (force protected in).
        maxima = np.column_stack([np.full(10, 10), np.minimum(np.arange(1, 11), 2)])
        constraints = PrefixConstraints(("protected", "unprotected"), maxima)
        augmented = table.with_column("unprotected", 1.0 - table.numeric("protected"))
        chosen = DeltaTwoReranker(constraints).rerank(augmented, scores)
        unprotected_count = (augmented.numeric("unprotected")[chosen] > 0.5).sum()
        assert unprotected_count <= 2
        assert len(chosen) == 10

    def test_reranker_fills_k_even_when_constraints_bind(self, biased_table):
        table, scores = biased_table
        # Impossible constraint: zero objects of either kind allowed; the
        # reranker falls back to best-effort, says so, and still returns the
        # k best items.
        augmented, names = augment_with_complements(table, ["protected"])
        constraints = PrefixConstraints(names, np.zeros((5, 2), dtype=int))
        with pytest.warns(UserWarning, match="constraints infeasible at 5 of 5 positions"):
            chosen = DeltaTwoReranker(constraints).rerank(augmented, scores)
        assert chosen.tolist() == [0, 1, 2, 3, 4]

    def test_unconstrained_equals_merit_order(self, biased_table):
        table, scores = biased_table
        maxima = np.full((10, 1), 100, dtype=int)
        constraints = PrefixConstraints(("protected",), maxima)
        chosen = DeltaTwoReranker(constraints).rerank(table, scores)
        assert chosen.tolist() == list(range(10))

    def test_delta_two_from_dca_matches_dca_composition(self, biased_table):
        table, base_scores = biased_table
        # Pretend DCA gave every protected object a large bonus.
        compensated = base_scores + 100.0 * table.numeric("protected")
        mask = delta_two_from_dca(table, base_scores, compensated, ["protected"], 0.25)
        assert mask.sum() == selection_size(table.num_rows, 0.25)
        protected_selected = table.numeric("protected")[mask].sum()
        # DCA's selection is dominated by protected objects; (Δ+2) is capped at
        # that composition, so it cannot select more protected objects than DCA.
        from repro.ranking import selection_mask

        dca_protected = table.numeric("protected")[selection_mask(compensated, 0.25)].sum()
        assert protected_selected <= dca_protected

    def test_score_shape_check(self, biased_table):
        table, _ = biased_table
        constraints = PrefixConstraints(("protected",), np.full((5, 1), 5, dtype=int))
        with pytest.raises(ValueError):
            DeltaTwoReranker(constraints).rerank(table, np.zeros(3))


#: Instance families for the (Δ+2) oracle-equivalence suite; each runs
#: ``ORACLE_SEEDS`` seeded instances, ~200 in all.
ORACLE_KINDS = (
    "overlapping",
    "tight",
    "ties",
    "nan",
    "empty_group",
    "single_type",
    "k_ge_n",
    "complements",
)
ORACLE_SEEDS = 25


def _oracle_instance(kind: str, seed: int):
    """One small seeded (Δ+2) instance of the given family: table, scores, constraints."""
    rng = np.random.default_rng((seed, ORACLE_KINDS.index(kind)))
    n = int(rng.integers(1, 301))
    num_groups = int(rng.integers(1, 5))
    columns = {
        f"g{g}": (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float) for g in range(num_groups)
    }
    scores = rng.normal(size=n)
    k = int(rng.integers(1, min(n, 60) + 1))
    if kind == "ties":
        scores = rng.integers(0, 4, size=n).astype(float)
    elif kind == "nan":
        scores = rng.integers(0, 6, size=n).astype(float)
        scores[rng.random(n) < 0.3] = np.nan
    elif kind == "empty_group":
        columns["g0"] = np.zeros(n)
    elif kind == "single_type":
        columns = {name: np.ones(n) for name in columns}
    elif kind == "k_ge_n":
        n = int(rng.integers(1, 40))
        columns = {name: column[:n] for name, column in columns.items()}
        scores = scores[:n]
        k = n + int(rng.integers(0, 5))
    table = Table(columns)
    names = tuple(columns)
    if kind == "complements":
        table, names = augment_with_complements(table, names)
        selected = np.zeros(n, dtype=bool)
        selected[rng.choice(n, size=k, replace=False)] = True
        return table, scores, constraints_from_selection(table, selected, names, k)
    # Monotone prefix maxima at a random share of each prefix; "tight"
    # scales them toward zero so the relaxed "nothing fits" branch fires.
    shares = rng.uniform(0.0, 0.3 if kind == "tight" else 1.0, size=len(names))
    prefixes = np.arange(1, k + 1)[:, None]
    maxima = np.floor(shares[None, :] * prefixes).astype(int)
    return table, scores, PrefixConstraints(names, maxima)


class TestDeltaTwoOracleEquivalence:
    """The per-type re-ranker returns the reference loop's exact index sequence."""

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_matches_reference_loop(self, kind):
        relaxed_instances = 0
        for seed in range(ORACLE_SEEDS):
            table, scores, constraints = _oracle_instance(kind, seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fast = DeltaTwoReranker(constraints).rerank(table, scores)
            relaxed_instances += any("constraints infeasible" in str(w.message) for w in caught)
            expected = reference_rerank(constraints, table, scores)
            assert np.array_equal(fast, expected), (kind, seed)
            assert fast.dtype == expected.dtype
            if kind == "k_ge_n":
                assert constraints.k >= table.num_rows
                assert sorted(fast.tolist()) == list(range(table.num_rows))
        if kind == "tight":
            assert relaxed_instances > 0
        if kind in ("nan", "ties"):
            assert relaxed_instances < ORACLE_SEEDS

    def test_many_groups_fold_into_type_codes(self):
        # More groups than one 30-bit fold holds: the first 34 groups hold
        # everyone, so the types differ only in the last six, binding groups.
        rng = np.random.default_rng(11)
        n, k = 120, 40
        columns = {f"g{g}": np.ones(n) for g in range(34)}
        columns.update({f"g{g}": (rng.random(n) < 0.5).astype(float) for g in range(34, 40)})
        prefixes = np.arange(1, k + 1)[:, None]
        maxima = np.hstack([np.tile(prefixes, (1, 34)), np.tile(prefixes // 2, (1, 6))])
        constraints = PrefixConstraints(tuple(columns), maxima)
        table, scores = Table(columns), rng.normal(size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = DeltaTwoReranker(constraints).rerank(table, scores)
        assert np.array_equal(fast, reference_rerank(constraints, table, scores))

    def test_no_groups_is_score_order(self):
        table = Table({"x": np.zeros(6)})
        scores = np.array([1.0, 3.0, np.nan, 3.0, 0.5, 2.0])
        constraints = PrefixConstraints((), np.zeros((4, 0), dtype=int))
        fast = DeltaTwoReranker(constraints).rerank(table, scores)
        assert fast.tolist() == [1, 3, 5, 0]
        assert np.array_equal(fast, reference_rerank(constraints, table, scores))

    def test_empty_table(self):
        constraints = PrefixConstraints(("g",), np.ones((3, 1), dtype=int))
        chosen = DeltaTwoReranker(constraints).rerank(Table({"g": np.zeros(0)}), np.zeros(0))
        assert chosen.shape == (0,)

    def test_fig7_shaped_instance(self):
        # The fig7 protocol on a small school cohort: binary fairness groups
        # plus complements, capped at DCA's own selection composition.
        from repro.experiments.setting import DEFAULT_K, SchoolSetting
        from repro.ranking import selection_mask

        setting = SchoolSetting(num_students=2000)
        table = setting.train.table
        base = setting.base_scores("train")
        compensated = setting.fit_dca(DEFAULT_K).bonus.apply(table, base)
        binary = tuple(name for name in setting.fairness_attributes if name != "eni")
        augmented, names = augment_with_complements(table, binary)
        size = selection_size(table.num_rows, DEFAULT_K)
        constraints = constraints_from_selection(
            augmented, selection_mask(compensated, DEFAULT_K), names, size
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = DeltaTwoReranker(constraints).rerank(augmented, base)
        assert len(fast) == size
        assert np.array_equal(fast, reference_rerank(constraints, augmented, base))
