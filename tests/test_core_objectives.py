"""Unit tests for the pluggable DCA fairness objectives."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    DisparateImpactObjective,
    DisparityObjective,
    ExposureGapObjective,
    FalsePositiveRateObjective,
    LogDiscountedDisparityObjective,
)
from repro.tabular import Table


@pytest.fixture
def biased_table():
    """20 objects; the protected half scores systematically lower."""
    scores = list(range(20, 0, -1))  # 20 .. 1
    protected = [0] * 10 + [1] * 10  # the low scorers are protected
    labels = [1, 0] * 10  # alternating ground-truth outcome
    return (
        Table({"protected": protected, "outcome": labels}),
        np.asarray(scores, dtype=float),
    )


class TestDisparityObjective:
    def test_negative_for_underrepresented_group(self, biased_table):
        table, scores = biased_table
        objective = DisparityObjective(["protected"]).fit(table)
        value = objective.evaluate(table, scores, 0.25)
        assert value["protected"] < 0

    def test_norm_helper(self, biased_table):
        table, scores = biased_table
        objective = DisparityObjective(["protected"]).fit(table)
        assert objective.norm(table, scores, 0.25) == pytest.approx(
            abs(value := objective.evaluate(table, scores, 0.25)["protected"])
        )
        assert value < 0

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            DisparityObjective([])


class TestLogDiscountedDisparityObjective:
    def test_fit_returns_self_and_bounded(self, biased_table):
        table, scores = biased_table
        objective = LogDiscountedDisparityObjective(["protected"], k_grid=[0.1, 0.25, 0.5])
        assert objective.fit(table) is objective
        value = objective.evaluate(table, scores, 0.5)
        assert -1.0 <= value["protected"] <= 0.0

    def test_cap_at_smaller_k(self, biased_table):
        table, scores = biased_table
        objective = LogDiscountedDisparityObjective(["protected"], k_grid=[0.1, 0.5]).fit(table)
        capped = objective.evaluate(table, scores, 0.1)
        # Only the k=0.1 term remains: the protected group has zero members in
        # the top 2, so the disparity equals -(population share) = -0.5.
        assert capped["protected"] == pytest.approx(-0.5)


class TestDisparateImpactObjective:
    def test_sign_negative_when_group_underselected(self, biased_table):
        table, scores = biased_table
        objective = DisparateImpactObjective(["protected"])
        value = objective.evaluate(table, scores, 0.25)
        assert value["protected"] < 0

    def test_zero_at_equal_selection_rates(self):
        table = Table({"flag": [1, 0, 1, 0]})
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        objective = DisparateImpactObjective(["flag"])
        # Top 50% contains one member of each group -> equal rates -> 0.
        assert objective.evaluate(table, scores, 0.5)["flag"] == pytest.approx(0.0)

    def test_magnitude_is_one_minus_ratio(self):
        # Group selected at 25% rate vs 75% for the rest: DI = 1/3, value = -(1 - 1/3).
        table = Table({"flag": [1, 1, 1, 1, 0, 0, 0, 0]})
        scores = np.array([8.0, 1.0, 2.0, 3.0, 7.0, 6.0, 5.0, 4.0])
        objective = DisparateImpactObjective(["flag"])
        value = objective.evaluate(table, scores, 0.5)
        assert value["flag"] == pytest.approx(-(1 - (1 / 4) / (3 / 4)))

    def test_single_group_population_returns_zero(self):
        table = Table({"flag": [1, 1, 1]})
        scores = np.array([3.0, 2.0, 1.0])
        value = DisparateImpactObjective(["flag"]).evaluate(table, scores, 0.5)
        assert value["flag"] == 0.0

    def test_bounded(self, biased_table):
        table, scores = biased_table
        value = DisparateImpactObjective(["protected"]).evaluate(table, scores, 0.1)
        assert -1.0 <= value["protected"] <= 1.0


class TestFalsePositiveRateObjective:
    def test_negative_when_group_overflagged(self, biased_table):
        table, scores = biased_table
        objective = FalsePositiveRateObjective(["protected"], "outcome")
        value = objective.evaluate(table, scores, 0.25)
        # Protected members are mostly unselected (flagged); their FPR exceeds
        # the overall FPR, so the signal is negative (they need compensation).
        assert value["protected"] < 0

    def test_zero_when_rates_match(self):
        table = Table({"flag": [1, 0, 1, 0], "outcome": [0, 0, 0, 0]})
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        objective = FalsePositiveRateObjective(["flag"], "outcome")
        value = objective.evaluate(table, scores, 0.5)
        assert value["flag"] == pytest.approx(0.0)

    def test_group_without_negatives_gives_zero(self):
        table = Table({"flag": [1, 1, 0, 0], "outcome": [1, 1, 0, 0]})
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        value = FalsePositiveRateObjective(["flag"], "outcome").evaluate(table, scores, 0.5)
        assert value["flag"] == 0.0


class TestExposureGapObjective:
    def test_negative_when_group_ranked_low(self, biased_table):
        table, scores = biased_table
        objective = ExposureGapObjective(["protected"])
        value = objective.evaluate(table, scores, 0.25)
        assert value["protected"] < 0

    def test_zero_for_single_group(self):
        table = Table({"flag": [1, 1]})
        value = ExposureGapObjective(["flag"]).evaluate(table, np.array([2.0, 1.0]), 0.5)
        assert value["flag"] == 0.0

    def test_symmetric_groups_balance(self):
        # Perfectly interleaved groups have (nearly) equal average exposure.
        table = Table({"flag": [1, 0, 1, 0, 1, 0]})
        scores = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        value = ExposureGapObjective(["flag"]).evaluate(table, scores, 0.5)
        assert abs(value["flag"]) < 0.2

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            ExposureGapObjective(["flag"]).evaluate(Table({"flag": []}), np.array([]), 0.5)


def _random_population(n: int = 400, seed: int = 8) -> tuple[Table, np.ndarray]:
    """Two binary groups, a label and tie-heavy scores (rounded to one decimal)."""
    rng = np.random.default_rng(seed)
    table = Table(
        {
            "group_a": (rng.uniform(size=n) < 0.3).astype(float),
            "group_b": (rng.uniform(size=n) < 0.6).astype(float),
            "label": (rng.uniform(size=n) < 0.4).astype(float),
        }
    )
    return table, np.round(rng.normal(size=n), 1)


_ALL_OBJECTIVES = [
    lambda: DisparityObjective(("group_a", "group_b")),
    lambda: LogDiscountedDisparityObjective(("group_a", "group_b")),
    lambda: DisparateImpactObjective(("group_a", "group_b")),
    lambda: FalsePositiveRateObjective(("group_a", "group_b"), label_column="label"),
    lambda: ExposureGapObjective(("group_a", "group_b")),
]
_OBJECTIVE_IDS = ["disparity", "log-discounted", "disparate-impact", "fpr", "exposure"]


class TestCompiledObjectiveContract:
    """A compiled objective is a plain value: ``evaluate`` is all a subclass needs."""

    def test_export_state_without_from_state_rejected(self):
        from repro.core.objectives import CompiledObjective

        # The state-export protocol is gone: workers receive the instance itself.
        assert not hasattr(CompiledObjective, "export_state")
        assert not hasattr(CompiledObjective, "from_state")

        class ExporterOnly(CompiledObjective):
            def evaluate(self, indices, scores, k):
                return np.zeros(1)

            def export_state(self):
                return {}, {}

        assert np.array_equal(ExporterOnly().evaluate(None, np.zeros(2), 0.5), np.zeros(1))

    def test_full_contract_accepted_and_inheritable(self):
        from repro.core.objectives import CompiledObjective

        class WellFormed(CompiledObjective):
            def evaluate(self, indices, scores, k):
                return np.zeros(1) if indices is None else np.ones(1)

        class Refined(WellFormed):
            pass

        taken = Refined().take(np.array([1, 0]))
        assert np.array_equal(taken.evaluate(None, np.zeros(2), 0.5), np.ones(1))

    def test_builtin_compiled_objectives_still_define_cleanly(self, biased_table):
        table, _ = biased_table
        compiled = DisparityObjective(["protected"]).fit(table).compile(table)
        assert not hasattr(compiled, "export_state")
        assert not hasattr(type(compiled), "from_state")

    @pytest.mark.parametrize("make_objective", _ALL_OBJECTIVES, ids=_OBJECTIVE_IDS)
    def test_builtin_compiled_objectives_pickle_bitwise(self, make_objective):
        """A spawned pool worker receives compiled objectives by pickle: no bit moves."""
        table, scores = _random_population()
        compiled = make_objective().fit(table).compile(table)
        compiled.evaluate(None, scores, 0.2)  # its scratch state travels too
        restored = pickle.loads(pickle.dumps(compiled))
        assert type(restored) is type(compiled)
        rng = np.random.default_rng(4)
        indices = rng.choice(table.num_rows, size=150, replace=False)
        for k in (0.05, 0.2, 0.5):
            assert np.array_equal(
                restored.evaluate(None, scores, k), compiled.evaluate(None, scores, k)
            )
            assert np.array_equal(
                restored.take(indices).evaluate(None, scores[indices], k),
                compiled.take(indices).evaluate(None, scores[indices], k),
            )


class TestTake:
    """``take(indices).evaluate(None, ...)`` is ``evaluate(indices, ...)``, bit for bit."""

    @pytest.mark.parametrize("make_objective", _ALL_OBJECTIVES, ids=_OBJECTIVE_IDS)
    def test_taken_rows_evaluate_like_indexed_rows(self, make_objective):
        table, scores = _random_population()
        compiled = make_objective().fit(table).compile(table)
        rng = np.random.default_rng(3)
        for _ in range(5):
            indices = rng.choice(table.num_rows, size=120, replace=False)
            taken = compiled.take(indices)
            for k in (0.05, 0.2, 0.5):
                expected = compiled.evaluate(indices, scores[indices], k)
                # Twice: the taken rows cache their centroid on first use.
                for _ in range(2):
                    assert np.array_equal(taken.evaluate(None, scores[indices], k), expected)

    @pytest.mark.parametrize("make_objective", _ALL_OBJECTIVES, ids=_OBJECTIVE_IDS)
    def test_gathers_equal_fancy_indexed_population(self, make_objective):
        """``take``/``evaluate(indices, ...)`` equal compiling the fancy-indexed rows.

        The reference population is built column by column with ``column[indices]``;
        the indices repeat and are out of order, as a draw with replacement would be.
        """
        table, scores = _random_population()
        objective = make_objective().fit(table)
        compiled = objective.compile(table)
        rng = np.random.default_rng(6)
        for size in (1, 37, 400):
            indices = rng.integers(0, table.num_rows, size=size)
            subset = Table({name: table.numeric(name)[indices] for name in table.column_names})
            reference = objective.compile(subset)
            sample = scores[indices]
            for k in (0.05, 0.2, 0.5):
                expected = reference.evaluate(None, sample, k).tobytes()
                assert compiled.evaluate(indices, sample, k).tobytes() == expected
                assert compiled.take(indices).evaluate(None, sample, k).tobytes() == expected

    @pytest.mark.parametrize("make_objective", _ALL_OBJECTIVES, ids=_OBJECTIVE_IDS)
    def test_wrong_length_scores_raise(self, make_objective):
        table, scores = _random_population()
        compiled = make_objective().fit(table).compile(table)
        indices = np.arange(50)
        for wrong in (scores[:49], scores[:51]):
            with pytest.raises((ValueError, IndexError)):
                compiled.evaluate(indices, wrong, 0.2)
            with pytest.raises((ValueError, IndexError)):
                compiled.take(indices).evaluate(None, wrong, 0.2)

    def test_default_take_defers_to_evaluate(self):
        from repro.core.objectives import CompiledObjective

        calls = []

        class Recording(CompiledObjective):
            def evaluate(self, indices, scores, k):
                calls.append(None if indices is None else indices.tolist())
                return np.zeros(1)

        taken = Recording().take(np.array([4, 2, 9]))
        taken.evaluate(None, np.zeros(3), 0.5)
        taken.evaluate(np.array([2, 0]), np.zeros(2), 0.5)
        assert calls == [[4, 2, 9], [9, 4]]


class TestLogDiscountedGridCache:
    def test_alternating_k_on_one_instance_matches_fresh_instances(self):
        """A k sweep shares one compiled instance: its per-k cache must not go stale."""
        table, scores = _random_population()
        objective = LogDiscountedDisparityObjective(("group_a", "group_b")).fit(table)
        shared = objective.compile(table)
        rng = np.random.default_rng(5)
        for k in (0.05, 0.3, 0.05, 0.5, 0.3, 0.05, 1.0, 0.02):
            indices = rng.choice(table.num_rows, size=150, replace=False)
            fresh = objective.compile(table)
            assert np.array_equal(
                shared.evaluate(indices, scores[indices], k),
                fresh.evaluate(indices, scores[indices], k),
            )
            assert np.array_equal(shared._capped_grid(k)[1], fresh._capped_grid(k)[1])
        assert sorted(shared._grids) == [0.02, 0.05, 0.3, 0.5, 1.0]
