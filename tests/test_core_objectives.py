"""Unit tests for the pluggable DCA fairness objectives."""

from __future__ import annotations

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


class TestCompiledObjectiveContract:
    """``CompiledObjective.__init_subclass__`` fails fast on broken contracts."""

    def test_export_state_without_from_state_rejected(self):
        from repro.core.objectives import CompiledObjective

        with pytest.raises(TypeError, match="from_state"):

            class ExporterOnly(CompiledObjective):
                def evaluate(self, indices, scores, k):
                    return np.zeros(1)

                def export_state(self):
                    return {}, {}

    def test_full_contract_accepted_and_inheritable(self):
        from repro.core.objectives import CompiledObjective

        class WellFormed(CompiledObjective):
            def evaluate(self, indices, scores, k):
                return np.zeros(1)

            def export_state(self):
                return {}, {}

            @classmethod
            def from_state(cls, arrays, metadata):
                return cls()

        # A subclass refining only export_state() inherits from_state()
        # from its parent — that must stay legal.
        class RefinedExport(WellFormed):
            def export_state(self):
                return {"extra": np.zeros(1)}, {}

        arrays, metadata = RefinedExport().export_state()
        assert isinstance(RefinedExport.from_state(arrays, metadata), RefinedExport)

    def test_builtin_compiled_objectives_still_define_cleanly(self, biased_table):
        # Importing the module already ran __init_subclass__ over every
        # built-in compiled objective; compiling one proves the path works.
        table, _ = biased_table
        compiled = DisparityObjective(["protected"]).fit(table).compile(table)
        assert compiled.export_state() is not None
