"""Unit tests for repro.core.bonus (BonusVector)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BonusVector, apply_bonus
from repro.tabular import Table


@pytest.fixture
def table():
    return Table(
        {
            "low_income": [1, 0, 1, 0],
            "ell": [0, 0, 1, 1],
            "eni": [0.5, 0.1, 0.9, 0.2],
        }
    )


class TestConstruction:
    def test_from_mapping(self):
        bonus = BonusVector({"a": 1.0, "b": 2.5})
        assert bonus.attribute_names == ("a", "b")
        assert bonus["b"] == 2.5

    def test_from_names_and_values(self):
        bonus = BonusVector(attribute_names=["a", "b"], values=[1.0, 2.0])
        assert bonus.as_dict() == {"a": 1.0, "b": 2.0}

    def test_requires_some_input(self):
        with pytest.raises(ValueError):
            BonusVector()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BonusVector(attribute_names=["a"], values=[1.0, 2.0])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            BonusVector(attribute_names=["a", "a"], values=[1.0, 2.0])

    def test_zeros_constructor(self):
        bonus = BonusVector.zeros(["x", "y"])
        assert bonus.as_dict() == {"x": 0.0, "y": 0.0}

    def test_unknown_attribute_lookup(self):
        with pytest.raises(KeyError):
            BonusVector({"a": 1.0})["b"]

    def test_values_read_only(self):
        bonus = BonusVector({"a": 1.0})
        with pytest.raises(ValueError):
            bonus.values[0] = 2.0

    def test_iteration_and_len(self):
        bonus = BonusVector({"a": 1.0, "b": 2.0})
        assert list(bonus) == ["a", "b"]
        assert len(bonus) == 2


class TestTransformations:
    def test_scaled(self):
        bonus = BonusVector({"a": 2.0, "b": 4.0}).scaled(0.5)
        assert bonus.as_dict() == {"a": 1.0, "b": 2.0}

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            BonusVector({"a": 1.0}).scaled(-0.5)

    def test_clipped_bounds(self):
        bonus = BonusVector({"a": -1.0, "b": 25.0}).clipped(0.0, 20.0)
        assert bonus.as_dict() == {"a": 0.0, "b": 20.0}

    def test_clipped_invalid_bounds(self):
        with pytest.raises(ValueError):
            BonusVector({"a": 1.0}).clipped(5.0, 1.0)

    def test_rounded_to_half_points(self):
        bonus = BonusVector({"a": 1.26, "b": 11.74}).rounded(0.5)
        assert bonus.as_dict() == {"a": 1.5, "b": 11.5}

    def test_rounded_publishes_exact_decimals_at_a_tenth(self):
        """111 steps of 0.1 publish 11.1, not the float product 11.100000000000001."""
        assert 111 * 0.1 != 11.1
        bonus = BonusVector({"a": 11.08, "b": 0.34, "c": 2.96}).rounded(0.1)
        assert bonus.as_dict() == {"a": 11.1, "b": 0.3, "c": 3.0}
        steps = np.arange(-1000, 1001)
        names = [f"x{i}" for i in range(steps.size)]
        values = BonusVector(attribute_names=names, values=steps * 0.1 + 0.01).rounded(0.1).values
        assert [repr(value) for value in values] == [repr(step / 10) for step in steps]

    def test_rounded_half_points_bitwise_unchanged(self):
        """The default 0.5 is dyadic: every multiple is the plain float product."""
        values = np.random.default_rng(3).uniform(-50.0, 50.0, size=2000)
        names = [f"x{i}" for i in range(values.size)]
        rounded = BonusVector(attribute_names=names, values=values).rounded(0.5).values
        assert np.array_equal(rounded, np.round(values / 0.5) * 0.5)
        assert np.array_equal(np.signbit(rounded), np.signbit(np.round(values / 0.5) * 0.5))

    def test_rounded_rejects_non_positive_granularity(self):
        with pytest.raises(ValueError):
            BonusVector({"a": 1.0}).rounded(0.0)

    def test_replace(self):
        bonus = BonusVector({"a": 1.0, "b": 2.0}).replace(a=5.0)
        assert bonus.as_dict() == {"a": 5.0, "b": 2.0}

    def test_replace_unknown(self):
        with pytest.raises(KeyError):
            BonusVector({"a": 1.0}).replace(zzz=2.0)

    def test_norm(self):
        assert BonusVector({"a": 3.0, "b": 4.0}).norm() == pytest.approx(5.0)

    def test_transformations_return_new_objects(self):
        original = BonusVector({"a": 1.0})
        scaled = original.scaled(2.0)
        assert original["a"] == 1.0
        assert scaled["a"] == 2.0


class TestApplication:
    def test_binary_attribute_adds_full_bonus(self, table):
        bonus = BonusVector({"low_income": 2.0, "ell": 0.0, "eni": 0.0})
        base = np.zeros(4)
        adjusted = bonus.apply(table, base)
        assert adjusted.tolist() == [2.0, 0.0, 2.0, 0.0]

    def test_continuous_attribute_scales_bonus(self, table):
        bonus = BonusVector({"low_income": 0.0, "ell": 0.0, "eni": 10.0})
        adjusted = bonus.apply(table, np.zeros(4))
        assert adjusted.tolist() == pytest.approx([5.0, 1.0, 9.0, 2.0])

    def test_bonuses_compound_across_attributes(self, table):
        bonus = BonusVector({"low_income": 1.0, "ell": 2.0, "eni": 0.0})
        adjusted = bonus.apply(table, np.zeros(4))
        # Row 2 is both low-income and ELL: gets 1 + 2 = 3 (intersectionality).
        assert adjusted[2] == pytest.approx(3.0)

    def test_base_scores_preserved(self, table):
        bonus = BonusVector({"low_income": 1.0, "ell": 0.0, "eni": 0.0})
        base = np.array([10.0, 20.0, 30.0, 40.0])
        adjusted = bonus.apply(table, base)
        assert adjusted.tolist() == [11.0, 20.0, 31.0, 40.0]
        assert base.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_shape_validation(self, table):
        bonus = BonusVector({"low_income": 1.0})
        with pytest.raises(ValueError):
            bonus.apply(table, np.zeros(3))

    def test_apply_bonus_function(self, table):
        bonus = BonusVector({"low_income": 1.0, "ell": 0.0, "eni": 0.0})
        assert apply_bonus(table, np.zeros(4), bonus).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_adjustments_zero_for_empty_vector(self, table):
        bonus = BonusVector({})
        assert bonus.adjustments(table).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_explain_components_sum_to_total(self, table):
        bonus = BonusVector({"low_income": 2.0, "ell": 1.0, "eni": 4.0})
        base = np.array([50.0, 60.0, 70.0, 80.0])
        explanation = bonus.explain(table, base, row=2)
        parts = [v for k, v in explanation.items() if k.startswith("bonus:")]
        assert explanation["total"] == pytest.approx(explanation["base_score"] + sum(parts))
        assert explanation["bonus:low_income"] == 2.0
        assert explanation["bonus:eni"] == pytest.approx(3.6)
