"""Unit tests for repro.core.sampling and repro.core.config."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from _dca_table_oracle import oracle_fit

from repro.core import (
    DCA,
    DCAConfig,
    DisparityObjective,
    SampleStream,
    rarest_group_frequency,
    recommended_sample_size,
)
from repro.tabular import Table

FAST = DCAConfig(seed=17, iterations=20, refinement_iterations=30, sample_size=400)


def _assert_fit_identical(left, right) -> None:
    assert np.array_equal(left.raw_bonus.values, right.raw_bonus.values)
    assert np.array_equal(left.core_bonus.values, right.core_bonus.values)
    assert np.array_equal(left.bonus.values, right.bonus.values)
    assert left.sample_size == right.sample_size
    for trace_l, trace_r in zip(left.traces, right.traces):
        assert trace_l.phase == trace_r.phase
        assert np.array_equal(trace_l.bonus_history, trace_r.bonus_history)
        assert np.array_equal(trace_l.objective_norms, trace_r.objective_norms)


class TestRarestGroupFrequency:
    def test_picks_the_rarest_binary_group(self):
        table = Table({"common": [1] * 50 + [0] * 50, "rare": [1] * 10 + [0] * 90})
        assert rarest_group_frequency(table, ["common", "rare"]) == pytest.approx(0.1)

    def test_majority_attribute_counts_its_complement(self):
        """Regression: a mean-0.9 attribute has a rarest group of 0.1 (the 0s).

        The old implementation reported the share of 1s only, so the
        ``max(1/k, 1/r)`` rule sized samples ~9x too small for majority-1
        attributes.
        """
        table = Table({"majority": [1] * 90 + [0] * 10})
        assert rarest_group_frequency(table, ["majority"]) == pytest.approx(0.1)

    def test_complement_considered_across_attributes(self):
        # 1s-frequency 0.8 → complement 0.2 is rarer than the other column's 0.3.
        table = Table({"mostly_on": [1] * 80 + [0] * 20, "flag": [1] * 30 + [0] * 70})
        assert rarest_group_frequency(table, ["mostly_on", "flag"]) == pytest.approx(0.2)

    def test_ignores_continuous_attributes(self):
        table = Table({"eni": np.linspace(0, 1, 100), "flag": [1] * 30 + [0] * 70})
        assert rarest_group_frequency(table, ["eni", "flag"]) == pytest.approx(0.3)

    def test_all_continuous_returns_one(self):
        table = Table({"eni": np.linspace(0, 1, 50)})
        assert rarest_group_frequency(table, ["eni"]) == 1.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            rarest_group_frequency(Table({"x": []}), ["x"])

    def test_all_ones_group_not_rarest(self):
        table = Table({"always": [1] * 20, "rare": [1] * 2 + [0] * 18})
        assert rarest_group_frequency(table, ["always", "rare"]) == pytest.approx(0.1)


class TestRecommendedSampleSize:
    def test_rule_follows_selection_fraction(self):
        # k = 1% needs 30 / 0.01 = 3000 rows.
        assert recommended_sample_size(0.01, 1.0) == 3000

    def test_rule_follows_rarest_group(self):
        # r = 10% needs 30 / 0.1 = 300 rows (k is not binding).
        assert recommended_sample_size(0.5, 0.1) == 300

    def test_maximum_of_both(self):
        assert recommended_sample_size(0.05, 0.1) == max(30 / 0.05, 30 / 0.1)

    def test_floor_applies(self):
        assert recommended_sample_size(0.9, 0.9, minimum=250) == 250

    def test_cap_applies(self):
        assert recommended_sample_size(0.001, 0.5, maximum=5000) == 5000

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            recommended_sample_size(0.0, 0.5)
        with pytest.raises(ValueError):
            recommended_sample_size(0.5, 0.0)
        with pytest.raises(ValueError):
            recommended_sample_size(0.5, 0.5, min_group_count=0)

    def test_paper_setting_scale(self):
        """The paper's setting (k=5%, rarest group 10%) needs a few hundred rows."""
        size = recommended_sample_size(0.05, 0.1)
        assert 300 <= size <= 700

    def test_cap_above_floor_leaves_floor_intact(self):
        # maximum > minimum: the floor applies as usual, no warning.
        assert recommended_sample_size(0.9, 0.9, minimum=250, maximum=10_000) == 250

    def test_cap_below_floor_wins_with_warning(self):
        """Regression: when maximum < minimum the cap must win, loudly.

        The old code silently returned a size below ``minimum``; the clamp
        order is now documented (cap last, cap wins) and announced.
        """
        with pytest.warns(UserWarning, match="cap"):
            size = recommended_sample_size(0.5, 0.5, minimum=100, maximum=40)
        assert size == 40

    def test_non_positive_cap_rejected(self):
        with pytest.raises(ValueError):
            recommended_sample_size(0.5, 0.5, maximum=0)


class TestSampleStream:
    def test_draw_size(self, rng):
        table = Table({"x": np.arange(100.0)})
        stream = SampleStream(table, 10, rng=rng)
        assert stream.draw().num_rows == 10

    def test_sample_size_capped_at_table_size(self, rng):
        table = Table({"x": np.arange(5.0)})
        stream = SampleStream(table, 50, rng=rng)
        assert stream.draw() is table

    def test_iteration_protocol(self, rng):
        table = Table({"x": np.arange(50.0)})
        stream = iter(SampleStream(table, 5, rng=rng))
        assert next(stream).num_rows == 5

    def test_draws_differ(self):
        table = Table({"x": np.arange(1000.0)})
        stream = SampleStream(table, 20, rng=np.random.default_rng(0))
        first = stream.draw().numeric("x")
        second = stream.draw().numeric("x")
        assert not np.array_equal(first, second)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            SampleStream(Table({"x": []}), 5, rng=rng)
        with pytest.raises(ValueError):
            SampleStream(Table({"x": [1.0]}), 0, rng=rng)

    def test_draw_indices_are_integer_arrays(self, rng):
        table = Table({"x": np.arange(200.0)})
        indices = SampleStream(table, 20, rng=rng).draw_indices()
        assert indices.dtype.kind == "i"
        assert indices.shape == (20,)
        assert np.all((0 <= indices) & (indices < 200))

    def test_draw_indices_identity_when_capped(self, rng):
        table = Table({"x": np.arange(5.0)})
        indices = SampleStream(table, 50, rng=rng).draw_indices()
        assert np.array_equal(indices, np.arange(5))

    def test_draw_and_draw_indices_share_rng_sequence(self):
        """The two faces of the stream must see the same sample sequence."""
        table = Table({"x": np.arange(500.0)})
        via_tables = SampleStream(table, 30, rng=np.random.default_rng(8))
        via_indices = SampleStream(table, 30, rng=np.random.default_rng(8))
        for _ in range(5):
            drawn = via_tables.draw().numeric("x")
            indices = via_indices.draw_indices()
            assert np.array_equal(drawn, table.numeric("x")[indices])


class TestDCAConfig:
    def test_defaults_are_valid(self):
        DCAConfig().validate()

    def test_learning_rates_must_decrease(self):
        with pytest.raises(ValueError):
            DCAConfig(learning_rates=(0.1, 1.0)).validate()

    def test_learning_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            DCAConfig(learning_rates=(1.0, -0.1)).validate()

    def test_learning_rates_required(self):
        with pytest.raises(ValueError):
            DCAConfig(learning_rates=()).validate()

    def test_iterations_positive(self):
        with pytest.raises(ValueError):
            DCAConfig(iterations=0).validate()

    def test_negative_refinement_rejected(self):
        with pytest.raises(ValueError):
            DCAConfig(refinement_iterations=-1).validate()

    def test_granularity_non_negative(self):
        with pytest.raises(ValueError):
            DCAConfig(granularity=-0.5).validate()

    def test_max_bonus_above_min(self):
        with pytest.raises(ValueError):
            DCAConfig(min_bonus=5.0, max_bonus=1.0).validate()

    def test_sample_size_positive_when_given(self):
        with pytest.raises(ValueError):
            DCAConfig(sample_size=0).validate()

    def test_without_refinement_copy(self):
        config = DCAConfig(seed=3, max_bonus=20.0)
        stripped = config.without_refinement()
        assert stripped.refinement_iterations == 0
        assert stripped.seed == 3
        assert stripped.max_bonus == 20.0
        assert config.refinement_iterations > 0  # original untouched


class TestRngBatching:
    """The opt-in per-phase RNG batching mode (satellite)."""

    def test_default_mode_is_per_step(self):
        assert DCAConfig().rng_batching == "per_step"

    def test_per_phase_is_deterministic(self, school_train, rubric, school_attributes):
        config = replace(FAST, rng_batching="per_phase")
        dca = DCA(school_attributes, rubric, k=0.05, config=config)
        first = dca.fit(school_train.table)
        second = dca.fit(school_train.table)
        _assert_fit_identical(first, second)

    def test_per_phase_differs_from_per_step(self, school_train, rubric, school_attributes):
        """The documented history break: batched draws change the stream."""
        per_step = DCA(school_attributes, rubric, k=0.05, config=FAST).fit(school_train.table)
        per_phase = DCA(
            school_attributes, rubric, k=0.05, config=replace(FAST, rng_batching="per_phase")
        ).fit(school_train.table)
        assert not np.array_equal(per_step.raw_bonus.values, per_phase.raw_bonus.values)

    def test_per_phase_engines_agree(self, school_train, rubric, school_attributes):
        """The array loop and the table-slicing oracle consume the batched stream identically."""
        config = replace(FAST, rng_batching="per_phase")
        result = DCA(school_attributes, rubric, k=0.05, config=config).fit(school_train.table)
        reference = oracle_fit(
            school_train.table, rubric, DisparityObjective(school_attributes), 0.05, config
        )
        _assert_fit_identical(result, reference)

    def test_draw_phase_indices_one_matrix(self):
        stream = SampleStream(1000, 50, rng=np.random.default_rng(3))
        matrix = stream.draw_phase_indices(7)
        assert matrix.shape == (7, 50)
        assert matrix.dtype == np.int64
        assert matrix.min() >= 0 and matrix.max() < 1000
        # Same seed, same single generator call -> same matrix.
        again = SampleStream(1000, 50, rng=np.random.default_rng(3)).draw_phase_indices(7)
        assert np.array_equal(matrix, again)

    def test_draw_phase_indices_full_population_consumes_no_rng(self):
        rng = np.random.default_rng(3)
        stream = SampleStream(40, 40, rng=rng)
        matrix = stream.draw_phase_indices(3)
        assert matrix.shape == (3, 40)
        assert np.array_equal(matrix[0], np.arange(40))
        # The RNG state is untouched, mirroring draw_indices.
        assert np.array_equal(
            rng.integers(0, 100, size=4), np.random.default_rng(3).integers(0, 100, size=4)
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="rng_batching"):
            DCAConfig(rng_batching="per_fit").validate()
