"""Seed-for-seed equivalence of the array step loop and the table-slicing oracle.

The array step loop of :mod:`repro.core.dca` must be a pure re-plumbing of
the per-step table-slicing evaluation kept in ``tests/_dca_table_oracle.py``:
both consume the RNG through the same sample stream and perform the same
arithmetic on the same values, so for any seed the produced bonus vectors
are required to be *bitwise* identical — not merely close.  These tests pin
that contract for every phase class, for :class:`FullDCA`, for the process
backend of ``fit_many`` and for every built-in objective, plus a custom
table-only objective exercising the compiled fallback wrapper.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from _dca_table_oracle import (
    OracleSearch,
    oracle_core,
    oracle_fit,
    oracle_full_fit,
    oracle_refinement,
)

from repro.core import (
    DCA,
    CoreDCA,
    DCAConfig,
    DCARefinement,
    DisparateImpactObjective,
    DisparityObjective,
    DisparityResult,
    ExposureGapObjective,
    FairnessObjective,
    FalsePositiveRateObjective,
    FullDCA,
    LogDiscountedDisparityObjective,
)
from repro.ranking import ColumnScore
from repro.tabular import Table


def _assert_same_fit(result, reference) -> None:
    assert np.array_equal(result.core_bonus.values, reference.core_bonus.values)
    assert np.array_equal(result.raw_bonus.values, reference.raw_bonus.values)
    assert np.array_equal(result.bonus.values, reference.bonus.values)
    assert result.bonus.attribute_names == reference.bonus.attribute_names
    assert len(result.traces) == len(reference.traces)
    for trace, expected in zip(result.traces, reference.traces):
        assert trace.phase == expected.phase
        assert np.array_equal(trace.bonus_history, expected.bonus_history)
        assert np.array_equal(trace.objective_norms, expected.objective_norms)


@pytest.fixture(scope="module")
def school_setup(school_train, rubric, school_attributes):
    return school_train.table, rubric, school_attributes


class TestSchoolDatasetEquivalence:
    """The acceptance setting: the school cohort, loop against oracle, every phase."""

    CONFIG = DCAConfig(seed=17, iterations=40, refinement_iterations=60, sample_size=400)

    def test_core_dca_identical(self, school_setup):
        table, rubric, attributes = school_setup
        objective = DisparityObjective(attributes).fit(table)
        values, traces = CoreDCA(table, rubric, objective, k=0.05, config=self.CONFIG).run()
        oracle = OracleSearch(
            table, rubric, DisparityObjective(attributes).fit(table), 0.05, self.CONFIG
        )
        expected, expected_traces = oracle_core(oracle)
        assert np.array_equal(values, expected)
        for trace, reference in zip(traces, expected_traces):
            assert np.array_equal(trace.bonus_history, reference.bonus_history)

    def test_refinement_identical(self, school_setup):
        table, rubric, attributes = school_setup
        initial = np.asarray([1.0, 5.0, 3.0, 2.0][: len(attributes)], dtype=float)
        objective = DisparityObjective(attributes).fit(table)
        refinement = DCARefinement(table, rubric, objective, k=0.05, config=self.CONFIG)
        values, _ = refinement.run(initial)
        oracle = OracleSearch(
            table, rubric, DisparityObjective(attributes).fit(table), 0.05, self.CONFIG
        )
        expected, _ = oracle_refinement(oracle, initial)
        assert np.array_equal(values, expected)

    def test_full_dca_identical(self, school_setup):
        table, rubric, attributes = school_setup
        config = DCAConfig(seed=5, iterations=15, refinement_iterations=0)
        result = FullDCA(attributes, rubric, k=0.05, config=config).fit(table)
        reference = oracle_full_fit(table, rubric, DisparityObjective(attributes), 0.05, config)
        _assert_same_fit(result, reference)
        assert result.as_dict() == reference.as_dict()

    def test_dca_facade_identical_end_to_end(self, school_setup):
        table, rubric, attributes = school_setup
        result = DCA(attributes, rubric, k=0.05, config=self.CONFIG).fit(table)
        reference = oracle_fit(table, rubric, DisparityObjective(attributes), 0.05, self.CONFIG)
        _assert_same_fit(result, reference)


def _synthetic_population(n: int = 2500, seed: int = 3) -> Table:
    rng = np.random.default_rng(seed)
    group_a = (rng.uniform(size=n) < 0.25).astype(float)
    group_b = (rng.uniform(size=n) < 0.6).astype(float)
    label = (rng.uniform(size=n) < 0.4).astype(float)
    score = rng.normal(10.0, 2.0, size=n) - 1.5 * group_a - 0.5 * group_b
    return Table(
        {"score": score, "group_a": group_a, "group_b": group_b, "label": label}
    )


class TestObjectiveEquivalence:
    """Every built-in objective compiles to the exact same arithmetic."""

    CONFIG = DCAConfig(seed=29, iterations=30, refinement_iterations=40, sample_size=300)

    @pytest.mark.parametrize(
        "make_objective",
        [
            lambda: DisparityObjective(("group_a", "group_b")),
            lambda: LogDiscountedDisparityObjective(("group_a", "group_b")),
            lambda: DisparateImpactObjective(("group_a", "group_b")),
            lambda: FalsePositiveRateObjective(("group_a", "group_b"), label_column="label"),
            lambda: ExposureGapObjective(("group_a", "group_b")),
        ],
        ids=["disparity", "log-discounted", "disparate-impact", "fpr", "exposure"],
    )
    def test_fit_identical_across_engines(self, make_objective):
        table = _synthetic_population()
        dca = DCA(
            ("group_a", "group_b"),
            ColumnScore("score"),
            k=0.2,
            objective=make_objective(),
            config=self.CONFIG,
        )
        result = dca.fit(table)
        reference = oracle_fit(table, ColumnScore("score"), make_objective(), 0.2, self.CONFIG)
        _assert_same_fit(result, reference)


class _TableOnlyObjective(FairnessObjective):
    """A custom objective with no compiled form: exercises the fallback path."""

    def evaluate(self, table, scores, k):
        from repro.ranking import selection_mask

        mask = selection_mask(np.asarray(scores, dtype=float), k)
        values = np.zeros(len(self.attribute_names))
        for i, name in enumerate(self.attribute_names):
            member = table.numeric(name) > 0.5
            if member.any():
                values[i] = float(mask[member].mean() - mask.mean())
        return DisparityResult(self.attribute_names, values)


class TestProcessBackendEquivalence:
    """The process backend closes the loop with the oracle.

    ``fit_many(executor="process")`` must agree bitwise with per-job oracle
    fits: worker results travel population plane → array loop → table
    oracle without a single bit of drift.
    """

    CONFIG = DCAConfig(seed=23, iterations=30, refinement_iterations=40, sample_size=300)

    def test_process_backend_matches_table_engine_fits(self, school_setup):
        table, rubric, attributes = school_setup
        ks = (0.05, 0.1)
        seeds = (3, 4)
        dca = DCA(attributes, rubric, k=0.05, config=self.CONFIG)
        batch = dca.fit_many(table, ks=ks, seeds=seeds, executor="process", max_workers=2)
        references = [
            oracle_fit(
                table, rubric, DisparityObjective(attributes), k, replace(self.CONFIG, seed=seed)
            )
            for k in ks
            for seed in seeds
        ]
        assert len(batch) == len(references)
        for entry, reference in zip(batch, references):
            _assert_same_fit(entry.result, reference)


class TestCustomObjectiveFallback:
    def test_custom_objective_runs_under_array_engine(self):
        table = _synthetic_population(1200)
        config = DCAConfig(seed=11, iterations=20, refinement_iterations=20, sample_size=200)
        dca = DCA(
            ("group_a",),
            ColumnScore("score"),
            k=0.2,
            objective=_TableOnlyObjective(("group_a",)),
            config=config,
        )
        result = dca.fit(table)
        reference = oracle_fit(
            table, ColumnScore("score"), _TableOnlyObjective(("group_a",)), 0.2, config
        )
        _assert_same_fit(result, reference)
        assert result.bonus["group_a"] >= 0.0
