"""Unit and behaviour tests for DCA: the core passes, the refinement step, and
the full-data oracle that the sampled fit's convergence is held to."""

from __future__ import annotations

import time
from functools import partial

import numpy as np
import pytest
from _dca_table_oracle import oracle_full_fit

from repro.core import (
    DCA,
    DCAConfig,
    DisparityCalculator,
    DisparityObjective,
    use_execution,
)
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)
from repro.ranking import ColumnScore
from repro.scenarios.corpus import CORPUS_K, corpus_scenarios
from repro.scenarios.market import generate_market
from repro.tabular import Table


def biased_population(n: int = 2000, seed: int = 0) -> Table:
    """A simple population where the protected group scores one point lower."""
    rng = np.random.default_rng(seed)
    protected = (rng.uniform(size=n) < 0.3).astype(float)
    score = rng.normal(10.0, 2.0, size=n) - 2.0 * protected
    return Table({"score": score, "protected": protected})


class TestDCAValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DCA(["protected"], ColumnScore("score"), k=0.0)

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            DCA([], ColumnScore("score"), k=0.1)

    def test_empty_table_rejected(self):
        dca = DCA(["protected"], ColumnScore("score"), k=0.1, config=DCAConfig(seed=0))
        with pytest.raises(ValueError):
            dca.fit(Table({"score": [], "protected": []}))

    def test_objective_attribute_order_must_match(self):
        """The fit follows the objective's attribute order while the result is
        labelled with the fairness attributes, so a reordered objective is
        rejected up front."""
        with pytest.raises(ValueError, match="must match the fairness attributes"):
            DCA(("b", "a"), ColumnScore("score"), k=0.2, objective=DisparityObjective(("a", "b")))


def core_fit(table: Table, config: DCAConfig):
    """Algorithm 1 alone: a DCA fit with the refinement pass switched off."""
    dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=config.without_refinement())
    return dca.fit(table)


class TestCoreDCA:
    def test_reduces_disparity_on_biased_population(self):
        table = biased_population()
        config = DCAConfig(seed=1, iterations=80, sample_size=400)
        result = core_fit(table, config)
        calculator = DisparityCalculator(["protected"]).fit(table)
        before = calculator.disparity(table, table.numeric("score"), 0.2)
        scores = result.raw_bonus.apply(table, table.numeric("score"))
        after = calculator.disparity(table, scores, 0.2)
        assert abs(after["protected"]) < abs(before["protected"]) / 2

    def test_bonus_stays_non_negative(self):
        table = biased_population()
        config = DCAConfig(seed=2, iterations=50, sample_size=300)
        result = core_fit(table, config)
        assert np.all(result.raw_bonus.values >= 0.0)
        for trace in result.traces:
            assert np.all(trace.bonus_history >= 0.0)

    def test_traces_have_one_entry_per_learning_rate(self):
        table = biased_population(500)
        config = DCAConfig(seed=3, iterations=10, sample_size=200)
        result = core_fit(table, config)
        assert len(result.traces) == len(config.learning_rates)
        assert all(trace.iterations == config.iterations for trace in result.traces)
        assert np.array_equal(result.raw_bonus.values, result.core_bonus.values)

    def test_respects_max_bonus(self):
        table = biased_population()
        config = DCAConfig(seed=4, iterations=60, sample_size=300, max_bonus=0.5)
        result = core_fit(table, config)
        assert np.all(result.raw_bonus.values <= 0.5 + 1e-12)

    def test_sample_size_rule_used_when_not_fixed(self):
        table = biased_population()
        config = DCAConfig(seed=5, iterations=5, sample_size=None)
        # rarest group ≈ 30%, k = 20% → max(30/0.2, 30/0.3) = 150, floored at 100.
        assert core_fit(table, config).sample_size >= 100


class TestDCAFacade:
    @pytest.fixture(scope="class")
    def fitted(self):
        table = biased_population()
        config = DCAConfig(seed=11, iterations=60, refinement_iterations=80, sample_size=400)
        dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=config)
        return table, dca, dca.fit(table)

    def test_result_contains_all_attributes(self, fitted):
        _, _, result = fitted
        assert result.attribute_names == ("protected",)
        assert set(result.as_dict()) == {"protected"}

    def test_disparity_nearly_eliminated(self, fitted):
        table, dca, result = fitted
        calculator = DisparityCalculator(["protected"]).fit(table)
        compensated = dca.compensated_scores(table, result.bonus)
        after = calculator.disparity(table, compensated, 0.2)
        assert abs(after["protected"]) < 0.03

    def test_bonus_rounded_to_granularity(self, fitted):
        _, _, result = fitted
        for value in result.bonus.values:
            assert value == pytest.approx(round(value / 0.5) * 0.5)

    def test_raw_bonus_close_to_rounded(self, fitted):
        _, _, result = fitted
        assert np.all(np.abs(result.raw_bonus.values - result.bonus.values) <= 0.25 + 1e-9)

    def test_traces_cover_core_and_refinement(self, fitted):
        _, _, result = fitted
        phases = [trace.phase for trace in result.traces]
        assert any(phase.startswith("core") for phase in phases)
        assert "refinement" in phases

    def test_elapsed_and_sample_size_recorded(self, fitted):
        _, _, result = fitted
        assert result.elapsed_seconds > 0
        assert result.sample_size == 400

    def test_summary_mentions_all_attributes(self, fitted):
        _, _, result = fitted
        assert "protected" in result.summary()

    def test_deterministic_given_seed(self):
        table = biased_population()
        config = DCAConfig(seed=42, iterations=40, refinement_iterations=40, sample_size=300)
        first = DCA(["protected"], ColumnScore("score"), k=0.2, config=config).fit(table)
        second = DCA(["protected"], ColumnScore("score"), k=0.2, config=config).fit(table)
        assert first.as_dict() == second.as_dict()

    def test_refinement_improves_over_core(self):
        """On the school-sized problem the refinement should not hurt, and
        typically improves the residual disparity (paper Figure 8a)."""
        table = biased_population(4000, seed=9)
        base = DCAConfig(seed=7, iterations=60, sample_size=400, refinement_iterations=120)
        core_only = base.without_refinement()
        calculator = DisparityCalculator(["protected"]).fit(table)

        def residual(config):
            result = DCA(["protected"], ColumnScore("score"), k=0.1, config=config).fit(table)
            scores = result.bonus.apply(table, table.numeric("score"))
            return abs(calculator.disparity(table, scores, 0.1)["protected"])

        assert residual(base) <= residual(core_only) + 0.02


class TestOneFitPath:
    """``DCA.fit`` is a batch of one: the planner and group runner of ``fit_many``."""

    CONFIG = DCAConfig(seed=13, iterations=20, refinement_iterations=20, sample_size=250)

    def test_fit_leaves_the_callers_objective_unfitted(self):
        table = biased_population(800)
        objective = DisparityObjective(["protected"])
        dca = DCA(
            ["protected"], ColumnScore("score"), k=0.2, objective=objective, config=self.CONFIG
        )
        dca.fit(table)
        assert not objective.calculator.normalizer.is_fitted

    def test_fit_runs_in_process_under_an_ambient_pool(self, monkeypatch):
        import repro.core.dca as dca_module

        table = biased_population(800)
        dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=self.CONFIG)
        serial = dca.fit(table)
        pools = []
        monkeypatch.setattr(
            dca_module, "execute_process_jobs", lambda *args: pools.append(args) or []
        )
        with use_execution("process", 2):
            ambient = dca.fit(table)
        assert pools == []
        assert np.array_equal(ambient.raw_bonus.values, serial.raw_bonus.values)

    def test_two_fits_on_one_cohort_compile_once(self, cleared_objective_cache):
        table = biased_population(800)
        dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=self.CONFIG)
        first, second = dca.fit(table), dca.fit(table)
        assert (cleared_objective_cache.misses, cleared_objective_cache.hits) == (1, 1)
        assert np.array_equal(first.raw_bonus.values, second.raw_bonus.values)

    def test_elapsed_seconds_covers_the_compile(self, cleared_objective_cache, monkeypatch):
        """The compile happens in the planner, outside the group runner's clock."""
        compile_seconds = []
        original = DisparityObjective.compile

        def slow_compile(objective, table):
            start = time.perf_counter()
            time.sleep(0.1)
            compiled = original(objective, table)
            compile_seconds.append(time.perf_counter() - start)
            return compiled

        monkeypatch.setattr(DisparityObjective, "compile", slow_compile)
        table = biased_population(800)
        result = DCA(["protected"], ColumnScore("score"), k=0.2, config=self.CONFIG).fit(table)
        assert len(compile_seconds) == 1
        assert result.elapsed_seconds >= compile_seconds[0]


class TestFullDataOracle:
    """The no-sampling variant of Theorem 4.1, kept as a test oracle."""

    def test_full_fit_eliminates_disparity(self):
        table = biased_population(1500)
        config = DCAConfig(seed=2, iterations=60, refinement_iterations=0)
        result = oracle_full_fit(
            table, ColumnScore("score"), DisparityObjective(["protected"]), 0.2, config
        )
        calculator = DisparityCalculator(["protected"]).fit(table)
        scores = result.bonus.apply(table, table.numeric("score"))
        assert abs(calculator.disparity(table, scores, 0.2)["protected"]) < 0.05

    def test_full_fit_is_deterministic(self):
        table = biased_population(800)
        config = DCAConfig(seed=3, iterations=30, refinement_iterations=0)
        a, b = (
            oracle_full_fit(
                table, ColumnScore("score"), DisparityObjective(["protected"]), 0.2, config
            )
            for _ in range(2)
        )
        assert a.as_dict() == b.as_dict()

    def test_full_fit_uses_whole_dataset(self):
        table = biased_population(800)
        config = DCAConfig(seed=4, iterations=10, refinement_iterations=0)
        result = oracle_full_fit(
            table, ColumnScore("score"), DisparityObjective(["protected"]), 0.2, config
        )
        assert result.sample_size == table.num_rows

    def test_step_cap_and_plateau_stop(self):
        table = biased_population(800)
        config = DCAConfig(seed=4, iterations=10)
        objective = DisparityObjective(["protected"])
        capped = oracle_full_fit(table, ColumnScore("score"), objective, 0.2, config, max_steps=7)
        assert [trace.iterations for trace in capped.traces] == [7, 7]
        stopped = oracle_full_fit(
            table, ColumnScore("score"), objective, 0.2, config, max_steps=5000, patience=25
        )
        for trace in stopped.traces:
            norms = trace.objective_norms
            # It stopped exactly 25 steps after the pass's best norm, well before the cap.
            assert trace.iterations == int(np.argmin(norms)) + 26 < 5000


#: A default sampled fit's raw bonus must reach a full-population disparity
#: norm within this factor of the best norm the converged full-data descent
#: reaches.  Calibrated over seeds 0-9 added to each case's seed: every corpus
#: market came within 1.06x (their 500-row default sample covers the whole
#: market, so only the refinement and its averaging differ from full-data
#: descent; tie_storm is the 1.06x), and the 2000-student school cohort at
#: k = 0.05, whose 500-row samples hold 25 selected students, reached 2.1-4.5x
#: (4.25x at the pinned seed).  The random initial bonus, which a fit that
#: never stepped would publish, sits 10.9-58x above on every case but tie_storm.
CONVERGENCE_FACTOR = 6.0
#: The full-data descent runs each learning rate until its signal norm has
#: gone PLATEAU_STEPS steps without a new minimum; no pass reached the cap.
FULL_STEP_CAP = 2000
PLATEAU_STEPS = 200


def _corpus_case(scenario):
    market = generate_market(scenario, trial=0)
    return (
        market.table,
        market.fairness_attributes,
        market.score_function(),
        CORPUS_K,
        scenario.seed * 1_000,
    )


def _school_case():
    cohort = generate_school_cohort("contract", SchoolGeneratorConfig(num_students=2_000), seed=3)
    return cohort.table, SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), 0.05, 7


CONVERGENCE_CASES = [
    pytest.param(partial(_corpus_case, scenario), id=scenario.name)
    for scenario in corpus_scenarios()
] + [pytest.param(_school_case, id="school_2000")]


class TestConvergenceContract:
    """Sampled DCA reaches what the full objective can reach (§IV-D, Lemmas 4.2-4.5).

    The published-bonus version of this contract waits for the rounding fix
    on ``tie_storm``, whose published bonus is (0, 0).
    """

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("case", CONVERGENCE_CASES)
    def test_sampled_raw_bonus_within_factor_of_full_data(self, case):
        table, attributes, score_function, k, seed = case()
        config = DCAConfig(seed=seed)
        sampled = DCA(attributes, score_function, k, config=config).fit(table)
        full = oracle_full_fit(
            table,
            score_function,
            DisparityObjective(attributes),
            k,
            config,
            max_steps=FULL_STEP_CAP,
            patience=PLATEAU_STEPS,
        )
        assert all(trace.iterations < FULL_STEP_CAP for trace in full.traces)
        converged = min(float(trace.objective_norms.min()) for trace in full.traces)
        objective = DisparityObjective(attributes).fit(table)
        base = np.asarray(score_function.scores(table), dtype=float)
        reached = objective.evaluate(table, sampled.raw_bonus.apply(table, base), k).norm
        assert reached <= CONVERGENCE_FACTOR * converged, (
            f"sampled raw norm {reached:.4f} vs converged full-data norm {converged:.4f}"
        )


class TestMultiAttribute:
    def test_overlapping_attributes_both_compensated(self):
        """Two correlated protected attributes both reach near-parity."""
        rng = np.random.default_rng(5)
        n = 3000
        a = (rng.uniform(size=n) < 0.3).astype(float)
        b = ((rng.uniform(size=n) < 0.5) & (a > 0)).astype(float)  # subset of a
        b += ((rng.uniform(size=n) < 0.1) & (a == 0)).astype(float)
        b = np.clip(b, 0, 1)
        score = rng.normal(10, 2, size=n) - 1.5 * a - 1.0 * b
        table = Table({"score": score, "a": a, "b": b})
        config = DCAConfig(seed=6, iterations=80, refinement_iterations=120, sample_size=500)
        result = DCA(["a", "b"], ColumnScore("score"), k=0.2, config=config).fit(table)
        calculator = DisparityCalculator(["a", "b"]).fit(table)
        compensated = result.bonus.apply(table, table.numeric("score"))
        after = calculator.disparity(table, compensated, 0.2)
        assert abs(after["a"]) < 0.05
        assert abs(after["b"]) < 0.05
