"""Tests for the experiment harness, settings, experiment modules, and CLI.

The experiment modules are exercised at reduced scale (small synthetic
cohorts, short k grids) — the goal here is to verify that every paper
artefact can be regenerated and that the headline qualitative findings hold,
not to re-run the full-scale benchmarks (that is what ``benchmarks/`` does).
"""

from __future__ import annotations

import functools
import sys
import warnings

import numpy as np
import pytest

from repro.core import DCA, current_execution, use_execution
from repro.datasets import clear_dataset_cache
from repro.experiments import (
    BATCHED_EXPERIMENTS,
    EXPERIMENT_RUNNERS,
    CompasSetting,
    ExperimentResult,
    SchoolSetting,
    format_table,
)
from repro.experiments import (
    exposure_ddp,
    fig1_ndcg,
    matching_admissions,
    fig2_fig3_proportion,
    fig4_vary_k,
    fig5_caps,
    fig6_quota,
    fig7_delta2,
    fig8_refinement,
    fig9_disparate_impact,
    fig10_compas,
    scenario_stress,
    table1,
    table2,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.harness import get_experiment, register_experiment
from repro.scenarios import builtin_scenarios

SMALL = 8_000  # cohort size used for experiment smoke tests
SHORT_SWEEP = (0.05, 0.2, 0.5)


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


@pytest.fixture(autouse=True)
def _batched_experiments_match_the_code(monkeypatch):
    """Every runner call in this module checks ``BATCHED_EXPERIMENTS`` against the code.

    An experiment is listed (and so takes ``--executor``/``--workers``)
    exactly when its runner calls ``DCA.fit_many``, so a runner that starts
    or stops batching cannot drift out of the CLI's flag contract.
    """
    running: list[list] = []  # [experiment name, called fit_many] per active runner
    original_fit_many = DCA.fit_many

    def fit_many(self, *args, **kwargs):
        for frame in running:
            frame[1] = True
        return original_fit_many(self, *args, **kwargs)

    def checked(name, runner):
        @functools.wraps(runner)
        def run(*args, **kwargs):
            running.append([name, False])
            try:
                result = runner(*args, **kwargs)
            finally:
                _, called = running.pop()
            assert called == (name in BATCHED_EXPERIMENTS), (
                f"{name}: calls DCA.fit_many={called}, "
                f"listed in BATCHED_EXPERIMENTS={name in BATCHED_EXPERIMENTS}"
            )
            return result

        return run

    monkeypatch.setattr(DCA, "fit_many", fit_many)
    for name, runner in list(EXPERIMENT_RUNNERS.items()):
        wrapped = checked(name, runner)
        monkeypatch.setattr(sys.modules[runner.__module__], runner.__name__, wrapped)
        monkeypatch.setitem(EXPERIMENT_RUNNERS, name, wrapped)


class TestHarness:
    def test_format_table_alignment(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 22.5, "b": "yy"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_experiment_result_accessors(self):
        result = ExperimentResult("x", "desc")
        result.add_table("t", [{"a": 1}])
        result.add_note("note")
        assert result.table("t") == [{"a": 1}]
        with pytest.raises(KeyError):
            result.table("missing")
        formatted = result.format()
        assert "x" in formatted and "note" in formatted

    def test_register_and_get_experiment(self):
        register_experiment("dummy", lambda: ExperimentResult("dummy", ""))
        assert get_experiment("dummy")().name == "dummy"
        with pytest.raises(KeyError):
            get_experiment("never-registered")
        with pytest.raises(ValueError):
            register_experiment("", lambda: None)

    def test_runner_registry_covers_all_paper_artifacts(self):
        expected = {"table1", "table2", "fig1", "fig2_fig3", "fig4", "fig5", "fig6",
                    "fig7", "fig8", "fig9", "fig10", "exposure_ddp", "ablations"}
        assert expected.issubset(set(EXPERIMENT_RUNNERS))


class TestSettings:
    def test_school_setting_caches_scores(self):
        setting = SchoolSetting(num_students=SMALL)
        first = setting.base_scores("train")
        second = setting.base_scores("train")
        assert first is second
        with pytest.raises(ValueError):
            setting.cohort("validation")

    def test_compas_setting_basics(self):
        setting = CompasSetting(num_defendants=2_000)
        assert setting.table.num_rows == 2_000
        assert setting.base_scores().shape == (2_000,)


class TestSchoolExperiments:
    def test_table1_shape_holds(self):
        result = table1.run(num_students=SMALL)
        baseline = result.table("baseline disparity")
        dca_rows = result.table("DCA (with refinement)")
        assert baseline[0]["norm"] > 0.25
        # Last two rows are train/test disparities after compensation.
        assert dca_rows[1]["norm"] < baseline[0]["norm"] / 3
        assert dca_rows[2]["norm"] < baseline[1]["norm"] / 3

    def test_fig1_ndcg_stays_high(self):
        result = fig1_ndcg.run(num_students=SMALL, k_values=SHORT_SWEEP)
        rows = result.table("fig 1: nDCG@k")
        assert len(rows) == len(SHORT_SWEEP)
        assert all(row["ndcg"] > 0.8 for row in rows)

    def test_fig2_fig3_tradeoff_monotone_ends(self):
        result = fig2_fig3_proportion.run(
            num_students=SMALL, proportions=[0.0, 0.5, 1.0]
        )
        fig2 = result.table("fig 2: nDCG and disparity norm vs proportion")
        assert fig2[0]["ndcg"] == pytest.approx(1.0)
        assert fig2[-1]["disparity_norm"] < fig2[0]["disparity_norm"]
        fig3 = result.table("fig 3: per-attribute disparity vs proportion")
        assert set(fig3[0]) >= {"proportion", "low_income", "ell", "special_ed", "norm"}

    def test_fig4_regimes_ordered_as_expected(self):
        result = fig4_vary_k.run(num_students=SMALL, k_values=SHORT_SWEEP, assumed_k=0.05)
        per_k = {row["k"]: row["norm"] for row in result.table("fig 4a: k known in advance")}
        baseline = {row["k"]: row["norm"] for row in result.table("baseline (no bonus)")}
        for k in SHORT_SWEEP:
            assert per_k[k] < baseline[k]
        fixed = {row["k"]: row["norm"] for row in result.table("fig 4b: bonus optimized for k=5%")}
        assert fixed[0.05] < baseline[0.05] / 2

    def test_fig5_larger_caps_reduce_disparity(self):
        result = fig5_caps.run(num_students=SMALL, caps=(0.0, 5.0, 20.0), max_k=0.3)
        rows = result.table("fig 5: discounted disparity vs max bonus")
        assert rows[0]["norm"] > rows[-1]["norm"]

    def test_fig6_quota_helps_but_less_than_dca(self):
        quota = fig6_quota.run(num_students=SMALL, k_values=(0.05,))
        quota_norm = quota.table("fig 6: quota-system disparity")[0]["norm"]
        dca = table1.run(num_students=SMALL)
        dca_norm = dca.table("DCA (with refinement)")[2]["norm"]
        baseline_norm = dca.table("baseline disparity")[1]["norm"]
        assert quota_norm < baseline_norm
        assert dca_norm < quota_norm

    def test_fig7_delta2_comparable_to_dca(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fig7_delta2.run(num_students=SMALL, proportions=[1.0])
        # DCA's own composition is always feasible: (Δ+2) never relaxes it.
        assert not [w for w in caught if "constraints infeasible" in str(w.message)]
        rows = result.table("fig 7: DCA vs (Δ+2)")
        by_method = {row["method"]: row for row in rows}
        assert by_method["(Δ+2)"]["disparity_norm"] <= by_method["DCA"]["disparity_norm"] + 0.1
        assert by_method["(Δ+2)"]["ndcg"] > 0.8

    def test_fig7_ndcg_scores_the_greedy_order(self):
        # One protected item (index 2) must lead the prefix of length 1, so
        # the greedy order [2, 0] differs from the score order [0, 1].
        from repro.baselines import DeltaTwoReranker, PrefixConstraints
        from repro.metrics import ndcg_at_k
        from repro.tabular import Table

        base = np.array([4.0, 3.0, 2.0, 1.0])
        table = Table({"not_protected": np.array([1.0, 1.0, 0.0, 0.0])})
        constraints = PrefixConstraints(("not_protected",), np.array([[0], [1]]))
        order = DeltaTwoReranker(constraints).rerank(table, base)
        assert order.tolist() == [2, 0]

        scores = fig7_delta2.order_scores(base, order)
        assert np.lexsort((np.arange(4), -scores))[:2].tolist() == [2, 0]
        gains = base - base.min()
        expected = (gains[2] + gains[0] / np.log2(3)) / (gains[0] + gains[1] / np.log2(3))
        assert ndcg_at_k(base, scores, 0.5) == pytest.approx(expected)
        # Scoring only the selected set would rank it [0, 2] and overstate nDCG.
        set_scores = base + np.isin(np.arange(4), order) * 10.0
        assert ndcg_at_k(base, set_scores, 0.5) > ndcg_at_k(base, scores, 0.5)

    def test_fig8_refinement_not_worse(self):
        result = fig8_refinement.run(
            num_students=SMALL, k_values=(0.05, 0.3), use_rule_based_sample_size=False
        )
        rows = result.table("fig 8a: disparity with and without refinement")
        unrefined = [r["norm"] for r in rows if r["series"].startswith("Core")]
        refined = [r["norm"] for r in rows if r["series"].startswith("DCA")]
        assert np.mean(refined) <= np.mean(unrefined) + 0.02
        timings = result.table("fig 8b: runtime with and without refinement")
        assert all(row["refined_seconds"] >= row["unrefined_seconds"] * 0.5 for row in timings)

    def test_fig9_both_objectives_reduce_both_metrics(self):
        result = fig9_disparate_impact.run(num_students=SMALL, k_values=(0.05, 0.3))
        rows = result.table("fig 9: disparity vs disparate impact optimization")
        assert {row["series"] for row in rows} == {"disparity-driven", "DI-driven"}
        assert all(row["disparity_norm"] < 0.35 for row in rows)

    def test_table2_dca_beats_multinomial_fair(self):
        setting_result = table2.run(num_students=30_000, district=20)
        rows = {row["method"]: row for row in setting_result.table("table II")}
        assert rows["DCA"]["norm"] < rows["Baseline"]["norm"]
        assert rows["Multinomial FA*IR"]["norm"] < rows["Baseline"]["norm"]
        assert rows["DCA"]["norm"] <= rows["Multinomial FA*IR"]["norm"] + 0.05

    def test_exposure_ddp_reduced(self):
        result = exposure_ddp.run(num_students=SMALL, max_k=0.3)
        rows = result.table("DDP before/after")
        assert rows[1]["ddp"] < rows[0]["ddp"]
        # Regression: the experiment compares each protected group against
        # its complement — the reported baseline must equal a direct DDP
        # computation with the complement masks included (and member-only
        # DDP is strictly smaller here, so the fix is observable).
        from repro.metrics import ddp

        setting = SchoolSetting(num_students=SMALL)
        attributes = ("low_income", "ell", "special_ed")
        scores = setting.base_scores("test")
        expected = ddp(setting.test.table, scores, attributes, include_complements=True)
        assert rows[0]["ddp"] == pytest.approx(expected)
        assert ddp(setting.test.table, scores, attributes) < expected

    def test_matching_setting_rejects_bad_knobs_before_fitting(self):
        # A typo'd proposing side must fail at construction, not after the
        # per-school DCA fits have already burned minutes at district scale;
        # there is no engine selector left to pass.
        with pytest.raises(TypeError, match="engine"):
            matching_admissions.MatchingSetting(num_students=4_000, engine="vector")
        with pytest.raises(ValueError, match="unknown proposing side"):
            matching_admissions.MatchingSetting(num_students=4_000, proposing="school")

    def test_matching_admissions_pipeline_school_proposing_vector(self):
        # The school-optimal variant runs the whole pipeline; the headline
        # demographics finding must hold there too.
        result = matching_admissions.run(
            num_students=SMALL,
            num_schools=4,
            list_length=4,
            proposing="schools",
        )
        gaps = {
            row["series"]: row["gap"]
            for row in result.table("representation gap vs population (mean abs deviation)")
        }
        assert gaps["with bonus points"] < gaps["uncorrected rubric"] / 2
        assert any("proposing=schools" in note for note in result.notes)

    def test_matching_admissions_pipeline(self):
        result = matching_admissions.run(num_students=SMALL, num_schools=4, list_length=4)
        gaps = {
            row["series"]: row["gap"]
            for row in result.table("representation gap vs population (mean abs deviation)")
        }
        # The headline finding: bonus points pull every school's admitted
        # class toward the population shares.
        assert gaps["with bonus points"] < gaps["uncorrected rubric"] / 2
        for label in (
            "admitted demographics (uncorrected rubric)",
            "admitted demographics (with bonus points)",
        ):
            rows = result.table(label)
            assert len(rows) == 4
            assert all(row["admitted"] <= row["seats"] for row in rows)
        ranks = result.table("rank of match")
        for row in ranks:
            matched_and_unmatched = sum(v for key, v in row.items() if key != "series")
            assert matched_and_unmatched == SMALL


class TestScenarioStress:
    def test_armed_run_records_nothing(self, tmp_path, monkeypatch):
        """Only ``benchmarks/test_bench_scenarios.py`` writes ``BENCH_scenarios.json``."""
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        result = scenario_stress.run(num_students=300, proposing="students", trials=1)
        assert len(result.table("fairness envelopes (mean over trials)")) == len(
            builtin_scenarios()
        )
        assert list(tmp_path.iterdir()) == []


class TestExecution:
    def test_fig4_on_the_process_pool_matches_serial(self, monkeypatch):
        serial = fig4_vary_k.run(num_students=SMALL, k_values=SHORT_SWEEP).format()
        import repro.core.dca as dca_module

        pooled = []
        original = dca_module.execute_process_jobs

        def spy(payload, groups, max_workers):
            pooled.append((sum(len(group.members) for group in groups), max_workers))
            return original(payload, groups, max_workers)

        monkeypatch.setattr(dca_module, "execute_process_jobs", spy)
        with use_execution("process", 2):
            text = fig4_vary_k.run(num_students=SMALL, k_values=SHORT_SWEEP).format()
        assert pooled == [(len(SHORT_SWEEP), 2)]
        assert text == serial


class TestCompasExperiment:
    def test_fig10_disparity_and_fpr_improve(self):
        result = fig10_compas.run(num_defendants=3_000, k_values=(0.2, 0.4))
        baseline = {row["k"]: row["norm"] for row in result.table("baseline disparity")}
        per_k = {row["k"]: row["norm"] for row in result.table("fig 10a: disparity with per-k bonuses")}
        assert all(per_k[k] < baseline[k] for k in (0.2, 0.4))
        log_rows = result.table("fig 10c: disparity with one log-discounted bonus vector")
        assert any(row["norm"] < baseline[row["k"]] for row in log_rows)


class TestCLI:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig10" in out

    def test_run_unknown_experiment(self, capsys):
        assert cli_main(["run", "nope"]) == 2

    def test_run_experiment_to_file(self, tmp_path, capsys):
        output = tmp_path / "result.txt"
        code = cli_main(["run", "fig6", "--num-students", str(SMALL), "--output", str(output)])
        assert code == 0
        assert "quota" in output.read_text()

    def test_run_matching_experiment(self, tmp_path, capsys):
        # The end-to-end DCA -> match -> demographics pipeline under the CLI.
        output = tmp_path / "matching.txt"
        code = cli_main(["run", "matching", "--num-students", "4000", "--output", str(output)])
        assert code == 0
        text = output.read_text()
        assert "admitted demographics" in text
        assert "rank of match" in text

    def test_run_matching_both_variants_from_cli(self, tmp_path, capsys):
        # Both proposing sides run end-to-end from the command line; the
        # school-optimal match can only make students (weakly) worse off,
        # which shows up as fewer first choices.
        first_choices = {}
        for proposing in ("students", "schools"):
            output = tmp_path / f"matching-{proposing}.txt"
            code = cli_main(
                [
                    "run",
                    "matching",
                    "--num-students",
                    "4000",
                    "--proposing",
                    proposing,
                    "--output",
                    str(output),
                ]
            )
            assert code == 0
            text = output.read_text()
            assert f"proposing={proposing}" in text
            lines = text.splitlines()
            section = lines.index("-- rank of match --")
            baseline_row = next(
                line for line in lines[section:] if line.startswith("uncorrected rubric")
            )
            first_choices[proposing] = int(baseline_row.split("|")[1])
        assert first_choices["schools"] <= first_choices["students"]

    def test_cli_rejects_unknown_engine(self, capsys):
        # There is one matching engine, so no --engine value is a choice.
        for engine in ("quantum", "heap", "vector", "reference"):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(["run", "matching", "--engine", engine])
            assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "matching", "--proposing", "teachers"])
        assert excinfo.value.code == 2

    def test_cli_rejects_bad_worker_flags(self, capsys):
        from repro.experiments.cli import build_parser

        parser = build_parser()
        for argv in (
            ["run", "fig4", "--workers", "0"],
            ["run", "fig4", "--executor", "thread"],
            ["run", "fig4", "--row-workers", "2"],
            ["run", "fig4", "--step-dispatch", "pool"],
            ["run", "table1", "--num-students", "0"],
            ["run", "table1", "--num-students", "-5"],
            ["run", "table1", "--num-students", "abc"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2
        # A pool size the serial backend would drop: rejected before any run.
        assert cli_main(["run", "fig4", "--executor", "serial", "--workers", "4"]) == 2
        err = capsys.readouterr().err
        assert "--executor" in err and "--workers" in err

    def test_run_rejects_a_flag_the_experiment_does_not_take(self, capsys):
        assert cli_main(["run", "fig7", "--proposing", "schools"]) == 2
        err = capsys.readouterr().err
        assert "fig7" in err and "--proposing" in err
        assert cli_main(["run", "fig10", "--num-students", "500", "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "--num-students" in err and "--workers" not in err

    def test_run_all_forwards_each_flag_to_the_runners_that_take_it(
        self, monkeypatch, capsys
    ):
        from repro.experiments import cli

        calls = {}

        def matcher(proposing=None):
            calls["matcher"] = {"proposing": proposing}
            return ExperimentResult(name="matcher", description="takes --proposing")

        def plain():
            calls["plain"] = {}
            return ExperimentResult(name="plain", description="takes nothing")

        monkeypatch.setattr(cli, "EXPERIMENT_RUNNERS", {"matcher": matcher, "plain": plain})
        assert cli_main(["run-all", "--proposing", "schools"]) == 0
        assert calls == {"matcher": {"proposing": "schools"}, "plain": {}}
        calls.clear()
        assert cli_main(["run-all", "--proposing", "schools", "--num-students", "500"]) == 2
        assert calls == {}  # rejected before any runner ran
        assert "--num-students" in capsys.readouterr().err

    def test_backend_flags_need_a_batched_experiment(self, monkeypatch, capsys):
        assert cli_main(["run", "table1", "--executor", "process"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err and "--executor" in err

        from repro.experiments import cli

        seen = {}

        def batched():
            seen["batched"] = current_execution()
            return ExperimentResult(name="batched", description="calls fit_many")

        def plain():
            return ExperimentResult(name="plain", description="fits nothing")

        monkeypatch.setattr(cli, "EXPERIMENT_RUNNERS", {"batched": batched, "plain": plain})
        monkeypatch.setattr(cli, "BATCHED_EXPERIMENTS", frozenset({"batched"}))
        assert cli_main(["run-all", "--executor", "process", "--workers", "2"]) == 0
        assert seen == {"batched": ("process", 2)}  # the whole run saw the ambient pair
        monkeypatch.setattr(cli, "BATCHED_EXPERIMENTS", frozenset())
        assert cli_main(["run-all", "--workers", "2"]) == 2
        assert "no experiment takes --workers" in capsys.readouterr().err
