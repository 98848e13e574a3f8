"""Timing-free self-tests of the benchmark's own logic.

Nothing here asserts on wall-clock: the percentile rule, span self time,
error counting, seed plumbing, the output checks (each shown firing on a
deliberately corrupted result), the layer wrappers, and the shape of
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_trace
import bench_workloads
import run
from bench_checks import check_bitwise_equal, check_bonus_lattice, check_matching, check_tables
from bench_stats import RequestLog, percentile, quartile_spread, samples_beyond, tail_per_mille
from repro.core import DCA, BonusVector, DCAConfig
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_dataset,
    school_admission_rubric,
)
from repro.experiments import ExperimentResult
from repro.matching import MatchResult, deferred_acceptance, generate_student_preferences

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the percentile rule -------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 900) == 10
    assert tail_per_mille(99) is None
    assert tail_per_mille(100) == 900
    assert tail_per_mille(999) == 900
    assert tail_per_mille(1000) == 990
    assert tail_per_mille(10_000) == 999
    for count in (100, 250, 1000, 5000):
        assert samples_beyond(count, tail_per_mille(count)) >= 10


def test_percentile_interpolates_and_spread_matches_quartiles():
    values = list(range(1, 101))
    assert percentile(values, 500) == pytest.approx(50.5)
    assert percentile(values, 900) == pytest.approx(90.1)
    assert percentile([7.0], 900) == 7.0
    with pytest.raises(ValueError):
        percentile([], 500)
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)


# -- self time of nested spans ---------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert bench_trace.self_times(parents, starts, ends) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def _recorded(spans):
    """A Recorder holding ``spans`` = [(name, parent, request, start, end)]."""
    recorder = bench_trace.Recorder()
    for name, parent, request, start, end in spans:
        recorder.request_id = request
        span = recorder.begin(name)
        recorder.finish(span)
        recorder.parent[span] = parent
        recorder.start[span] = start
        recorder.end[span] = end
    return recorder


def test_layer_table_and_metrics_are_per_request():
    recorder = _recorded([
        ("datasets.load", -1, -1, 0.0, 0.5),          # traced set-up
        (bench_trace.REQUEST_SPAN, -1, 0, 1.0, 5.0),
        ("core.fit", 1, 0, 1.0, 4.0),
        ("core.evaluate", 2, 0, 1.5, 3.5),
        ("ranking.selection_mask", 3, 0, 2.0, 3.0),
        (bench_trace.REQUEST_SPAN, -1, 1, 6.0, 8.0),
        ("matching.da_students", 5, 1, 6.0, 7.0),
    ])
    table = dict((layer, (seconds, share)) for layer, seconds, share in
                 bench_trace.layer_self_table(recorder, requests=2))
    assert table["core"][0] == pytest.approx((1.0 + 1.0) / 2)
    assert table["ranking"][0] == pytest.approx(0.5)
    assert table["matching"][0] == pytest.approx(0.5)
    assert table["bench"][0] == pytest.approx((1.0 + 1.0) / 2)
    assert sum(share for _, share in table.values()) == pytest.approx(1.0)
    values = bench_trace.layer_metrics(recorder, 2, ["fig7"], overhead_pct=1.5)
    assert values["datasets.load_s"] == pytest.approx(0.5)
    assert values["core.fit_s"] == pytest.approx(1.5)
    assert values["core.fit_calls"] == pytest.approx(0.5)
    assert values["core.evaluate_s"] == pytest.approx(0.5)   # self time
    assert values["ranking.selection_mask_calls"] == pytest.approx(0.5)
    assert values["matching.da_calls"] == pytest.approx(0.5)
    assert values["experiments.fig7_s"] == 0.0
    assert values["trace.overhead_pct"] == 1.5


def test_wrapper_records_outermost_call_only_and_only_when_active():
    recorder = bench_trace.Recorder()
    tracer = bench_trace.Tracer(recorder)

    def countdown(n):
        return 0 if n == 0 else traced(n - 1)

    traced = tracer._wrap(countdown, "core.fit")
    assert traced(3) == 0 and len(recorder) == 0
    recorder.active = True
    traced(3)
    assert [recorder.span_name(s) for s in range(len(recorder))] == ["core.fit"]


def test_tracer_wraps_layers_and_restores_originals():
    import repro.experiments.matching_admissions as admissions
    from repro import matching
    from repro.experiments import EXPERIMENT_RUNNERS

    originals = (matching.deferred_acceptance, admissions.deferred_acceptance,
                 EXPERIMENT_RUNNERS["fig7"], DCA.__dict__["fit"])
    recorder = bench_trace.Recorder()
    tracer = bench_trace.Tracer(recorder)
    tracer.install()
    try:
        assert matching.deferred_acceptance is not originals[0]
        assert admissions.deferred_acceptance is not originals[1]
        assert EXPERIMENT_RUNNERS["fig7"] is not originals[2]
        preferences, plane, capacities = _market(seed=3)
        recorder.active, recorder.request_id = True, 0
        result = matching.deferred_acceptance(preferences, plane, capacities, proposing="schools")
        recorder.active = False
    finally:
        tracer.restore()
    assert (matching.deferred_acceptance, admissions.deferred_acceptance,
            EXPERIMENT_RUNNERS["fig7"], DCA.__dict__["fit"]) == originals
    assert [recorder.span_name(s) for s in range(len(recorder))] == ["matching.da_schools"]
    assert recorder.counts["matching.proposals"] == result.proposals_made


def test_chrome_trace_is_plain_json_with_parents():
    recorder = _recorded([(bench_trace.REQUEST_SPAN, -1, 0, 1.0, 2.0),
                          ("core.draw", 0, 0, 1.25, 1.5)])
    trace = json.loads(json.dumps(bench_trace.chrome_trace(recorder)))
    first, second = trace["traceEvents"]
    assert first["ph"] == second["ph"] == "X"
    assert (first["ts"], first["dur"]) == (0.0, 1e6)
    assert second["cat"] == "core" and second["args"]["parent"] == 0


# -- error counting --------------------------------------------------------
class _FlakyWorkload(bench_workloads.Workload):
    """Request 1 raises, request 2 fails its check, the rest are fine."""

    name = "flaky"

    def request(self, index):
        if index == 1:
            raise RuntimeError("boom")
        return index

    def check(self, index, output):
        return ["bad output", "worse output"] if index == 2 else []


def test_errors_count_once_per_failed_request():
    log = RequestLog()
    untraced, traced = run.closed_loop(_FlakyWorkload(0), log, seconds=0, min_requests=5)
    assert log.attempted == 5
    assert log.failed == 2
    assert log.failed_requests == {1, 2}
    assert len(untraced) == len(log.durations) == 4 and traced == []
    assert log.error_rate == pytest.approx(0.4)
    log.fail(3, [])
    assert log.failed == 2


def test_every_second_request_is_traced():
    recorded = []

    class _Tracer:
        @contextlib.contextmanager
        def recording(self, index):
            recorded.append(index)
            yield

    untraced, traced = run.closed_loop(_FlakyWorkload(0), RequestLog(), 0, 6, _Tracer())
    assert recorded == [1, 3, 5]
    assert len(untraced) == 3 and len(traced) == 2  # request 1 raised


_STOP_PROBE = """
import multiprocessing, time
from multiprocessing import resource_tracker, shared_memory
import run

if __name__ == "__main__":
    segment = shared_memory.SharedMemory(create=True, size=8)  # starts the tracker
    segment.close()
    segment.unlink()
    worker = multiprocessing.Process(target=time.sleep, args=(0.05,))
    worker.start()
    run.stop_child_processes()
    print(worker.is_alive(), multiprocessing.active_children(),
          resource_tracker._resource_tracker._pid)
"""


def test_run_stops_its_children_and_the_resource_tracker(tmp_path):
    # A fresh interpreter: stopping this process's tracker would unlink the
    # segments other tests still hold.
    script = tmp_path / "stop_probe.py"
    script.write_text(_STOP_PROBE)
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(run.__file__).parent)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["False", "[]", "None"]


# -- seed plumbing ---------------------------------------------------------
def test_request_seeds_come_from_the_workload_seed():
    first = [bench_workloads.request_seed(5, index) for index in range(-1, 20)]
    assert first == [bench_workloads.request_seed(5, index) for index in range(-1, 20)]
    assert len(set(first)) == len(first)
    assert first != [bench_workloads.request_seed(6, index) for index in range(-1, 20)]
    assert all(0 < seed < 2**31 for seed in first)


def test_fit_sweep_hands_each_request_its_seed():
    workload = bench_workloads.FitSweep(seed=9)
    seen = []
    workload.sweep = lambda program_seed, executor="process": seen.append(
        (program_seed, executor))
    for index in range(3):
        workload.request(index)
    assert seen == [(bench_workloads.request_seed(9, i), "process") for i in range(3)]


def test_command_line_rejects_bad_values():
    args = run.parse_args(["--workload", "fit_sweep", "--seed", "3", "--seconds", "30",
                           "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("fit_sweep", 3, 30.0, 1)
    for flag, value in (("--seed", "-1"), ("--seconds", "0"), ("--trace", "2"),
                        ("--workload", "scenarios")):
        options = {"--workload": "reproduce", "--seed": "1", "--seconds": "5", flag: value}
        with pytest.raises(SystemExit):
            run.parse_args([word for pair in options.items() for word in pair])


# -- output checks fire on corrupted results -------------------------------
def test_lattice_check():
    assert check_bonus_lattice([0.0, 0.5, 12.0], 0.5) == []
    assert check_bonus_lattice([0.25, 1.0], 0.5)
    assert check_bonus_lattice([-0.5, 1.0], 0.5)
    assert check_bonus_lattice([math.nan, 1.0], 0.5)
    assert check_bonus_lattice([math.inf, 1.0], 0.5)


@pytest.fixture(scope="module")
def small_sweep():
    train, _ = generate_school_dataset(SchoolGeneratorConfig(num_students=3000))
    dca = DCA(SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), k=0.2,
              config=DCAConfig(seed=1, iterations=20, refinement_iterations=20))
    return lambda: dca.fit_many(train.table, ks=(0.1, 0.2), seeds=(4,), executor="serial")


def test_identity_check_fires_on_a_flipped_bit(small_sweep):
    reference, again = small_sweep(), small_sweep()
    assert check_bitwise_equal(reference, again) == []
    entry = again[1]
    values = entry.result.raw_bonus.values.copy()
    values[0] = np.nextafter(values[0], np.inf)
    raw = BonusVector(attribute_names=entry.result.raw_bonus.attribute_names, values=values)
    corrupted = again[:1] + [dataclasses.replace(
        entry, result=dataclasses.replace(entry.result, raw_bonus=raw))]
    assert any("raw_bonus" in problem for problem in check_bitwise_equal(reference, corrupted))
    assert check_bitwise_equal(reference, again[:1])


def _market(seed, students=60, schools=3, list_length=2):
    rng = np.random.default_rng(seed)
    preferences = generate_student_preferences(students, schools, list_length=list_length,
                                               rng=rng, as_matrix=True)
    plane = rng.normal(size=(schools, students)).round(1)  # ties on purpose
    capacities = [8] * schools
    return preferences, plane, capacities


def _with_assignment(match, assignment, schools):
    rosters = tuple(tuple(np.nonzero(assignment == school)[0].tolist())
                    for school in range(schools))
    return MatchResult(assignment=assignment, rosters=rosters,
                       proposals_made=match.proposals_made, matched_rank=match.matched_rank)


@pytest.mark.parametrize("proposing", ["students", "schools"])
def test_matching_check_fires_on_infeasible_and_unstable_matches(proposing):
    preferences, plane, capacities = _market(seed=11)
    match = deferred_acceptance(preferences, plane, capacities, proposing=proposing)
    assert check_matching(match, preferences, plane, capacities) == []

    matched = np.nonzero(match.assignment >= 0)[0]
    unmatched = np.nonzero(match.assignment < 0)[0]
    full = int(np.argmax(np.bincount(match.assignment[matched], minlength=3)))

    over = match.assignment.copy()
    over[unmatched[0]] = full
    over[matched[match.assignment[matched] != full][:8]] = full
    assert any("capacity" in p for p in check_matching(
        _with_assignment(match, over, 3), preferences, plane, capacities))

    off_list = match.assignment.copy()
    student = unmatched[0]
    off_list[student] = next(s for s in range(3) if s not in preferences[student])
    assert any("off their lists" in p for p in check_matching(
        _with_assignment(match, off_list, 3), preferences, plane, capacities))

    unstable = match.assignment.copy()
    unstable[matched[0]] = -1  # a seat opens at a school that student listed
    assert any("blocking" in p for p in check_matching(
        _with_assignment(match, unstable, 3), preferences, plane, capacities))

    rosters = list(match.rosters)
    rosters[full] = rosters[full][1:]
    stale = MatchResult(assignment=match.assignment, rosters=tuple(rosters),
                        proposals_made=match.proposals_made, matched_rank=match.matched_rank)
    assert any("roster" in p for p in check_matching(stale, preferences, plane, capacities))


def test_table_check():
    good = ExperimentResult(name="x", description="")
    good.add_table("t", [{"label": "a", "norm": "", "value": 1.5, "n": 3, "ok": True}])
    assert check_tables("x", good) == []
    assert check_tables("x", ExperimentResult(name="x", description=""))
    for bad in (math.nan, math.inf, np.float64("nan")):
        result = ExperimentResult(name="x", description="")
        result.add_table("t", [{"value": 1.0}, {"value": bad}])
        assert check_tables("x", result)
    empty = ExperimentResult(name="x", description="")
    empty.add_table("t", [])
    assert check_tables("x", empty)


# -- BENCHMARK.json shape ----------------------------------------------------
def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 15) < 3420  # set-up and checks included
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == run.WORKLOAD_NAMES == tuple(bench_workloads.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    all_names = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(name) for name in all_names)


def test_end_to_end_metrics_match_what_the_run_reports():
    metrics = SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in metrics} == run.END_TO_END_UNITS
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in metrics if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics)


def test_per_layer_metrics_match_what_the_traced_run_reports():
    reported = bench_trace.layer_metrics(bench_trace.Recorder(), 1,
                                         bench_workloads.reproduce_runners(), 0.0)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == {name: run.per_layer_unit(name) for name in reported}
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    assert len(bench_workloads.reproduce_runners()) == 14


def test_layer_map_covers_every_layer_metric():
    context = json.loads((Path(__file__).resolve().parent / "context.json").read_text())
    layer_map = context["layer_map"]
    declared = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_pct"}
    assert set(layer_map) == declared
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(run.WORKLOAD_NAMES)

