"""The benchmark's three closed-loop workloads.

Each workload is driven by one caller in one process: the next request is
sent only after the previous one returned.  A workload builds its inputs
from the ``--seed`` it is given, hands the program only those inputs, and
checks every output outside the timed region.

* ``reproduce``: one cold pass over every experiment runner except
  ``scenarios``, as ``repro-experiments run-all --num-students 20000`` calls
  them.
* ``fit_sweep``: one paper k-sweep per request, ``DCA.fit_many`` on the
  default 80k-row cohort over the shared-memory process pool.
* ``district_match``: one admissions district per request: per-school
  log-discounted fits, score planes, preferences, and deferred acceptance
  on both planes and both proposing sides.

Calls into the program go through module attributes (``datasets.load_...``,
``matching.deferred_acceptance``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import gc
import inspect
import statistics

import numpy as np

from repro import core, datasets, matching
from repro.core import DCA, BonusVector, DisparityCalculator, LogDiscountedDisparityObjective
from repro.datasets import school_admission_rubric
from repro.experiments import DEFAULT_K_SWEEP, EXPERIMENT_RUNNERS, SchoolSetting
from repro.experiments.matching_admissions import MatchingSetting

from bench_checks import check_bitwise_equal, check_bonus_lattice, check_matching, check_tables
from bench_stats import percentile, tail_per_mille

#: Cohort size of the ``reproduce`` workload (``run-all --num-students``).
REPRODUCE_STUDENTS = 20_000
#: ``reproduce`` runs at least this many passes per run.
REPRODUCE_MIN_REQUESTS = 1
#: Experiments ``reproduce`` leaves out: the stress sweep is not the paper.
REPRODUCE_EXCLUDED = ("scenarios",)
#: Pool size of every ``fit_sweep`` request.
SWEEP_WORKERS = 2
#: ``fit_sweep`` runs at least this many sweeps so its p90 has ten beyond it.
SWEEP_MIN_REQUESTS = 100
#: District shape of ``district_match``.
DISTRICT_STUDENTS = 200_000
DISTRICT_SCHOOLS = 8
DISTRICT_LIST_LENGTH = 8
#: ``district_match`` runs at least this many districts per run.
DISTRICT_MIN_REQUESTS = 4
#: The log-discounted fits cover selections up to this fraction (the runner's default).
DISTRICT_MAX_K = 0.5


def request_seed(seed: int, index: int) -> int:
    """The program seed of request ``index`` under workload seed ``seed``.

    Stateless, so request ``i`` gets the same seed however many requests a
    run makes; index ``-1`` is the warm-up request.
    """
    return int(np.random.default_rng([seed, index + 1]).integers(1, 2**31 - 1))


def clear_caches() -> None:
    """Drop every per-process cache, so the next set-up or pass starts cold."""
    datasets.clear_dataset_cache()
    core.default_objective_cache().clear()
    gc.collect()


def reproduce_runners() -> list[str]:
    return sorted(name for name in EXPERIMENT_RUNNERS if name not in REPRODUCE_EXCLUDED)


def call_runner(name: str, num_students: int):
    """Call a runner the way ``run-all --num-students`` does: that option only."""
    runner = EXPERIMENT_RUNNERS[name]
    if "num_students" in inspect.signature(runner).parameters:
        return runner(num_students=num_students)
    return runner()


class Workload:
    """One closed-loop workload; subclasses fill in the hooks."""

    name = ""
    min_requests = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def setup(self) -> None:
        """Cohorts and warm-up, up to the first timed request (repeatable)."""

    def prepare(self) -> None:
        """Untimed step before each request."""

    def request(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        return []

    def finish(self) -> dict[int, list[str]]:
        """Checks that run once after the loop, keyed by request index."""
        return {}

    def quality(self) -> float:
        raise NotImplementedError

    def summary(self, durations: list[float], quality: float) -> list[str]:
        raise NotImplementedError


class Reproduce(Workload):
    """``run-all --num-students 20000`` without ``scenarios``, one cold pass per request."""

    name = "reproduce"
    min_requests = REPRODUCE_MIN_REQUESTS

    def __init__(self, seed: int) -> None:
        # The runners pin their own seeds: this workload is deterministic.
        super().__init__(seed)
        self.runners = reproduce_runners()
        self.norms: list[float] = []

    def setup(self) -> None:
        clear_caches()
        call_runner("table1", REPRODUCE_STUDENTS)
        datasets.load_compas()

    def prepare(self) -> None:
        # A run-all process generates its cohorts and compiles its objectives.
        clear_caches()

    def request(self, index: int):
        return {name: call_runner(name, REPRODUCE_STUDENTS) for name in self.runners}

    def check(self, index: int, output) -> list[str]:
        problems = []
        for name, result in output.items():
            problems.extend(check_tables(name, result))
        try:
            rows = output["table1"].table("DCA (with refinement)")
            norm = next(row["norm"] for row in rows if row["setting"].startswith("Test"))
        except (KeyError, StopIteration):
            return problems + ["table1 has no DCA test-cohort row"]
        self.norms.append(float(norm))
        return problems

    def quality(self) -> float:
        """Table I's DCA disparity norm on the test cohort (the paper's headline)."""
        return statistics.median(self.norms)

    def summary(self, durations, quality):
        return [f"reproduce_s = {statistics.median(durations):.4f} s "
                f"(median of {len(durations)} passes over {len(self.runners)} runners)"]


class FitSweep(Workload):
    """The Fig 1/4a "k known in advance" sweep on the process pool."""

    name = "fit_sweep"
    min_requests = SWEEP_MIN_REQUESTS

    def setup(self) -> None:
        clear_caches()
        self.setting = SchoolSetting()
        self.table = self.setting.train.table
        self.dca = DCA(
            self.setting.fairness_attributes,
            self.setting.rubric,
            k=max(DEFAULT_K_SWEEP),
            config=self.setting.dca_config,
        )
        self.sweep(request_seed(self.seed, -1))  # pool start-up and the compile cache
        self.published: list[tuple[float, tuple[float, ...]]] = []
        self.identity = None

    def sweep(self, program_seed: int, executor: str = "process"):
        options = {"max_workers": SWEEP_WORKERS} if executor == "process" else {}
        return self.dca.fit_many(
            self.table, ks=DEFAULT_K_SWEEP, seeds=(program_seed,), executor=executor, **options
        )

    def request(self, index: int):
        return self.sweep(request_seed(self.seed, index))

    def check(self, index: int, output) -> list[str]:
        problems = []
        granularity = self.setting.dca_config.granularity
        for entry in output:
            problems.extend(f"k={entry.k}: {p}" for p in check_bonus_lattice(
                entry.bonus.values, granularity))
            self.published.append((entry.k, tuple(entry.bonus.values.tolist())))
        if self.identity is None:
            self.identity = (index, output)
        return problems

    def finish(self) -> dict[int, list[str]]:
        """Re-run one sweep serially: it must match the pool bit for bit."""
        if self.identity is None:
            return {}
        index, pooled = self.identity
        serial = self.sweep(pooled[0].seed, executor="serial")
        return {index: [f"serial re-run: {p}" for p in check_bitwise_equal(serial, pooled)]}

    def quality(self) -> float:
        """Mean full-population Definition 3 disparity norm of the published bonuses."""
        calculator = DisparityCalculator(self.setting.fairness_attributes).fit(self.table)
        base = self.setting.base_scores("train")
        norms: dict[tuple, float] = {}
        for k, values in self.published:
            if (k, values) not in norms:
                bonus = BonusVector(
                    attribute_names=self.setting.fairness_attributes, values=values
                )
                scores = bonus.apply(self.table, base)
                norms[k, values] = calculator.disparity(self.table, scores, k).norm
        return statistics.fmean(norms[key] for key in self.published)

    def summary(self, durations, quality):
        milliseconds = [d * 1000 for d in durations]
        lines = [f"sweep_ms_p50 = {statistics.median(milliseconds):.4f} ms "
                 f"(n={len(milliseconds)} sweeps of {len(DEFAULT_K_SWEEP)} fits)"]
        tail = tail_per_mille(len(milliseconds))
        if tail is None:
            lines.append(f"sweep_ms_p90 = n/a ({len(milliseconds)} sweeps < 100)")
        else:
            lines.append(f"sweep_ms_p{tail / 10:g} = {percentile(milliseconds, tail):.4f} ms")
        lines.append(f"sweep_disparity_norm = {quality:.6f}")
        return lines


class DistrictMatch(Workload):
    """A district-scale admissions match with per-school bonus points."""

    name = "district_match"
    min_requests = DISTRICT_MIN_REQUESTS
    planes = ("baseline", "compensated")

    def setup(self) -> None:
        clear_caches()
        train, _ = datasets.load_school_cohorts(num_students=DISTRICT_STUDENTS)
        # Warm the compiled-objective cache that every district's fits share.
        self.objective = LogDiscountedDisparityObjective(datasets.SCHOOL_FAIRNESS_ATTRIBUTES)
        self.objective.fit(train.table)
        core.default_objective_cache().compile(self.objective, train.table)
        self.train_table = train.table
        self.published: list[tuple[float, ...]] = []

    def request(self, index: int):
        setting = MatchingSetting(
            num_students=DISTRICT_STUDENTS,
            num_schools=DISTRICT_SCHOOLS,
            list_length=DISTRICT_LIST_LENGTH,
            seed=request_seed(self.seed, index),
        )
        fits = setting.fit_school_bonuses(DISTRICT_MAX_K)
        planes = dict(zip(self.planes, setting.score_planes(fits)))
        preferences = setting.preferences()
        matches = {
            (plane, side): matching.deferred_acceptance(
                preferences, planes[plane], setting.capacities, proposing=side
            )
            for plane in self.planes
            for side in matching.PROPOSING_SIDES
        }
        return setting, fits, planes, preferences, matches

    def check(self, index: int, output) -> list[str]:
        setting, fits, planes, preferences, matches = output
        granularity = setting.setting.dca_config.granularity
        problems = []
        for fit in fits:
            problems.extend(f"{fit.label}: {p}" for p in check_bonus_lattice(
                fit.bonus.values, granularity))
            self.published.append(tuple(fit.bonus.values.tolist()))
        for (plane, side), match in matches.items():
            problems.extend(f"{plane} plane, {side} proposing: {p}" for p in check_matching(
                match, preferences, planes[plane], setting.capacities))
        return problems

    def quality(self) -> float:
        """Mean full-population log-discounted disparity norm of the schools' bonuses.

        That is the objective the per-school fits minimize, on the training
        cohort they were fitted on.
        """
        table = self.train_table
        base = school_admission_rubric().scores(table)
        norms: dict[tuple[float, ...], float] = {}
        for values in self.published:
            if values not in norms:
                bonus = BonusVector(attribute_names=self.objective.attribute_names, values=values)
                scores = bonus.apply(table, base)
                norms[values] = self.objective.evaluate(table, scores, DISTRICT_MAX_K).norm
        return statistics.fmean(norms[values] for values in self.published)

    def summary(self, durations, quality):
        return [f"district_s_p50 = {statistics.median(durations):.4f} s "
                f"(n={len(durations)} districts)"]


WORKLOADS = {cls.name: cls for cls in (Reproduce, FitSweep, DistrictMatch)}
