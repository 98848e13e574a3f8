"""Benchmark: the deferred-acceptance engine against its oracle.

The NYC match assigns on the order of 100k students per year, so the matching
layer must scale to that size.  ``deferred_acceptance`` is the one (round-based,
"vector") engine; the pure-Python oracle it is pinned to lives next to the
tests, in ``tests/_da_reference_oracle.py``, and is loaded here by path.  The
proposing side's optimal stable matching is unique once school tie-breaks
make preferences strict, so any divergence between the two is a bug.

* Student-proposing engine vs oracle on a 20k-student instance (override
  with ``REPRO_BENCH_MATCH_STUDENTS``): identical matchings on every run,
  and the engine at least 3x faster.  Observed margin ~30x on
  2 cores, so the relative floor holds on any runner.
* A school-proposing smoke pins the same identity for the school-optimal
  variant at up to 20k students, with no timing assertion.
* A final test pins the vectorized preference generator's cost at 100k
  students: it must stay a small fraction of a district match.
* Two records without a floor: the engine's per-side time at the district
  shape (200k students x 8 schools, 3,750 seats each), and
  ``best_first_order`` against the ``lexsort`` it replaces, on continuous
  and decile scores at sizes on both sides of its crossover (the record
  behind ``repro.ranking.selection._LEXSORT_BELOW``).

Every test records into ``BENCH_matching.json`` with the core count.  The
two wall-clock floors (the 3x speedup and the 5 s preference generation,
both calibrated on 2 cores) gate only under ``REPRO_BENCH_ENFORCE=1`` (see
``floors_enforced``); the identity and shape assertions always run.
"""

from __future__ import annotations

import importlib.util
import os
import time
from pathlib import Path

import numpy as np

from _bench_record import floors_enforced, record_bench, usable_cores
from repro.matching import deferred_acceptance, generate_student_preferences
from repro.ranking import best_first_order
from repro.ranking.selection import _LEXSORT_BELOW, _tie_repaired_order

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "_da_reference_oracle.py"
_spec = importlib.util.spec_from_file_location("_da_reference_oracle", _ORACLE_PATH)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)

#: Cohort size for the engine-vs-oracle comparisons.  The oracle is
#: deliberately slow (O(P × c) roster rescans), which bounds this size.
MATCH_STUDENTS = int(os.environ.get("REPRO_BENCH_MATCH_STUDENTS", "20000"))
#: Cohort size for the preference-generation cost check (district scale).
DISTRICT_STUDENTS = 100_000
NUM_SCHOOLS = 100
LIST_LENGTH = 6
#: Seats for 80% of the cohort: scarce enough that popular schools fill up
#: and bump constantly, which is exactly the regime the fast engine targets.
SEAT_FRACTION = 0.8
#: The admissions district of ``perfbench``'s ``district_match`` workload:
#: 8 schools seating 15% of 200k students, 8-school preference lists.
DISTRICT_SHAPE = {"students": 200_000, "schools": 8, "list_length": 8, "seats": 3_750}
#: ``best_first_order`` sizes: the step loop's ~250-row sort, a 7k pool, a
#: 20k school row and a 200k district row.
ORDER_SIZES = (250, 7_000, 20_000, 200_000)
#: Sizes around the lexsort / tie-repair crossover, timed on both paths.
CROSSOVER_SIZES = (1_024, 2_048, 4_096)


def _district_instance(num_students: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    preferences = generate_student_preferences(
        num_students, NUM_SCHOOLS, list_length=LIST_LENGTH, rng=rng, as_matrix=True
    )
    score_plane = rng.normal(size=(NUM_SCHOOLS, num_students))
    capacities = [int(SEAT_FRACTION * num_students / NUM_SCHOOLS)] * NUM_SCHOOLS
    return preferences, score_plane, capacities


def _run(matcher, instance, proposing: str = "students"):
    start = time.perf_counter()
    match = matcher(*instance, proposing=proposing)
    return time.perf_counter() - start, match


def _assert_identical(left, right):
    assert np.array_equal(left.assignment, right.assignment)
    assert np.array_equal(left.matched_rank, right.matched_rank)
    assert left.rosters == right.rosters
    assert left.proposals_made == right.proposals_made


def _context(students_key: str, students: int) -> dict:
    return {
        students_key: students,
        "num_schools": NUM_SCHOOLS,
        "list_length": LIST_LENGTH,
        "cores": usable_cores(),
    }


def test_vector_engine_speedup_and_equivalence_over_reference():
    instance = _district_instance(MATCH_STUDENTS)
    vector_seconds, vector_match = _run(deferred_acceptance, instance)
    reference_seconds, reference_match = _run(_oracle.reference_deferred_acceptance, instance)

    _assert_identical(vector_match, reference_match)
    record_bench(
        "matching",
        metrics={
            "vector_vs_reference": {
                "vector_seconds": round(vector_seconds, 4),
                "reference_seconds": round(reference_seconds, 4),
                "speedup": round(reference_seconds / vector_seconds, 3),
            }
        },
        context=_context("vector_vs_reference_students", MATCH_STUDENTS),
    )
    if floors_enforced():
        assert vector_seconds * 3.0 < reference_seconds, (
            f"engine {vector_seconds:.2f}s vs oracle {reference_seconds:.2f}s "
            f"({reference_seconds / vector_seconds:.1f}x) — expected at least 3x"
        )


def test_school_proposing_engines_identical_at_district_scale():
    # No timing assertion: what matters here is that the round-based
    # school-proposing variant stays exact at scale.
    students = min(MATCH_STUDENTS, 20_000)
    instance = _district_instance(students, seed=9)
    vector_seconds, vector_match = _run(deferred_acceptance, instance, proposing="schools")
    reference_seconds, reference_match = _run(
        _oracle.reference_deferred_acceptance, instance, proposing="schools"
    )
    _assert_identical(vector_match, reference_match)
    record_bench(
        "matching",
        metrics={
            "schools_vector_vs_reference": {
                "vector_seconds": round(vector_seconds, 4),
                "reference_seconds": round(reference_seconds, 4),
                "speedup": round(reference_seconds / vector_seconds, 3),
            }
        },
        context=_context("schools_vector_vs_reference_students", students),
    )


def test_preference_generation_is_cheap_at_district_scale():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    preferences = generate_student_preferences(
        DISTRICT_STUDENTS, NUM_SCHOOLS, list_length=LIST_LENGTH, rng=rng, as_matrix=True
    )
    seconds = time.perf_counter() - start
    assert preferences.shape == (DISTRICT_STUDENTS, LIST_LENGTH)
    record_bench(
        "matching",
        metrics={"preference_generation_seconds": round(seconds, 4)},
        context=_context("preference_generation_students", DISTRICT_STUDENTS),
    )
    # The vectorized generator draws one noise matrix and argsorts it; even
    # at 100k x 100 this is sub-second on any recent machine.
    if floors_enforced():
        assert seconds < 5.0


def _best_seconds(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_district_shape_per_side_times():
    shape = DISTRICT_SHAPE
    rng = np.random.default_rng(17)
    preferences = generate_student_preferences(
        shape["students"], shape["schools"], list_length=shape["list_length"],
        rng=rng, as_matrix=True,
    )
    plane = rng.normal(size=(shape["schools"], shape["students"]))
    capacities = [shape["seats"]] * shape["schools"]
    seconds = {
        side: round(_best_seconds(
            lambda: deferred_acceptance(preferences, plane, capacities, proposing=side), 3
        ), 4)
        for side in ("students", "schools")
    }
    record_bench(
        "matching",
        metrics={"district_seconds": seconds},
        context={"district_shape": shape, "cores": usable_cores()},
    )


def _order_record(order, rows: int, repeats: int, rng) -> dict:
    """``order`` against the lexsort, on continuous and decile scores."""
    record = {}
    for kind, scores in (
        ("continuous", rng.normal(size=rows)),
        ("decile", rng.integers(0, 10, size=rows).astype(float)),
    ):
        lexsort = np.lexsort((np.arange(rows), -scores))
        assert order(scores).tobytes() == lexsort.tobytes()
        order_ms = 1e3 * _best_seconds(lambda: order(scores), repeats)
        lexsort_ms = 1e3 * _best_seconds(
            lambda: np.lexsort((np.arange(rows), -scores)), repeats
        )
        record[f"{kind}_{rows}"] = {
            "order_ms": round(order_ms, 4),
            "lexsort_ms": round(lexsort_ms, 4),
            "speedup": round(lexsort_ms / order_ms, 3),
        }
    return record


def test_best_first_order_against_lexsort():
    rng = np.random.default_rng(23)
    public, crossover = {}, {}
    for rows in ORDER_SIZES:
        public.update(_order_record(best_first_order, rows, 5 if rows >= 100_000 else 500, rng))
    for rows in CROSSOVER_SIZES:
        crossover.update(_order_record(_tie_repaired_order, rows, 200, rng))
    record_bench(
        "matching",
        metrics={"best_first_order": public, "tie_repair_near_crossover": crossover},
        context={"best_first_order_lexsort_below": _LEXSORT_BELOW, "cores": usable_cores()},
    )
