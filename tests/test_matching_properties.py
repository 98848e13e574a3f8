"""Property-based suite: the deferred-acceptance axioms on random instances.

``tests/test_matching.py`` pins the engine to its oracle; this module pins
both to the *theory*.  On seeded randomized instances (heavy ties,
NaN-unacceptable pairings, fully-unacceptable students, zero-capacity
schools, oversized capacities, empty preference lists) the engine, the
oracle and both proposing sides must satisfy the Gale–Shapley axioms:

* **feasibility** — rosters within capacity, every match mutually
  acceptable (student listed the school, school scores the student), the
  ``assignment``/``rosters``/``matched_rank`` views consistent;
* **stability** — no blocking pair: no student prefers a school (that finds
  the student acceptable) to their match while that school has a free seat
  or holds somebody it likes less;
* **student-optimality** of student-proposing results and
  **school-optimality** of school-proposing results — each side's optimal
  stable matching weakly dominates the other side's, which the tests verify
  pairwise (plus a handcrafted instance whose two optima are known exactly);
* the **rural-hospitals** consequence — every stable matching matches the
  same set of students and fills every school to the same count.

The instances are generated from seeded ``numpy`` generators (no new
dependencies), so failures reproduce exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from _da_reference_oracle import reference_deferred_acceptance
from repro.matching import deferred_acceptance

# Test id -> the matcher it runs: "heap" (the retired engine's name) and
# "vector" both run ``deferred_acceptance``; "reference" runs the oracle.
MATCHERS = {
    "heap": deferred_acceptance,
    "vector": deferred_acceptance,
    "reference": reference_deferred_acceptance,
}
SEEDS = range(18)


@pytest.fixture(params=list(MATCHERS))
def matcher(request):
    return MATCHERS[request.param]


def _instance(seed: int):
    """A seeded instance covering every adversarial shape at once."""
    rng = np.random.default_rng(seed)
    num_students = int(rng.integers(2, 70))
    num_schools = int(rng.integers(1, 7))
    preferences: list[list[int]] = []
    for _ in range(num_students):
        if rng.random() < 0.1:
            preferences.append([])
            continue
        length = int(rng.integers(1, num_schools + 1))
        preferences.append(
            [int(s) for s in rng.choice(num_schools, size=length, replace=False)]
        )
    capacities = [int(c) for c in rng.integers(0, 6, size=num_schools)]
    if rng.random() < 0.1:
        capacities = [int(c) for c in rng.integers(num_students, num_students + 3, size=num_schools)]
    # Few distinct score values: ties dominate.  NaN = unacceptable, with the
    # occasional fully-unacceptable student.
    plane = rng.integers(0, 3, size=(num_schools, num_students)).astype(float)
    plane[rng.random((num_schools, num_students)) < 0.2] = np.nan
    plane[:, rng.random(num_students) < 0.05] = np.nan
    return preferences, plane, capacities


def _school_prefers(plane, school, a, b) -> bool:
    """The strict school preference: higher score, ties to the lower index."""
    return (plane[school, a], -a) > (plane[school, b], -b)


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("proposing", ("students", "schools"))
def test_feasibility_and_view_consistency(seed, matcher, proposing):
    preferences, plane, capacities = _instance(seed)
    match = matcher(preferences, plane, capacities, proposing=proposing)

    seen: set[int] = set()
    for school, roster in enumerate(match.rosters):
        assert len(roster) <= capacities[school], "capacity exceeded"
        for student in roster:
            assert student not in seen, "student on two rosters"
            seen.add(student)
            assert match.assignment[student] == school
            assert school in preferences[student], "student never listed the school"
            assert not np.isnan(plane[school, student]), "school never ranked the student"
        # Rosters are ordered by the strict school preference, best first.
        for better, worse in zip(roster, roster[1:]):
            assert _school_prefers(plane, school, better, worse)

    for student in range(len(preferences)):
        school = int(match.assignment[student])
        rank = int(match.matched_rank[student])
        if school < 0:
            assert rank == -1
            assert student not in seen
        else:
            assert student in seen
            assert preferences[student][rank] == school
    assert match.num_unmatched == len(preferences) - len(seen)


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------
def _assert_stable(preferences, plane, capacities, match) -> None:
    for student, prefs in enumerate(preferences):
        assigned = int(match.assignment[student])
        current_rank = prefs.index(assigned) if assigned >= 0 else len(prefs)
        for school in prefs[:current_rank]:
            # The student strictly prefers `school` to their match.  If the
            # school would take them, the pair blocks the matching.
            if capacities[school] == 0 or np.isnan(plane[school, student]):
                continue
            roster = match.roster(school)
            assert len(roster) == capacities[school], (
                f"blocking pair: student {student} acceptable to school "
                f"{school}, which has a free seat"
            )
            weakest = roster[-1]
            assert _school_prefers(plane, school, weakest, student), (
                f"blocking pair: school {school} prefers student {student} "
                f"to its weakest admit {weakest}"
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("proposing", ("students", "schools"))
def test_no_blocking_pair(seed, matcher, proposing):
    preferences, plane, capacities = _instance(seed)
    match = matcher(preferences, plane, capacities, proposing=proposing)
    _assert_stable(preferences, plane, capacities, match)


# ----------------------------------------------------------------------
# optimality of each proposing side
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_student_proposing_is_student_optimal(seed, matcher):
    """Every student weakly prefers the student-proposing outcome to the
    school-proposing one (the student-optimal matching dominates every
    stable matching, of which the school-optimal one is the extreme)."""
    preferences, plane, capacities = _instance(seed)
    student_optimal = matcher(preferences, plane, capacities, proposing="students")
    school_optimal = matcher(preferences, plane, capacities, proposing="schools")
    for student in range(len(preferences)):
        ours = int(student_optimal.matched_rank[student])
        theirs = int(school_optimal.matched_rank[student])
        if theirs >= 0:
            assert 0 <= ours <= theirs, (
                f"student {student} does better under school-proposing DA"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_school_proposing_is_school_optimal(seed, matcher):
    """Every school weakly prefers its school-proposing roster, seat by
    seat: with responsive preferences the school-optimal stable matching
    dominates elementwise (students in one roster but not the other are
    uniformly ordered between two stable matchings)."""
    preferences, plane, capacities = _instance(seed)
    student_optimal = matcher(preferences, plane, capacities, proposing="students")
    school_optimal = matcher(preferences, plane, capacities, proposing="schools")
    for school in range(len(capacities)):
        preferred = school_optimal.roster(school)
        fallback = student_optimal.roster(school)
        assert len(preferred) == len(fallback)
        for mine, other in zip(preferred, fallback):
            if mine != other:
                assert _school_prefers(plane, school, mine, other)


@pytest.mark.parametrize("seed", SEEDS)
def test_rural_hospitals(seed, matcher):
    """Both stable matchings match the same students and fill every school
    to the same count."""
    preferences, plane, capacities = _instance(seed)
    student_optimal = matcher(preferences, plane, capacities, proposing="students")
    school_optimal = matcher(preferences, plane, capacities, proposing="schools")
    assert np.array_equal(
        student_optimal.assignment >= 0, school_optimal.assignment >= 0
    )
    assert [len(r) for r in student_optimal.rosters] == [
        len(r) for r in school_optimal.rosters
    ]


def test_known_divergent_instance(matcher):
    """A two-sided tug-of-war whose two optima are known in closed form."""
    preferences = [[0, 1], [1, 0]]
    plane = np.array([[1.0, 2.0], [2.0, 1.0]])
    student_optimal = matcher(preferences, plane, [1, 1], proposing="students")
    school_optimal = matcher(preferences, plane, [1, 1], proposing="schools")
    assert student_optimal.assignment.tolist() == [0, 1]
    assert school_optimal.assignment.tolist() == [1, 0]
    _assert_stable(preferences, plane, [1, 1], student_optimal)
    _assert_stable(preferences, plane, [1, 1], school_optimal)
