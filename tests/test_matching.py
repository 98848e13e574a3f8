"""Tests for the deferred-acceptance matching substrate.

Covers the one engine, ``deferred_acceptance``, and its pure-Python oracle
(``tests/_da_reference_oracle.py``), both proposing sides, the normalized
ranking forms (score matrix / mapping / sequence) and their validation, the
padded preference-matrix input and its validation, capacity validation, the
pinned ``proposals_made`` accounting, the pinned tie-break (equal scores
break by the lower student index, identically everywhere), and — because
the proposing side's optimal stable matching is unique once school
tie-breaks make preferences strict — exact engine-to-oracle equality on randomized
adversarial instances: zero-capacity schools, fully-unacceptable students,
duplicate scores/ties, empty preference lists, empty districts, capacities
exceeding the cohort, and a long one-proposer-per-round bump chain.  The DA
axioms themselves (stability, optimality, rural hospitals) live in
``tests/test_matching_properties.py``.
"""

from __future__ import annotations

import importlib
import re
import sys

import numpy as np
import pytest

from _da_reference_oracle import reference_deferred_acceptance
from repro.matching import deferred_acceptance, generate_student_preferences
from repro.ranking.selection import _LEXSORT_BELOW

# ``repro.matching.deferred_acceptance`` as an attribute is the function; the
# module itself comes from the import system.
_engine = importlib.import_module("repro.matching.deferred_acceptance")

# Test id -> the matcher it runs.  "heap" and "vector" name the retired heap
# engine and the round-based one; both ids now run ``deferred_acceptance``,
# the only engine.  "reference" runs the pure-Python oracle.
MATCHERS = {
    "heap": deferred_acceptance,
    "vector": deferred_acceptance,
    "reference": reference_deferred_acceptance,
}
PROPOSING = ("students", "schools")


@pytest.fixture(params=list(MATCHERS))
def matcher(request):
    return MATCHERS[request.param]


@pytest.fixture(params=PROPOSING)
def proposing(request):
    return request.param


def _assert_matches_equal(left, right) -> None:
    assert np.array_equal(left.assignment, right.assignment)
    assert left.rosters == right.rosters
    assert left.proposals_made == right.proposals_made
    assert np.array_equal(left.matched_rank, right.matched_rank)


class TestDeferredAcceptance:
    def test_simple_one_school(self, matcher):
        match = matcher(
            student_preferences=[[0], [0], [0]],
            school_rankings=[[3.0, 2.0, 1.0]],
            capacities=[2],
        )
        assert match.roster(0) == (0, 1)
        assert match.assignment.tolist() == [0, 0, -1]
        assert match.num_unmatched == 1

    def test_students_get_best_feasible_school(self, matcher):
        # Both students prefer school 0, which has one seat and prefers student 1.
        match = matcher(
            student_preferences=[[0, 1], [0, 1]],
            school_rankings=[[1.0, 2.0], [1.0, 2.0]],
            capacities=[1, 1],
        )
        assert match.assignment.tolist() == [1, 0]

    def test_stability_no_blocking_pair(self, matcher):
        """Verify stability on a random instance: no student/school pair both
        prefer each other to their match."""
        rng = np.random.default_rng(4)
        num_students, num_schools = 60, 5
        preferences = generate_student_preferences(num_students, num_schools, list_length=5, rng=rng)
        rankings = [list(rng.uniform(size=num_students)) for _ in range(num_schools)]
        capacities = [8] * num_schools
        match = matcher(preferences, rankings, capacities)

        def prefers(student: int, school: int) -> bool:
            assigned = match.assignment[student]
            prefs = preferences[student]
            if school not in prefs:
                return False
            if assigned < 0:
                return True
            return prefs.index(school) < prefs.index(assigned)

        for student in range(num_students):
            for school in range(num_schools):
                if not prefers(student, school):
                    continue
                roster = match.roster(school)
                if len(roster) < capacities[school]:
                    pytest.fail(f"blocking pair: student {student}, school {school} has free seats")
                weakest = min(roster, key=lambda s: rankings[school][s])
                assert rankings[school][student] <= rankings[school][weakest], (
                    f"blocking pair: student {student} preferred by school {school}"
                )

    def test_respects_capacities(self, matcher):
        rng = np.random.default_rng(1)
        preferences = generate_student_preferences(50, 3, list_length=3, rng=rng)
        rankings = [list(rng.uniform(size=50)) for _ in range(3)]
        match = matcher(preferences, rankings, [5, 7, 9])
        assert len(match.roster(0)) <= 5
        assert len(match.roster(1)) <= 7
        assert len(match.roster(2)) <= 9

    def test_rosters_sorted_by_school_preference(self, matcher):
        match = matcher(
            student_preferences=[[0], [0], [0]],
            school_rankings=[[1.0, 3.0, 2.0]],
            capacities=[3],
        )
        assert match.roster(0) == (1, 2, 0)

    def test_mapping_rankings_mark_unacceptable_students(self, matcher):
        # Student 1 is not in school 0's ranking and can never be admitted there.
        match = matcher(
            student_preferences=[[0], [0]],
            school_rankings=[{0: 1.0}],
            capacities=[2],
        )
        assert match.assignment.tolist() == [0, -1]

    def test_short_sequence_ranking_marks_tail_unacceptable(self, matcher):
        # School 0's score list only covers student 0; student 1 is unacceptable.
        match = matcher(
            student_preferences=[[0], [0]],
            school_rankings=[[1.0]],
            capacities=[2],
        )
        assert match.assignment.tolist() == [0, -1]

    def test_zero_capacity_school(self, matcher):
        match = matcher(
            student_preferences=[[0, 1]],
            school_rankings=[[1.0], [1.0]],
            capacities=[0, 1],
        )
        assert match.assignment.tolist() == [1]

    def test_empty_preference_list_student_unmatched(self, matcher):
        match = matcher(
            student_preferences=[[], [0]],
            school_rankings=[[1.0, 2.0]],
            capacities=[1],
        )
        assert match.assignment.tolist() == [-1, 0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            deferred_acceptance([[0]], [[1.0]], [1, 2])  # rankings/capacities mismatch
        with pytest.raises(ValueError):
            deferred_acceptance([[5]], [[1.0]], [1])  # unknown school
        with pytest.raises(ValueError):
            deferred_acceptance([[0]], [[1.0]], [-1])  # negative capacity
        with pytest.raises(TypeError):
            deferred_acceptance([[0]], [[1.0]], [1], engine="quantum")  # no engine selector
        with pytest.raises(ValueError):
            deferred_acceptance([[0]], np.zeros((2, 1)), [1])  # score matrix shape

    def test_higher_ranked_student_displaces_lower(self, matcher):
        # Student 2 applies last but is the school's favourite.
        match = matcher(
            student_preferences=[[0], [0], [0]],
            school_rankings=[[2.0, 1.0, 3.0]],
            capacities=[2],
        )
        assert set(match.roster(0)) == {0, 2}


class TestRankingAndCapacityValidation:
    """Malformed rankings and seat counts fail loudly, naming the school and
    the value, instead of being truncated or dropped."""

    @pytest.mark.parametrize(
        "capacity",
        [1.9, 2.0, np.float64(1.0), True, np.bool_(True)],
        ids=["fractional", "integral-float", "np-float64", "bool", "np-bool"],
    )
    def test_non_integer_capacity_rejected(self, capacity):
        # Truncating with int() would read 1.9 as one seat and True as one.
        message = re.escape(f"school 1 has capacity {capacity!r}")
        with pytest.raises(ValueError, match=message):
            deferred_acceptance([[0], [1]], [[1.0, 2.0]] * 2, [1, capacity])

    def test_numpy_integer_capacities_accepted(self):
        capacities = [np.int64(1), np.uint8(1)]
        match = deferred_acceptance([[0], [1]], [[1.0, 2.0]] * 2, capacities)
        assert match.assignment.tolist() == [0, 1]
        match = deferred_acceptance([[0], [1]], [[1.0, 2.0]] * 2, np.array([1, 1]))
        assert match.assignment.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "student",
        [7, 2, -1, 0.0, True],
        ids=["far", "one-past", "negative", "float", "bool"],
    )
    def test_mapping_key_outside_cohort_rejected(self, student):
        # Two students: a key that is not a student index in [0, 2) names
        # nobody, so it is a caller error, not an unacceptable student.
        message = re.escape(f"school 1 ranks unknown student {student!r}")
        with pytest.raises(ValueError, match=message):
            deferred_acceptance([[0], [1]], [{0: 1.0}, {student: 9.0, 1: 5.0}], [1, 1])

    def test_long_sequence_ranking_rejected(self):
        # Three scores for a two-student cohort cannot be matched to students.
        with pytest.raises(ValueError, match="school 0 ranks 3 students; the cohort has 2"):
            deferred_acceptance([[0], [0]], [[1.0, 2.0, 3.0]], [1])


class TestScoreMatrixInput:
    def test_score_matrix_equivalent_to_sequences(self, matcher):
        rng = np.random.default_rng(3)
        preferences = generate_student_preferences(30, 4, list_length=3, rng=rng)
        plane = rng.normal(size=(4, 30))
        capacities = [4, 4, 4, 4]
        from_matrix = matcher(preferences, plane, capacities)
        from_lists = matcher(preferences, [list(row) for row in plane], capacities)
        assert np.array_equal(from_matrix.assignment, from_lists.assignment)
        assert from_matrix.rosters == from_lists.rosters
        assert from_matrix.proposals_made == from_lists.proposals_made

    def test_nan_in_score_matrix_marks_unacceptable(self, matcher):
        plane = np.array([[np.nan, 1.0]])
        match = matcher([[0], [0]], plane, [2])
        assert match.assignment.tolist() == [-1, 0]


class TestPreferenceMatrixInput:
    def test_padded_matrix_equivalent_to_lists(self, matcher):
        lists = [[2, 0], [1], [], [0, 1, 2]]
        matrix = np.array([[2, 0, -1], [1, -1, -1], [-1, -1, -1], [0, 1, 2]])
        rankings = [[1.0, 2.0, 3.0, 4.0]] * 3
        for capacities in ([1, 1, 1], [0, 2, 1]):
            a = matcher(lists, rankings, capacities)
            b = matcher(matrix, rankings, capacities)
            assert np.array_equal(a.assignment, b.assignment)
            assert a.rosters == b.rosters
            assert a.proposals_made == b.proposals_made
            assert np.array_equal(a.matched_rank, b.matched_rank)

    def test_interior_padding_rejected(self):
        with pytest.raises(ValueError):
            deferred_acceptance(np.array([[-1, 0]]), [[1.0]], [1])

    def test_out_of_range_school_rejected(self):
        with pytest.raises(ValueError):
            deferred_acceptance(np.array([[3]]), [[1.0]], [1])
        with pytest.raises(ValueError):
            deferred_acceptance(np.array([[-2]]), [[1.0]], [1])

    def test_float_matrix_rejected_not_truncated(self, matcher):
        # Truncation would read [0.9, 1.7] as schools [0, 1].
        matrix = np.array([[0.9, 1.7], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"student 0 lists \[0\.9, 1\.7\]"):
            matcher(matrix, [[1.0, 2.0]] * 2, [1, 1])

    def test_bool_matrix_rejected(self, matcher):
        with pytest.raises(ValueError, match=r"dtype bool: student 0 lists \[True\]"):
            matcher(np.array([[True], [False]]), [[1.0, 2.0]] * 2, [1, 1])

    @pytest.mark.parametrize(
        "entry",
        [0.5, 1.0, np.float64(0.0), True, np.bool_(False)],
        ids=["float", "integral-float", "np-float64", "bool", "np-bool"],
    )
    def test_non_integer_list_entry_rejected(self, matcher, entry):
        with pytest.raises(ValueError, match=re.escape(f"student 1 lists {entry!r}")):
            matcher([[0], [entry]], [[1.0, 2.0]] * 2, [1, 1])

    def test_numpy_integer_list_entries_accepted(self, matcher):
        lists = [[np.int64(1), np.int32(0)], [np.uint8(0)]]
        match = matcher(lists, [[1.0, 2.0]] * 2, [1, 1])
        assert match.assignment.tolist() == [1, 0]

    @pytest.mark.parametrize("proposing", PROPOSING)
    def test_repeated_school_in_list_rejected(self, matcher, proposing):
        # Matched as given, [0, 0] would count two applications to school 0.
        with pytest.raises(ValueError, match="student 0 lists school 0 more than once"):
            matcher([[0, 0], [0]], [[1.0, 2.0]], [1], proposing=proposing)
        with pytest.raises(ValueError, match="student 2 lists school 1 more than once"):
            matcher([[0], [1, 0], [1, 0, np.int64(1)]], [[1.0] * 3] * 2, [1, 1],
                    proposing=proposing)

    @pytest.mark.parametrize("proposing", PROPOSING)
    def test_repeated_school_in_matrix_rejected(self, matcher, proposing):
        matrix = np.array([[0, -1, -1], [1, 0, -1], [0, 1, 0]])
        with pytest.raises(ValueError, match="student 2 lists school 0 more than once"):
            matcher(matrix, [[1.0] * 3] * 2, [1, 1], proposing=proposing)

    def test_repeated_padding_is_not_a_repeated_school(self, matcher):
        matrix = np.array([[1, -1, -1], [-1, -1, -1], [0, 1, -1]])
        lists = [[1], [], [0, 1]]
        rankings = [[1.0, 2.0, 3.0]] * 2
        _assert_matches_equal(matcher(matrix, rankings, [1, 1]), matcher(lists, rankings, [1, 1]))


class TestProposalAccounting:
    """Pin the ``proposals_made`` semantics: applications to zero-capacity
    schools are skipped without being counted; applications a seated school
    rejects for unacceptability are counted."""

    def test_zero_capacity_school_not_counted(self, matcher):
        match = matcher(
            student_preferences=[[0, 1]],
            school_rankings=[[1.0], [1.0]],
            capacities=[0, 1],
        )
        assert match.proposals_made == 1

    def test_unacceptable_application_counted(self, matcher):
        match = matcher(
            student_preferences=[[0], [0]],
            school_rankings=[{0: 1.0}],
            capacities=[2],
        )
        assert match.proposals_made == 2

    def test_exact_count_with_bump_chain(self, matcher):
        # s0: zero-capacity school first, then school 1 (bumps s1 out);
        # s1: seated then bumped, list exhausted; s2: unacceptable at school 1.
        match = matcher(
            student_preferences=[[0, 1], [1], [1]],
            school_rankings=[{}, {0: 2.0, 1: 1.0}],
            capacities=[0, 1],
        )
        assert match.assignment.tolist() == [1, -1, -1]
        # Counted: s0 -> school 1, s1 -> school 1, s2 -> school 1.  The
        # s0 -> school 0 application is skipped (no seats to consider it).
        assert match.proposals_made == 3
        assert match.matched_rank.tolist() == [1, -1, -1]

    def test_count_equals_sum_of_list_positions_consumed(self, matcher):
        # Without zero-capacity or unacceptable entries, every consumed list
        # position is one counted proposal.
        rng = np.random.default_rng(9)
        preferences = generate_student_preferences(40, 4, list_length=3, rng=rng)
        rankings = rng.normal(size=(4, 40))
        match = matcher(preferences, rankings, [6] * 4)
        consumed = 0
        for student, prefs in enumerate(preferences):
            school = match.assignment[student]
            consumed += prefs.index(school) + 1 if school >= 0 else len(prefs)
        assert match.proposals_made == consumed


class TestMatchedRank:
    def test_matched_rank_points_into_preference_lists(self, matcher):
        rng = np.random.default_rng(12)
        preferences = generate_student_preferences(50, 5, list_length=4, rng=rng)
        rankings = rng.normal(size=(5, 50))
        match = matcher(preferences, rankings, [7] * 5)
        for student, prefs in enumerate(preferences):
            school = match.assignment[student]
            rank = match.matched_rank[student]
            if school < 0:
                assert rank == -1
            else:
                assert prefs[rank] == school

    def test_rank_distribution_sums_to_cohort(self, matcher):
        rng = np.random.default_rng(13)
        preferences = generate_student_preferences(80, 5, list_length=3, rng=rng)
        rankings = rng.normal(size=(5, 80))
        match = matcher(preferences, rankings, [10] * 5)
        counts = match.rank_distribution(3)
        assert counts.shape == (4,)
        assert counts.sum() == 80
        assert counts[3] == match.num_unmatched

    def test_rank_distribution_rejects_uncovered_ranks(self, matcher):
        # matched_rank is [1, 0, -1]: student 0 lands on their second choice.
        match = matcher(
            student_preferences=[[0, 1], [0, 1], [1]],
            school_rankings=[[1.0, 2.0, 0.0], [3.0, 2.0, 1.0]],
            capacities=[1, 1],
        )
        assert match.matched_rank.tolist() == [1, 0, -1]
        with pytest.raises(ValueError):
            match.rank_distribution(1)  # would silently drop student 0
        assert match.rank_distribution(2).tolist() == [1, 1, 1]


class TestSchoolProposing:
    """Semantics of ``proposing="schools"``: the school-optimal matching,
    with mirrored acceptability rules and proposal accounting."""

    def test_diverges_from_student_optimal_on_classic_instance(self, matcher):
        # Both sides disagree about who should get what: students want
        # (s0->0, s1->1), schools want the opposite.  The proposing side wins.
        preferences = [[0, 1], [1, 0]]
        plane = np.array([[1.0, 2.0], [2.0, 1.0]])
        students = matcher(preferences, plane, [1, 1], proposing="students")
        schools = matcher(preferences, plane, [1, 1], proposing="schools")
        assert students.assignment.tolist() == [0, 1]
        assert schools.assignment.tolist() == [1, 0]
        assert students.matched_rank.tolist() == [0, 0]
        assert schools.matched_rank.tolist() == [1, 1]

    def test_unlisted_school_cannot_match_student(self, matcher):
        # School 1 would love student 0, but student 0 never listed it.
        match = matcher([[0]], [[1.0], [5.0]], [1, 1], proposing="schools")
        assert match.assignment.tolist() == [0]

    def test_nan_student_never_proposed_to(self, matcher):
        match = matcher(
            [[0], [0]],
            np.array([[np.nan, 1.0]]),
            [2],
            proposing="schools",
        )
        assert match.assignment.tolist() == [-1, 0]

    def test_capacity_respected(self, matcher):
        rng = np.random.default_rng(21)
        preferences = generate_student_preferences(50, 3, list_length=3, rng=rng)
        plane = rng.normal(size=(3, 50))
        match = matcher(preferences, plane, [5, 7, 9], proposing="schools")
        assert [len(match.roster(j)) for j in range(3)] == [5, 7, 9]

    def test_offer_to_empty_list_student_not_counted(self, matcher):
        # Student 1 lists nothing: the school's offer is skipped silently.
        # Student 0 lists only school 1: school 0's offer is counted and
        # declined.  Counted offers: school0->s0, school1->s0.
        match = matcher(
            [[1], []],
            np.array([[2.0, 1.0], [1.0, np.nan]]),
            [1, 1],
            proposing="schools",
        )
        assert match.assignment.tolist() == [1, -1]
        assert match.proposals_made == 2

    def test_matched_rank_points_into_preference_lists(self, matcher):
        rng = np.random.default_rng(5)
        preferences = generate_student_preferences(60, 5, list_length=4, rng=rng)
        plane = rng.normal(size=(5, 60))
        match = matcher(preferences, plane, [7] * 5, proposing="schools")
        for student, prefs in enumerate(preferences):
            school = match.assignment[student]
            rank = match.matched_rank[student]
            if school < 0:
                assert rank == -1
            else:
                assert prefs[rank] == school

    def test_invalid_proposing_rejected(self):
        with pytest.raises(ValueError):
            deferred_acceptance([[0]], [[1.0]], [1], proposing="teachers")


class TestTieBreakDeterminism:
    """Equal scores break in favour of the lower student index — identically
    in the engine, in the oracle and on both proposing sides, so heavily tied rubrics
    (integer scores, shared cut-offs) still give one deterministic match."""

    def test_all_tied_scores_admit_lowest_indices(self, matcher, proposing):
        match = matcher(
            [[0]] * 5,
            [[1.0] * 5],
            [2],
            proposing=proposing,
        )
        assert match.roster(0) == (0, 1)
        assert match.assignment.tolist() == [0, 0, -1, -1, -1]

    def test_tied_bump_prefers_lower_index(self, matcher):
        # Student 2 proposes last with a tied score: the incumbent holders
        # (lower indices) keep their seats.
        match = matcher(
            [[0], [0], [0]],
            [[2.0, 2.0, 2.0]],
            [2],
        )
        assert match.roster(0) == (0, 1)
        # ...but a strictly better late proposal still bumps the weakest.
        match = matcher(
            [[0], [0], [0]],
            [[2.0, 2.0, 3.0]],
            [2],
        )
        assert match.roster(0) == (2, 0)

    def test_tied_rosters_order_by_student_index(self, matcher, proposing):
        match = matcher(
            [[0]] * 4,
            [[7.0, 7.0, 7.0, 7.0]],
            [4],
            proposing=proposing,
        )
        assert match.roster(0) == (0, 1, 2, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_heavily_tied_instances_identical_across_engines(self, seed, proposing):
        rng = np.random.default_rng(seed)
        num_students, num_schools = 60, 4
        preferences = generate_student_preferences(
            num_students, num_schools, list_length=3, rng=rng
        )
        # Two distinct score values only: ties everywhere.
        plane = rng.integers(0, 2, size=(num_schools, num_students)).astype(float)
        capacities = [7] * num_schools
        results = [
            matcher(preferences, plane, capacities, proposing=proposing)
            for matcher in MATCHERS.values()
        ]
        for other in results[1:]:
            _assert_matches_equal(results[0], other)


def _random_instance(rng: np.random.Generator):
    """A randomized instance stressing every edge engine and oracle must agree on."""
    num_students = int(rng.integers(1, 90))
    num_schools = int(rng.integers(1, 9))
    preferences = []
    for _ in range(num_students):
        if rng.random() < 0.1:
            preferences.append([])  # student who lists nothing
            continue
        length = int(rng.integers(1, num_schools + 1))
        preferences.append([int(s) for s in rng.choice(num_schools, size=length, replace=False)])
    # Zero-capacity schools and scarce seats (bumps + exhausted lists) both
    # occur; occasionally every school is seatless (an empty district) or
    # capacities exceed the cohort (c > P).
    capacities = [int(c) for c in rng.integers(0, 6, size=num_schools)]
    shape = rng.random()
    if shape < 0.08:
        capacities = [0] * num_schools
    elif shape < 0.16:
        capacities = [int(c) for c in rng.integers(num_students, num_students + 5, size=num_schools)]
    # Small integer scores force heavy tie-breaking; NaN marks unacceptable
    # pairings, occasionally an entire student column (fully-unacceptable
    # students).
    plane = rng.integers(0, 4, size=(num_schools, num_students)).astype(float)
    plane[rng.random((num_schools, num_students)) < 0.15] = np.nan
    plane[:, rng.random(num_students) < 0.05] = np.nan
    form = int(rng.integers(0, 3))
    if form == 0:
        rankings = plane
    elif form == 1:
        rankings = [
            {s: plane[school, s] for s in range(num_students) if not np.isnan(plane[school, s])}
            for school in range(num_schools)
        ]
    else:
        rankings = [list(row) for row in plane]
    return preferences, rankings, capacities


def _bump_chain(n: int, proposing: str):
    """A bump chain of length ``n`` with one proposer per round after the first.

    In round one ``n`` regular proposers each reach their first choice and an
    intruder displaces proposer 0.  Proposer 0's next proposal displaces
    proposer 1, whose next displaces proposer 2, and so on: ``n + 1``
    proposals in round one, then ``n - 1`` rounds of exactly one, ``2n`` in
    all.  Every receiver has one seat.
    """
    if proposing == "students":
        # n schools.  Student i < n - 1 lists [i, i + 1], student n - 1 lists
        # [n - 1], the intruder n lists [0].  School j prefers student j - 1
        # (score 2) to student j (score 1); school 0 prefers the intruder.
        preferences = [[i, i + 1] for i in range(n - 1)] + [[n - 1], [0]]
        plane = np.full((n, n + 1), np.nan)
        plane[np.arange(n), np.arange(n)] = 1.0
        plane[np.arange(1, n), np.arange(n - 1)] = 2.0
        plane[0, n] = 2.0
        return preferences, plane, [1] * n
    # The mirror image: n students and n + 1 schools.  School j < n offers
    # to student j, then j + 1; the intruder school n offers to student 0
    # only.  Student 0 lists [n, 0], student j >= 1 lists [j - 1, j].
    preferences = [[n, 0]] + [[j - 1, j] for j in range(1, n)]
    plane = np.full((n + 1, n), np.nan)
    plane[np.arange(n), np.arange(n)] = 2.0
    plane[np.arange(n - 1), np.arange(1, n)] = 1.0
    plane[n, 0] = 2.0
    return preferences, plane, [1] * (n + 1)


class TestEngineEquivalence:
    """The proposing side's optimal stable matching is unique (school
    preferences are made strict by the ``-student`` tie-break), so the engine
    and the oracle must agree *exactly* — assignment, rosters, matched ranks,
    and the proposal count, which is order-independent for deferred
    acceptance."""

    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_instances_three_way(self, seed, proposing):
        preferences, rankings, capacities = _random_instance(np.random.default_rng(seed))
        results = {
            name: matcher(preferences, rankings, capacities, proposing=proposing)
            for name, matcher in MATCHERS.items()
        }
        _assert_matches_equal(results["heap"], results["reference"])
        _assert_matches_equal(results["vector"], results["reference"])

    def test_heap_name_warns_and_runs_vector(self, proposing):
        # The retired engine name is no longer accepted: there is no engine
        # selector left, and the plain call is the oracle's matching.
        preferences, rankings, capacities = _random_instance(np.random.default_rng(3))
        with pytest.raises(TypeError, match="engine"):
            deferred_acceptance(
                preferences, rankings, capacities, engine="heap", proposing=proposing
            )
        _assert_matches_equal(
            deferred_acceptance(preferences, rankings, capacities, proposing=proposing),
            reference_deferred_acceptance(
                preferences, rankings, capacities, proposing=proposing
            ),
        )

    @pytest.mark.parametrize(
        "capacities",
        [
            [0, 0, 0],  # empty district: nobody can be matched
            [200, 200, 200],  # c > P: nobody is ever bumped
            [0, 1, 200],  # both extremes at once
        ],
        ids=["all-zero", "oversized", "mixed"],
    )
    def test_adversarial_capacities_three_way(self, capacities, proposing):
        rng = np.random.default_rng(7)
        preferences = generate_student_preferences(40, 3, list_length=3, rng=rng)
        plane = rng.integers(0, 3, size=(3, 40)).astype(float)
        plane[:, 0] = np.nan  # a fully-unacceptable student
        results = [
            matcher(preferences, plane, capacities, proposing=proposing)
            for matcher in MATCHERS.values()
        ]
        for other in results[1:]:
            _assert_matches_equal(results[0], other)
        if capacities == [0, 0, 0]:
            assert results[0].num_unmatched == 40

    def test_midsize_instance_with_generated_preferences(self, proposing):
        rng = np.random.default_rng(99)
        preferences = generate_student_preferences(400, 12, list_length=6, rng=rng, as_matrix=True)
        plane = rng.normal(size=(12, 400))
        plane[rng.random((12, 400)) < 0.05] = np.nan
        capacities = [0, 10, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25]
        results = [
            matcher(preferences, plane, capacities, proposing=proposing)
            for matcher in MATCHERS.values()
        ]
        for other in results[1:]:
            _assert_matches_equal(results[0], other)

    def test_long_bump_chain(self, proposing):
        # The serial regime: after round one, every round of the engine
        # holds a single proposal.
        n = 300
        preferences, plane, capacities = _bump_chain(n, proposing)
        vector, reference = (
            matcher(preferences, plane, capacities, proposing=proposing)
            for matcher in (deferred_acceptance, reference_deferred_acceptance)
        )
        _assert_matches_equal(vector, reference)
        assert vector.proposals_made == 2 * n
        if proposing == "students":
            # Everyone moved one school along; the chain's end fell off.
            expected = list(range(1, n)) + [-1, 0]
        else:
            expected = [n] + list(range(n - 1))
        assert vector.assignment.tolist() == expected


class TestAcrossTheSortCrossover:
    """Markets big enough that every ordering the engine makes takes
    ``best_first_order``'s SIMD sort with tie repair rather than its
    small-input lexsort: 4,400 students over two 2,100-seat schools, so the
    school rows, the first round's segments and pools, the roster
    compactions and the final rosters all reach the crossover, on
    continuous, tied-integer and NaN-holed planes."""

    #: The ordering sites (engine functions) each proposing side must reach.
    SITES = {
        "students": {"_run_students", "absorb", "_build_rosters"},
        "schools": {"_school_proposal_order", "_build_rosters"},
    }

    @pytest.mark.parametrize("plane_kind", ["continuous", "tied", "nan"])
    def test_engine_matches_oracle(self, plane_kind, proposing, monkeypatch):
        rng = np.random.default_rng(11)
        num_students, capacities = 4_400, [2_100, 2_100]
        preferences = generate_student_preferences(
            num_students, len(capacities), list_length=2, rng=rng, as_matrix=True
        )
        plane = rng.normal(size=(len(capacities), num_students))
        if plane_kind == "tied":
            plane = rng.integers(0, 5, size=plane.shape).astype(float)
        elif plane_kind == "nan":
            plane[rng.random(plane.shape) < 0.1] = np.nan

        sites = set()
        preference_order = _engine._preference_order

        def spy(scores, *args, **kwargs):
            if scores.shape[0] >= _LEXSORT_BELOW:
                sites.add(sys._getframe(1).f_code.co_name)
            return preference_order(scores, *args, **kwargs)

        monkeypatch.setattr(_engine, "_preference_order", spy)
        engine = deferred_acceptance(preferences, plane, capacities, proposing=proposing)
        assert sites == self.SITES[proposing]
        oracle = reference_deferred_acceptance(
            preferences, plane, capacities, proposing=proposing
        )
        _assert_matches_equal(engine, oracle)


class TestNormalizedOnce:
    """Callers that match one preference input several times validate it once."""

    def test_private_entry_point_equals_public_call(self, proposing):
        preferences, rankings, capacities = _random_instance(np.random.default_rng(5))
        normalized = _engine._normalize_preferences(preferences, len(capacities))
        _assert_matches_equal(
            _engine._match(normalized, rankings, list(capacities), proposing),
            deferred_acceptance(preferences, rankings, capacities, proposing=proposing),
        )

    def test_scenario_market_validated_once_for_both_sides(self, monkeypatch):
        from repro.scenarios import builtin_scenarios, driver, run_scenario

        calls = []
        normalize = driver._normalize_preferences

        def counting(*args):
            calls.append(args)
            return normalize(*args)

        monkeypatch.setattr(driver, "_normalize_preferences", counting)
        config = next(c for c in builtin_scenarios() if c.name == "tiny_district")
        run_scenario(config, trials=2)
        assert len(calls) == 2  # one market per trial, each matched on both sides


class TestPreferenceGeneration:
    def test_shapes_and_validity(self, rng):
        preferences = generate_student_preferences(20, 6, list_length=3, rng=rng)
        assert len(preferences) == 20
        for prefs in preferences:
            assert len(prefs) == 3
            assert len(set(prefs)) == 3
            assert all(0 <= school < 6 for school in prefs)

    def test_list_length_capped_at_num_schools(self, rng):
        preferences = generate_student_preferences(5, 2, list_length=10, rng=rng)
        assert all(len(prefs) == 2 for prefs in preferences)

    def test_as_matrix_matches_list_form(self):
        lists = generate_student_preferences(30, 5, list_length=3, rng=np.random.default_rng(8))
        matrix = generate_student_preferences(
            30, 5, list_length=3, rng=np.random.default_rng(8), as_matrix=True
        )
        assert isinstance(matrix, np.ndarray)
        assert matrix.dtype == np.int64
        assert matrix.shape == (30, 3)
        assert matrix.tolist() == lists

    def test_popular_school_listed_first_more_often(self):
        rng = np.random.default_rng(0)
        preferences = generate_student_preferences(
            2_000, 5, list_length=1, popularity_spread=2.0, rng=rng
        )
        firsts = np.array([prefs[0] for prefs in preferences])
        counts = np.bincount(firsts, minlength=5)
        assert counts.max() > 2 * counts.min()

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            generate_student_preferences(0, 5, rng=rng)
        with pytest.raises(ValueError):
            generate_student_preferences(5, 5, list_length=0, rng=rng)
