"""Test-only reference implementation of deferred acceptance.

These are the original pure-Python matching loops that the round-based
engine of :func:`repro.matching.deferred_acceptance` replaced: per-school
``dict`` rosters with a full ``min()`` rescan on every bump (O(P × c)) when
students propose, and ``sorted`` proposal lists with a ``list.index`` lookup
per offer when schools propose.  The two loops are kept verbatim as the
oracle the fast engine must match exactly — assignment, rosters, matched
ranks and proposal counts; they are far too slow for production use (at 20k
students, 112–369× slower than the engine, ``benchmarks/BENCH_scenarios.json``).

Input goes through the production validators, so the oracle accepts exactly
what :func:`~repro.matching.deferred_acceptance` accepts and normalizes it
the same way; only the matching loops differ.

Import it from a test module as ``from _da_reference_oracle import
reference_deferred_acceptance``; benchmarks load it by path.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.matching import PROPOSING_SIDES, MatchResult
from repro.matching.deferred_acceptance import (
    _NO_OFFER,
    _normalize_preferences,
    _normalize_rankings,
    _schools_result,
    _validate_capacities,
)

__all__ = ["reference_deferred_acceptance"]


def reference_deferred_acceptance(
    student_preferences: Sequence[Sequence[int]] | np.ndarray,
    school_rankings: Sequence[Mapping[int, float] | Sequence[float]] | np.ndarray,
    capacities: Sequence[int],
    *,
    proposing: str = "students",
) -> MatchResult:
    """Deferred acceptance by the reference loops, on validated input."""
    if proposing not in PROPOSING_SIDES:
        raise ValueError(
            f"unknown proposing side {proposing!r}; expected one of {PROPOSING_SIDES}"
        )
    capacities = _validate_capacities(capacities)
    num_schools = len(capacities)
    matrix, lengths = _normalize_preferences(student_preferences, num_schools)
    score_plane = _normalize_rankings(school_rankings, num_schools, matrix.shape[0])
    lists = [row[:length] for row, length in zip(matrix.tolist(), lengths.tolist())]
    run = _run_reference if proposing == "students" else _run_reference_schools
    return run(lists, score_plane, capacities)


def _run_reference(
    preferences: list[Sequence[int]],
    score_plane: np.ndarray,
    capacities: list[int],
) -> MatchResult:
    """The original dict-roster implementation, kept as the readable reference."""
    num_students = len(preferences)
    num_schools = len(capacities)

    def score_of(school: int, student: int) -> float | None:
        value = score_plane[school, student]
        return None if np.isnan(value) else float(value)

    # next_choice[s]: index into student s's preference list to propose to next.
    next_choice = np.zeros(num_students, dtype=np.int64)
    matched_rank = np.full(num_students, -1, dtype=np.int64)
    assignment = np.full(num_students, -1, dtype=np.int64)
    # Tentative rosters: per school, dict student -> score.
    held: list[dict[int, float]] = [dict() for _ in range(num_schools)]
    free_students = [s for s in range(num_students) if preferences[s]]
    proposals = 0

    while free_students:
        student = free_students.pop()
        prefs = preferences[student]
        matched = False
        while next_choice[student] < len(prefs):
            school = prefs[next_choice[student]]
            next_choice[student] += 1
            capacity = capacities[school]
            if capacity == 0:
                continue  # a seatless school considers nobody — not a proposal
            proposals += 1
            score = score_of(school, student)
            if score is None:
                continue  # unacceptable to this school
            roster = held[school]
            if len(roster) < capacity:
                roster[student] = score
                assignment[student] = school
                matched_rank[student] = int(next_choice[student]) - 1
                matched = True
                break
            # School is full: bump the weakest held student if this one is better.
            weakest = min(roster, key=lambda s: (roster[s], -s))
            if (score, -student) > (roster[weakest], -weakest):
                del roster[weakest]
                assignment[weakest] = -1
                matched_rank[weakest] = -1
                roster[student] = score
                assignment[student] = school
                matched_rank[student] = int(next_choice[student]) - 1
                if next_choice[weakest] < len(preferences[weakest]):
                    free_students.append(weakest)
                matched = True
                break
        if not matched:
            assignment[student] = -1

    rosters = tuple(
        tuple(sorted(held[school], key=lambda s: (-held[school][s], s)))
        for school in range(num_schools)
    )
    return MatchResult(
        assignment=assignment,
        rosters=rosters,
        proposals_made=proposals,
        matched_rank=matched_rank,
    )


def _run_reference_schools(
    preferences: list[Sequence[int]],
    score_plane: np.ndarray,
    capacities: list[int],
) -> MatchResult:
    """Readable pure-Python school-proposing reference.

    Proposal lists are built with plain ``sorted``; a student's opinion of an
    offer is recomputed with ``list.index`` on every proposal — obviously
    correct, and O(list length) slower per proposal than the precomputed
    lookups of the fast engines.
    """
    num_students = len(preferences)
    num_schools = len(capacities)

    proposal_order: list[list[int]] = []
    for school in range(num_schools):
        row = score_plane[school]
        acceptable = [s for s in range(num_students) if not np.isnan(row[s])]
        acceptable.sort(key=lambda s: (-float(row[s]), s))
        proposal_order.append(acceptable)

    assignment = [-1] * num_students
    held_rank = [_NO_OFFER] * num_students
    free = list(capacities)
    ptr = [0] * num_schools
    proposals = 0

    stack = [j for j in range(num_schools) if free[j] > 0 and proposal_order[j]]
    while stack:
        school = stack.pop()
        candidates = proposal_order[school]
        while free[school] > 0 and ptr[school] < len(candidates):
            student = candidates[ptr[school]]
            ptr[school] += 1
            prefs = preferences[student]
            if not len(prefs):
                continue  # a student listing nothing considers no offer
            proposals += 1
            if school not in prefs:
                continue  # the student never listed this school
            rank = list(prefs).index(school)
            if rank >= held_rank[student]:
                continue  # the held offer is at least as good
            previous = assignment[student]
            if previous >= 0:
                if free[previous] == 0 and ptr[previous] < len(proposal_order[previous]):
                    stack.append(previous)  # regains a seat: resume proposing
                free[previous] += 1
            assignment[student] = school
            held_rank[student] = rank
            free[school] -= 1

    return _schools_result(
        np.asarray(assignment, dtype=np.int64),
        np.asarray(held_rank, dtype=np.int64),
        score_plane,
        num_schools,
        proposals,
    )
