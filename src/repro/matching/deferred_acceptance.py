"""Deferred-acceptance (Gale–Shapley) matching: student- and school-proposing.

The NYC high-school admission process that motivates the paper matches
students to schools with a deferred-acceptance algorithm: students submit a
preference list over schools, each school ranks its applicants with its own
rubric (possibly including DCA bonus points), and the match is computed by the
classic student-proposing procedure.  Because of this matching layer, a school
does not know in advance how far down its ranked list it will reach — which is
precisely the motivation for the log-discounted variant of DCA.

This module implements the matching substrate so that the admissions
experiment (:mod:`repro.experiments.matching_admissions`) can run an
end-to-end simulation at district scale: generate students, compute each
school's (bonus-compensated) ranking, run deferred acceptance, and inspect the
demographics of each school's admitted class.

Engine
------

All ranking forms are normalized **once** into a
``(num_schools, num_students)`` float score plane (``NaN`` marks a student a
school finds unacceptable), and all preference forms into one
``(num_students, width)`` ``int64`` matrix right-padded with ``-1`` plus the
list lengths, before the match runs.  A caller that matches one preference
input several times (the scenario driver and corpus, on both sides)
validates it once and calls the private entry point ``_match``.  The match is round-based, with no
per-proposal Python loop at all.  Each round gathers **every** unmatched
student's next listed school through a pointer array, filters the proposals
against per-school admission cutoffs, groups the survivors into per-school
segments in preference order, resolves each segment with the affected
school's weakest holders, and admits the top ``capacity`` of each pool.
Every ordering the engine makes (a school's proposal list, the segments,
the pools, the roster runs and the final rosters) goes through one helper,
``_preference_order``, built on :func:`~repro.ranking.best_first_order`:
past about 2k entries that is NumPy's SIMD argsort plus an exact tie
repair, 5x a ``lexsort`` on continuous scores.  Per-round cost is a handful
of NumPy kernels over the active students.

There is one engine, because a sequential one does not pay.  A min-heap
engine (O(P log c), one Python iteration per proposal) measured on 2 cores
against this one, on a 200k-student × 8-school district with bitwise-equal
matchings: 2.37–2.57 s against 0.33–0.38 s student-proposing, 0.67–0.78 s
against 0.33–0.34 s school-proposing.  It led only on one-proposer-per-round
bump chains (18 ms against 56 ms at length 500, yet 2.43 s against 0.62 s at
length 6000), which no experiment or benchmark builds, and on tiny markets
(0.26 ms against 0.39 ms at 90 students).  It was deleted.  Since the
orderings moved to ``best_first_order`` the same district matches in about
0.3 s student-proposing and 0.11 s school-proposing, from 0.35 s and 0.28 s
(best of 7 on 2 cores; ``district_seconds`` in
``benchmarks/BENCH_matching.json``).

The original pure-Python implementation — per-school ``dict`` rosters and a
full ``min()`` rescan on every bump, i.e. O(P × c) — lives outside the
package, as the test oracle ``tests/_da_reference_oracle.py``; at 20k
students it is 112–369× slower (``benchmarks/BENCH_scenarios.json``).  The
proposing side's optimal stable matching is unique once both sides'
preferences are strict (see *Tie-breaking* below), so the randomized
differential suite in ``tests/test_matching.py`` and the axiom suite in
``tests/test_matching_properties.py`` pin this engine to the oracle
exactly — assignment, rosters, matched ranks, and proposal counts.

Proposing side
--------------

``proposing="students"`` (default) runs student-proposing deferred acceptance
and returns the *student-optimal* stable matching: every student weakly
prefers it to any other stable matching.  ``proposing="schools"`` runs the
dual procedure — schools propose down their ranked applicant lists, students
hold the best offer from a school they listed — and returns the
*school-optimal* stable matching.  Both variants respect exactly the same
acceptability rules (a student a school scores
``NaN`` and a school a student does not list can never be matched), and by
the rural-hospitals theorem the two variants match the same set of students
and fill each school to the same count; only *who* goes *where* shifts in the
schools' favour.

Tie-breaking
------------

School preferences are made strict before the match runs: equal scores
break in favour of the **lower student index**, i.e. school ``j`` prefers
student ``a`` to student ``b`` iff ``(score[j, a], -a) > (score[j, b], -b)``.
Student preferences are strict by construction (a preference list is an
order).  Both proposing sides implement this identically — student-proposing
rounds sort segments by ``(-score, student)``, and schools issue proposals
in exactly that order, both through ``_preference_order`` — so results are
deterministic and equal to the oracle's (which compares ``(score,
-student)`` keys) even on heavily tied integer scores (pinned by
``tests/test_matching.py``).

Proposal accounting
-------------------

``proposals_made`` counts every proposal the *receiving* side actually
considers.  Student-proposing: applications to schools with at least one
seat are counted — including applications rejected because the student is
unacceptable — while applications to zero-capacity schools are skipped
without being counted (such a school can never consider anyone).
School-proposing, symmetrically: offers to students with a non-empty
preference list are counted — including offers the student rejects because
the school is not on their list — while offers to students who listed
nothing are skipped without being counted.  Deferred acceptance makes the
same set of proposals regardless of execution order, so the oracle reports
the same count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..ranking import best_first_order

__all__ = ["PROPOSING_SIDES", "MatchResult", "deferred_acceptance"]

#: Valid ``proposing`` arguments.
PROPOSING_SIDES = ("students", "schools")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a deferred-acceptance run.

    Attributes
    ----------
    assignment:
        ``assignment[s]`` is the school index student ``s`` is matched to, or
        ``-1`` if the student is unmatched.
    rosters:
        For each school, the list of matched student indices, ordered by the
        school's preference (best first).
    proposals_made:
        Total number of proposals considered by the receiving side (a useful
        complexity diagnostic; see the module docstring for the exact
        accounting on each proposing side).
    matched_rank:
        ``matched_rank[s]`` is the 0-based position of student ``s``'s
        assigned school in their preference list (0 = first choice), or
        ``-1`` if unmatched.
    """

    assignment: np.ndarray
    rosters: tuple[tuple[int, ...], ...]
    proposals_made: int
    matched_rank: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def num_unmatched(self) -> int:
        return int(np.sum(self.assignment < 0))

    def roster(self, school: int) -> tuple[int, ...]:
        return self.rosters[school]

    def rank_distribution(self, max_rank: int) -> np.ndarray:
        """Count of students matched at each preference rank (last bin = unmatched).

        Returns an array of length ``max_rank + 1``: entry ``r`` is the number
        of students matched to their ``r``-th listed school, and the final
        entry counts unmatched students, so the counts always sum to the
        cohort size.  ``max_rank`` must cover the longest preference list
        (pass the list length); a match at a rank beyond it is an error
        rather than a silently dropped student.
        """
        ranks = self.matched_rank
        matched = ranks >= 0
        if matched.any():
            highest = int(ranks[matched].max())
            if highest >= max_rank:
                raise ValueError(
                    f"a student matched at preference rank {highest}; "
                    f"max_rank={max_rank} does not cover it"
                )
        counts = np.zeros(max_rank + 1, dtype=np.int64)
        counts[:max_rank] = np.bincount(ranks[matched], minlength=max_rank)
        counts[max_rank] = int(np.sum(~matched))
        return counts


class _Preferences(NamedTuple):
    """Validated preference lists: the padded matrix and the list lengths."""

    matrix: np.ndarray
    lengths: np.ndarray


def _normalize_preferences(
    student_preferences: Sequence[Sequence[int]] | np.ndarray, num_schools: int
) -> _Preferences:
    """Validate preference lists; return the padded matrix and the list lengths.

    The matrix is ``(num_students, width)`` ``int64``, each row one student's
    list right-padded with ``-1``.  A 2-D integer array is accepted as such a
    matrix and used as-is (the form
    :func:`~repro.matching.generate_student_preferences` emits at district
    scale); padding must be trailing — a ``-1`` followed by a school index is
    rejected.  School indices must be integers: a float or bool matrix, or a
    float or bool list entry, is rejected rather than truncated to a school
    index.  A list that names a school twice is rejected too: the student
    would apply to it twice.
    """
    if isinstance(student_preferences, np.ndarray):
        if student_preferences.ndim != 2:
            raise ValueError(
                f"preference matrix must be 2-D, got shape {student_preferences.shape}"
            )
        if not np.issubdtype(student_preferences.dtype, np.integer):
            where = (
                f": student 0 lists {student_preferences[0].tolist()}"
                if student_preferences.size
                else ""
            )
            raise ValueError(
                "preference matrix must hold integer school indices, got dtype "
                f"{student_preferences.dtype}{where}"
            )
        matrix = student_preferences.astype(np.int64, copy=False)
        if matrix.size and (matrix.max() >= num_schools or matrix.min() < -1):
            bad = int(matrix.max()) if matrix.max() >= num_schools else int(matrix.min())
            raise ValueError(f"preference matrix lists unknown school {bad} (num_schools={num_schools})")
        valid = matrix >= 0
        if matrix.size and np.any(valid[:, 1:] & ~valid[:, :-1]):
            raise ValueError("preference matrix padding (-1) must be trailing")
        _reject_repeated_schools(matrix)
        return _Preferences(matrix, valid.sum(axis=1).astype(np.int64))
    lists = list(student_preferences)
    for student, preferences in enumerate(lists):
        for school in preferences:
            if not isinstance(school, (int, np.integer)) or isinstance(school, bool):
                raise ValueError(
                    f"student {student} lists {school!r}: school indices must be integers"
                )
            if not 0 <= school < num_schools:
                raise ValueError(
                    f"student {student} lists unknown school {school} (num_schools={num_schools})"
                )
    lengths = np.fromiter((len(prefs) for prefs in lists), dtype=np.int64, count=len(lists))
    width = int(lengths.max()) if lengths.size else 0
    matrix = np.full((len(lists), width), -1, dtype=np.int64)
    matrix[np.arange(width) < lengths[:, np.newaxis]] = np.fromiter(
        (school for prefs in lists for school in prefs), dtype=np.int64, count=int(lengths.sum())
    )
    _reject_repeated_schools(matrix)
    return _Preferences(matrix, lengths)


def _reject_repeated_schools(matrix: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first student whose row lists a school twice.

    One row sort for the whole matrix (about 10 ms at 200k students x 8
    schools); the ``-1`` padding may repeat.
    """
    if matrix.shape[1] < 2:
        return
    ordered = np.sort(matrix, axis=1)
    repeated = ordered[:, 1:] == ordered[:, :-1]
    if not repeated.any():
        return
    repeated &= ordered[:, 1:] >= 0
    if repeated.any():
        student, column = np.argwhere(repeated)[0]
        school = ordered[student, column + 1]
        raise ValueError(f"student {student} lists school {school} more than once")


def _normalize_rankings(
    school_rankings: Sequence[Mapping[int, float] | Sequence[float]] | np.ndarray,
    num_schools: int,
    num_students: int,
) -> np.ndarray:
    """Build the ``(num_schools, num_students)`` score plane, NaN = unacceptable.

    Accepted forms, normalized once up front so the hot loop never touches
    Python mappings:

    * a 2-D float array of shape ``(num_schools, num_students)`` (``NaN``
      entries mark unacceptable students) — used as-is;
    * per school, a mapping ``student -> score`` (students absent from the
      mapping are unacceptable);
    * per school, a sequence of per-student scores; students beyond the end
      of a short sequence are unacceptable.

    A mapping key that is not a student index in ``[0, num_students)``, and
    a sequence longer than the cohort, are rejected rather than dropped.
    """
    if isinstance(school_rankings, np.ndarray):
        if school_rankings.shape != (num_schools, num_students):
            raise ValueError(
                f"score matrix has shape {school_rankings.shape}, "
                f"expected ({num_schools}, {num_students})"
            )
        return school_rankings.astype(float, copy=False)
    if len(school_rankings) != num_schools:
        raise ValueError(
            f"got {len(school_rankings)} school rankings for {num_schools} capacities"
        )
    plane = np.full((num_schools, num_students), np.nan, dtype=float)
    for school, ranking in enumerate(school_rankings):
        if isinstance(ranking, Mapping):
            for student, value in ranking.items():
                if (
                    not isinstance(student, (int, np.integer))
                    or isinstance(student, bool)
                    or not 0 <= student < num_students
                ):
                    raise ValueError(
                        f"school {school} ranks unknown student {student!r} "
                        f"(num_students={num_students})"
                    )
                plane[school, student] = float(value)
        else:
            values = np.asarray(ranking, dtype=float)
            if values.shape[0] > num_students:
                raise ValueError(
                    f"school {school} ranks {values.shape[0]} students; "
                    f"the cohort has {num_students}"
                )
            plane[school, : values.shape[0]] = values
    return plane


def _validate_capacities(capacities: Sequence[int]) -> list[int]:
    """Seat counts as ``int``; non-integer (float, bool) or negative counts fail."""
    capacities = list(capacities)
    for school, capacity in enumerate(capacities):
        if not isinstance(capacity, (int, np.integer)) or isinstance(capacity, bool):
            raise ValueError(
                f"school {school} has capacity {capacity!r}: seat counts must be integers"
            )
        if capacity < 0:
            raise ValueError(f"school {school} has negative capacity {capacity}")
    return [int(capacity) for capacity in capacities]


def _preference_order(
    scores: np.ndarray,
    students: np.ndarray | None = None,
    schools: np.ndarray | None = None,
) -> np.ndarray:
    """Positions ordered by the strict school preference ``(-score, student)``.

    The engine's one tie-break, built on :func:`~repro.ranking.best_first_order`:
    higher score first, equal scores (NaN with NaN) to the lower student.
    ``students`` holds distinct student indices and defaults to the
    positions themselves.  With ``schools``, the order is school-major, and
    each school's run keeps the preference order: one integer sort of
    ``school * n + position``.
    """
    if students is None:
        order = best_first_order(scores)
    else:
        by_student = students.argsort()
        order = by_student[best_first_order(scores[by_student])]
    if schools is not None:
        n = order.shape[0]
        grouped = schools[order] * n + np.arange(n)
        grouped.sort()
        order = order[grouped % n]
    return order


def _build_rosters(
    assignment: np.ndarray, score_plane: np.ndarray, num_schools: int
) -> tuple[tuple[int, ...], ...]:
    """Per-school rosters from a final assignment, best student first.

    One school-major preference order over the matched students orders every
    roster; ``searchsorted`` then splits it into per-school tuples.
    """
    matched = np.flatnonzero(assignment >= 0)
    if not matched.size:
        return tuple(() for _ in range(num_schools))
    schools = assignment[matched]
    # ``matched`` ascends, so positions break ties as the students do.
    order = _preference_order(score_plane[schools, matched], schools=schools)
    students = matched[order].tolist()
    bounds = np.searchsorted(schools[order], np.arange(num_schools + 1))
    return tuple(
        tuple(students[bounds[school] : bounds[school + 1]])
        for school in range(num_schools)
    )


# ----------------------------------------------------------------------
# Student-proposing
# ----------------------------------------------------------------------
class _RosterRuns:
    """Per-school tentative rosters as two sorted runs each.

    Every school's roster is held as a large *main* run plus a small *edge*
    run of recently-changed entries, both sorted by the strict school
    preference ``(-score, student)``.  The point of the split is the bump
    bound of deferred acceptance: ``p`` incoming proposals can displace at
    most the ``p`` weakest held students, so a round only ever needs the
    last ``min(p, len(run))`` entries of each run — the rest of the roster
    is provably safe and is never re-sorted.  Pool survivors are folded into
    the edge run (one small sort); when the edge outgrows a quarter of the
    main run the two are compacted into a fresh main run.
    """

    def __init__(self, num_schools: int) -> None:
        empty_students = np.empty(0, dtype=np.int64)
        empty_scores = np.empty(0, dtype=np.float64)
        self.main_students = [empty_students] * num_schools
        self.main_scores = [empty_scores] * num_schools
        self.edge_students = [empty_students] * num_schools
        self.edge_scores = [empty_scores] * num_schools

    def held(self, school: int) -> int:
        return self.main_students[school].size + self.edge_students[school].size

    def split_tail(self, school: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
        """Pop the up-to-``bound`` weakest entries of each run.

        Returns the pooled tail (students, scores); the runs keep only their
        untouched (provably safe) heads.
        """
        main_students = self.main_students[school]
        edge_students = self.edge_students[school]
        take_main = min(bound, main_students.size)
        take_edge = min(bound, edge_students.size)
        students = np.concatenate(
            [main_students[main_students.size - take_main :],
             edge_students[edge_students.size - take_edge :]]
        )
        scores = np.concatenate(
            [self.main_scores[school][main_students.size - take_main :],
             self.edge_scores[school][edge_students.size - take_edge :]]
        )
        self.main_students[school] = main_students[: main_students.size - take_main]
        self.main_scores[school] = self.main_scores[school][: main_students.size - take_main]
        self.edge_students[school] = edge_students[: edge_students.size - take_edge]
        self.edge_scores[school] = self.edge_scores[school][: edge_students.size - take_edge]
        return students, scores

    def absorb(self, school: int, students: np.ndarray, scores: np.ndarray) -> None:
        """Fold newly admitted entries into the edge run (compacting if large)."""
        students = np.concatenate([self.edge_students[school], students])
        scores = np.concatenate([self.edge_scores[school], scores])
        main_size = self.main_students[school].size
        if students.size > max(64, main_size // 4):
            students = np.concatenate([self.main_students[school], students])
            scores = np.concatenate([self.main_scores[school], scores])
            order = _preference_order(scores, students)
            self.main_students[school] = students[order]
            self.main_scores[school] = scores[order]
            self.edge_students[school] = students[:0]
            self.edge_scores[school] = scores[:0]
        else:
            order = _preference_order(scores, students)
            self.edge_students[school] = students[order]
            self.edge_scores[school] = scores[order]

    def weakest(self, school: int) -> tuple[float, int]:
        """The ``(score, student)`` of the school's weakest held student."""
        main_students = self.main_students[school]
        edge_students = self.edge_students[school]
        if not main_students.size:
            return float(self.edge_scores[school][-1]), int(edge_students[-1])
        if not edge_students.size:
            return float(self.main_scores[school][-1]), int(main_students[-1])
        main_key = (float(self.main_scores[school][-1]), -int(main_students[-1]))
        edge_key = (float(self.edge_scores[school][-1]), -int(edge_students[-1]))
        weaker = min(main_key, edge_key)
        return weaker[0], -weaker[1]


def _run_students(
    pref_matrix: np.ndarray,
    lengths: np.ndarray,
    score_plane: np.ndarray,
    capacities: list[int],
) -> MatchResult:
    """Round-based vectorized match: every round batches all open proposals.

    Per round: (a) gather each active (unmatched, list not exhausted)
    student's next school through the pointer array; (b) drop proposals no
    school will consider — zero-capacity schools silently, and proposals at
    or below the target school's current admission *cutoff* (the
    ``(score, -student)`` key of its weakest held student once full; NaN
    scores fail every comparison and are dropped here too); (c) sort the
    surviving proposals into per-school segments in preference order with
    one :func:`_preference_order` call and resolve each segment against the
    bounded tail of that school's roster (:class:`_RosterRuns`): ``p``
    proposals can bump at most the ``p`` weakest held students, so the top
    of the roster is never touched, let alone re-sorted.  Admits take the
    top ``capacity`` of each merged pool; everyone else returns to the
    active set.  Cutoffs only ever rise, so the pre-filter in (b) never
    drops a proposal the full resolution would have admitted.
    """
    num_students = pref_matrix.shape[0]
    num_schools = len(capacities)
    caps = np.asarray(capacities, dtype=np.int64)
    has_seats = caps > 0

    next_choice = np.zeros(num_students, dtype=np.int64)
    assignment = np.full(num_students, -1, dtype=np.int64)
    matched_rank = np.full(num_students, -1, dtype=np.int64)
    # Admission cutoffs: the (score, -student) key of each full school's
    # weakest held student.  (-inf, num_students) means "not yet full": any
    # non-NaN score from any student beats it.
    cutoff_score = np.full(num_schools, -np.inf)
    cutoff_student = np.full(num_schools, num_students, dtype=np.int64)
    rosters = _RosterRuns(num_schools)
    proposals = 0

    active = np.flatnonzero(lengths > 0)
    while active.size:
        school = pref_matrix[active, next_choice[active]]
        next_choice[active] += 1
        considered = has_seats[school]
        proposals += int(np.count_nonzero(considered))
        scores = score_plane[school, active]
        # Proposals that beat the school's cutoff.  NaN fails both
        # comparisons, so unacceptable students are (counted and) dropped.
        serious = considered & (
            (scores > cutoff_score[school])
            | ((scores == cutoff_score[school]) & (active < cutoff_student[school]))
        )
        bounced: list[np.ndarray] = [active[~serious]]
        if serious.any():
            proposers = active[serious]
            target = school[serious]
            prop_scores = scores[serious]
            # School-major segments, each ordered by the strict school
            # preference (score desc, student asc).
            order = _preference_order(prop_scores, proposers, target)
            seg_students = proposers[order]
            seg_scores = prop_scores[order]
            seg_schools = target[order]
            boundaries = np.flatnonzero(
                np.r_[True, seg_schools[1:] != seg_schools[:-1], True]
            )
            for begin, end in zip(boundaries[:-1], boundaries[1:]):
                j = int(seg_schools[begin])
                incoming = int(end - begin)
                tail_students, tail_scores = rosters.split_tail(j, incoming)
                pool_students = np.concatenate(
                    [tail_students, seg_students[begin:end]]
                )
                pool_scores = np.concatenate([tail_scores, seg_scores[begin:end]])
                pool_order = _preference_order(pool_scores, pool_students)
                # The untouched roster heads are provably safe, so the pool
                # competes for whatever seats they do not occupy.
                seats = int(caps[j]) - rosters.held(j)
                admit = pool_order[:seats]
                reject = pool_order[seats:]
                admitted_students = pool_students[admit]
                rosters.absorb(j, admitted_students, pool_scores[admit])
                # Re-admitted tail entries are overwritten with the identical
                # school, so no proposer/holder split is needed here.
                assignment[admitted_students] = j
                if reject.size:
                    rejected_students = pool_students[reject]
                    assignment[rejected_students] = -1
                    matched_rank[rejected_students] = -1
                    bounced.append(rejected_students)
                if rosters.held(j) == caps[j]:
                    cutoff_score[j], cutoff_student[j] = rosters.weakest(j)
            # matched_rank: a proposer whose assignment now equals its target
            # was admitted this round — its rank is the (just advanced)
            # pointer minus one.  Re-admitted holders never appear among the
            # proposers, so their earlier ranks survive untouched.
            fresh = seg_students[assignment[seg_students] == seg_schools]
            matched_rank[fresh] = next_choice[fresh] - 1
        again = np.concatenate(bounced)
        active = again[next_choice[again] < lengths[again]]

    return MatchResult(
        assignment=assignment,
        rosters=_build_rosters(assignment, score_plane, num_schools),
        proposals_made=proposals,
        matched_rank=matched_rank,
    )


# ----------------------------------------------------------------------
# School-proposing
# ----------------------------------------------------------------------
#: held_rank sentinel meaning "this student holds no offer yet" — larger than
#: any real preference-list position.
_NO_OFFER = np.iinfo(np.int64).max


def _school_proposal_order(score_plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per school: all students in proposal order, and the acceptable count.

    Each row is ranked by the strict school preference (score descending,
    ties to the lower student index) into one preallocated array; NaN
    (unacceptable) students sort past the returned count.
    """
    order = np.empty(score_plane.shape, dtype=np.int64)
    for school, scores in enumerate(score_plane):
        order[school] = _preference_order(scores)
    counts = np.count_nonzero(~np.isnan(score_plane), axis=1).astype(np.int64)
    return order, counts


def _student_rank_matrix(matrix: np.ndarray, num_schools: int) -> np.ndarray:
    """``(num_students, num_schools)`` list positions; ``-1`` = not listed.

    One scatter: ``_normalize_preferences`` rejects a list that names a
    school twice, so every (student, school) cell is written at most once.
    """
    ranks = np.full((matrix.shape[0], num_schools), -1, dtype=np.int64)
    students, positions = np.nonzero(matrix >= 0)
    ranks[students, matrix[students, positions]] = positions
    return ranks


def _schools_result(
    assignment: np.ndarray,
    held_rank: np.ndarray,
    score_plane: np.ndarray,
    num_schools: int,
    proposals: int,
) -> MatchResult:
    matched = assignment >= 0
    matched_rank = np.where(matched, held_rank, -1).astype(np.int64)
    return MatchResult(
        assignment=assignment.astype(np.int64, copy=False),
        rosters=_build_rosters(assignment, score_plane, num_schools),
        proposals_made=proposals,
        matched_rank=matched_rank,
    )


def _run_schools(
    pref_matrix: np.ndarray,
    lengths: np.ndarray,
    score_plane: np.ndarray,
    capacities: list[int],
) -> MatchResult:
    """Round-based vectorized school-proposing match.

    Each round every school with free seats proposes, in one batch, to the
    next ``free`` students on its ranked list (ragged batches built with
    ``np.repeat`` over the pointer array).  Offers are resolved per student:
    among the round's offers from listed schools that beat the currently held
    offer, the student keeps the school earliest in their list (one lexsort,
    first entry per student segment); every switch releases a seat at the
    student's previous school, which re-enters the round loop.
    """
    num_students = pref_matrix.shape[0]
    num_schools = len(capacities)
    order, counts = _school_proposal_order(score_plane)
    ranks = _student_rank_matrix(pref_matrix, num_schools)
    considers = lengths > 0
    caps = np.asarray(capacities, dtype=np.int64)

    free = caps.copy()
    ptr = np.zeros(num_schools, dtype=np.int64)
    assignment = np.full(num_students, -1, dtype=np.int64)
    held_rank = np.full(num_students, _NO_OFFER, dtype=np.int64)
    proposals = 0

    active = np.flatnonzero((free > 0) & (ptr < counts))
    while active.size:
        batch = np.minimum(free[active], counts[active] - ptr[active])
        prop_school = np.repeat(active, batch)
        batch_starts = np.repeat(np.cumsum(batch) - batch, batch)
        within = np.arange(prop_school.size) - batch_starts
        prop_student = order[prop_school, ptr[prop_school] + within]
        ptr[active] += batch
        considered = considers[prop_student]
        proposals += int(np.count_nonzero(considered))
        prop_rank = ranks[prop_student, prop_school]
        # An offer is serious when the student lists the school earlier than
        # whatever they currently hold (_NO_OFFER when unmatched).
        serious = considered & (prop_rank >= 0) & (prop_rank < held_rank[prop_student])
        if serious.any():
            students = prop_student[serious]
            offers = prop_school[serious]
            offer_rank = prop_rank[serious]
            # Best offer per student: student-major, then rank ascending
            # (ranks are strict — two schools cannot share a list position).
            win_order = np.lexsort((offer_rank, students))
            first = np.empty(students.size, dtype=bool)
            first[0] = True
            sorted_students = students[win_order]
            np.not_equal(sorted_students[1:], sorted_students[:-1], out=first[1:])
            winners = win_order[first]
            win_student = students[winners]
            win_school = offers[winners]
            previous = assignment[win_student]
            released = previous[previous >= 0]
            assignment[win_student] = win_school
            held_rank[win_student] = offer_rank[winners]
            free += np.bincount(released, minlength=num_schools)
            free -= np.bincount(win_school, minlength=num_schools)
        active = np.flatnonzero((free > 0) & (ptr < counts))

    return _schools_result(
        assignment, held_rank, score_plane, num_schools, proposals
    )


def deferred_acceptance(
    student_preferences: Sequence[Sequence[int]] | np.ndarray,
    school_rankings: Sequence[Mapping[int, float] | Sequence[float]] | np.ndarray,
    capacities: Sequence[int],
    *,
    proposing: str = "students",
) -> MatchResult:
    """Run deferred acceptance (student- or school-proposing).

    Parameters
    ----------
    student_preferences:
        ``student_preferences[s]`` is student ``s``'s ordered list of school
        indices, most preferred first; students not listing a school can
        never be matched to it.  A 2-D ``int`` array is accepted as a padded
        preference matrix (rows right-padded with ``-1``), which is the form
        :func:`~repro.matching.generate_student_preferences` emits with
        ``as_matrix=True``.
    school_rankings:
        Either a ``(num_schools, num_students)`` float score matrix (``NaN``
        marks unacceptable students), or, per school, a mapping
        ``student -> score`` / a sequence of per-student scores (higher is
        better).  Students missing from a mapping or beyond the end of a
        short sequence are unacceptable to that school; a mapping key outside
        ``[0, num_students)`` or a sequence longer than the cohort raises
        ``ValueError``.  Equal scores break in favour of the lower student
        index.
    capacities:
        Number of seats at each school: non-negative integers (Python or
        NumPy); a float or bool seat count raises ``ValueError``.
    proposing:
        ``"students"`` (default) returns the student-optimal stable
        matching; ``"schools"`` runs school-proposing deferred acceptance
        and returns the school-optimal one.

    Returns
    -------
    MatchResult
        The stable matching with respect to the given preferences/rankings.
    """
    if proposing not in PROPOSING_SIDES:
        raise ValueError(
            f"unknown proposing side {proposing!r}; expected one of {PROPOSING_SIDES}"
        )
    capacities = _validate_capacities(capacities)
    preferences = _normalize_preferences(student_preferences, len(capacities))
    return _match(preferences, school_rankings, capacities, proposing)


def _match(
    preferences: _Preferences,
    school_rankings: Sequence[Mapping[int, float] | Sequence[float]] | np.ndarray,
    capacities: list[int],
    proposing: str,
) -> MatchResult:
    """Deferred acceptance on preference lists validated once, up front.

    A caller that matches one preference input several times (both planes,
    both proposing sides) passes it through :func:`_normalize_preferences`
    once and calls this for each match.  ``capacities`` must be
    non-negative ``int`` seat counts and ``proposing`` one of
    :data:`PROPOSING_SIDES`; the rankings are normalized here, per call.
    """
    num_schools = len(capacities)
    score_plane = _normalize_rankings(
        school_rankings, num_schools, preferences.matrix.shape[0]
    )
    run = _run_students if proposing == "students" else _run_schools
    return run(preferences.matrix, preferences.lengths, score_plane, capacities)
