"""Output checks the benchmark runs on every request, outside the timed region.

Each check returns a list of human-readable problems; an empty list means
the output is correct.  ``perfbench/test_perfbench.py`` shows every check
firing on a deliberately corrupted result.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _same_bits(left, right) -> bool:
    left = np.asarray(left)
    right = np.asarray(right)
    return left.dtype == right.dtype and left.shape == right.shape and (
        left.tobytes() == right.tobytes()
    )


def check_bitwise_equal(expected, actual) -> list[str]:
    """Two ``fit_many`` batches agree bit for bit (the executors' identity contract)."""
    if len(expected) != len(actual):
        return [f"batch sizes differ: {len(expected)} vs {len(actual)}"]
    problems = []
    for job, (left, right) in enumerate(zip(expected, actual)):
        if (left.k, left.seed) != (right.k, right.seed):
            problems.append(f"job {job}: (k, seed) {left.k, left.seed} vs {right.k, right.seed}")
            continue
        a, b = left.result, right.result
        fields = {
            "bonus": (a.bonus.values, b.bonus.values),
            "raw_bonus": (a.raw_bonus.values, b.raw_bonus.values),
            "core_bonus": (a.core_bonus.values, b.core_bonus.values),
            "sample_size": (a.sample_size, b.sample_size),
            "phases": (len(a.traces), len(b.traces)),
        }
        for phase, (ta, tb) in enumerate(zip(a.traces, b.traces)):
            fields[f"trace {phase} history"] = (ta.bonus_history, tb.bonus_history)
            fields[f"trace {phase} norms"] = (ta.objective_norms, tb.objective_norms)
        for name, (x, y) in fields.items():
            if not _same_bits(x, y):
                problems.append(f"job {job} (k={left.k}): {name} differs")
    return problems


def check_bonus_lattice(values, granularity: float) -> list[str]:
    """A published bonus is finite, non-negative and a multiple of ``granularity``."""
    values = np.asarray(values, dtype=float)
    problems = []
    if not np.all(np.isfinite(values)):
        problems.append(f"non-finite bonus {values.tolist()}")
        return problems
    if np.any(values < 0):
        problems.append(f"negative bonus {values.tolist()}")
    if granularity > 0:
        nearest = np.round(values / granularity) * granularity
        if np.any(np.abs(values - nearest) > 1e-9 * np.maximum(1.0, np.abs(values))):
            problems.append(f"bonus {values.tolist()} is off the {granularity:g} lattice")
    return problems


def check_tables(name: str, result) -> list[str]:
    """An experiment returned non-empty tables whose numeric cells are all finite."""
    if not result.tables:
        return [f"{name}: no tables"]
    problems = []
    for label, rows in result.tables.items():
        if not rows:
            problems.append(f"{name} / {label}: empty table")
        for row in rows:
            for column, value in row.items():
                if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
                    continue
                if not math.isfinite(float(value)):
                    problems.append(f"{name} / {label} / {column}: non-finite cell {value!r}")
    return problems


def check_matching(match, preferences, score_plane, capacities) -> list[str]:
    """A deferred-acceptance result is feasible and stable, vectorised over the lists.

    Feasible: no school over capacity, every matched student is on a school
    they listed, and the rosters agree with the assignment.  Stable: no
    student prefers a listed school that either has a free seat or holds
    someone it ranks below them (ties favour the lower student index, as in
    :mod:`repro.matching`); ``NaN`` scores mark unacceptable students.
    """
    preferences = np.asarray(preferences)
    plane = np.asarray(score_plane, dtype=float)
    capacities = np.asarray(capacities, dtype=np.int64)
    assignment = np.asarray(match.assignment, dtype=np.int64)
    list_length = preferences.shape[1]
    num_schools = capacities.shape[0]
    problems = []

    matched = assignment >= 0
    counts = np.bincount(assignment[matched], minlength=num_schools)
    over = np.nonzero(counts > capacities)[0]
    if over.size:
        problems.append(f"schools over capacity: {over.tolist()}")
    listed = preferences == assignment[:, np.newaxis]
    off_list = np.nonzero(matched & ~listed.any(axis=1))[0]
    if off_list.size:
        problems.append(f"{off_list.size} students matched off their lists, e.g. {off_list[:5].tolist()}")
    for school in range(num_schools):
        roster = np.sort(np.asarray(match.rosters[school], dtype=np.int64))
        if not np.array_equal(roster, np.nonzero(assignment == school)[0]):
            problems.append(f"school {school}: roster disagrees with the assignment")
    if problems:
        return problems

    # Each school's weakest admitted student under its strict order (score, -index).
    held = np.nonzero(matched)[0]
    held_school = assignment[held]
    held_scores = plane[held_school, held]
    order = np.lexsort((-held, held_scores, held_school))  # per school, weakest first
    weakest = order[np.r_[True, held_school[order][1:] != held_school[order][:-1]]]
    weakest_score = np.full(num_schools, np.inf)
    weakest_student = np.full(num_schools, -1, dtype=np.int64)
    weakest_score[held_school[weakest]] = held_scores[weakest]
    weakest_student[held_school[weakest]] = held[weakest]

    # Listed schools the student ranks above their match (all of them if unmatched).
    position = np.where(matched, np.argmax(listed, axis=1), list_length)
    ahead = (np.arange(list_length)[np.newaxis, :] < position[:, np.newaxis]) & (preferences >= 0)
    pair_students, pair_slots = np.nonzero(ahead)
    schools = preferences[pair_students, pair_slots]
    scores = plane[schools, pair_students]
    acceptable = ~np.isnan(scores)
    free_seat = counts[schools] < capacities[schools]
    outranks = (scores > weakest_score[schools]) | (
        (scores == weakest_score[schools]) & (pair_students < weakest_student[schools])
    )
    blocking = acceptable & (free_seat | ((counts[schools] > 0) & outranks))
    if blocking.any():
        where = np.nonzero(blocking)[0][:5]
        pairs = list(zip(pair_students[where].tolist(), schools[where].tolist()))
        problems.append(f"{int(blocking.sum())} blocking pairs, e.g. (student, school) {pairs}")
    return problems
