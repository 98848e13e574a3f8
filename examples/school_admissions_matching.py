"""End-to-end school admissions: bonus points inside a deferred-acceptance match.

The paper's motivating scenario is the NYC high-school match: each school
ranks its applicants with its own rubric, students rank schools, and a
deferred-acceptance algorithm computes the assignment.  Because a school does
not know in advance how far down its list it will admit, bonus points are
fitted with the **log-discounted** objective.

The pipeline itself is a first-class experiment
(:mod:`repro.experiments.matching_admissions`, ``repro-experiments run
matching``): per-school bonus vectors batched through ``DCA.fit_many``, a
district of screened schools with noisy rubrics, and the round-based
deferred-acceptance match.  This example runs it on a small
district and prints the resulting tables.

Run with::

    python examples/school_admissions_matching.py
"""

from __future__ import annotations

from repro.experiments import matching_admissions

NUM_SCHOOLS = 6
NUM_APPLICANTS = 6_000


def main() -> None:
    result = matching_admissions.run(
        num_students=NUM_APPLICANTS, num_schools=NUM_SCHOOLS, list_length=4
    )
    print(result.format())

    # The same pipeline with schools proposing (the school-optimal stable
    # matching): comparing the two rank-of-match tables shows what the
    # choice of proposing side costs students.
    school_optimal = matching_admissions.run(
        num_students=NUM_APPLICANTS,
        num_schools=NUM_SCHOOLS,
        list_length=4,
        proposing="schools",
    )
    print()
    print(school_optimal.format())


if __name__ == "__main__":
    main()
