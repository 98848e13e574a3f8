"""Deferred-acceptance matching substrate for the school-admissions scenario.

``deferred_acceptance`` runs the match on one round-based array-plane engine
(batched proposals, no per-proposal Python loop).  ``proposing="students"``
(default) returns the student-optimal stable matching,
``proposing="schools"`` the school-optimal one.  Both are pinned exactly to
the original pure-Python implementation, which lives next to the tests as
the oracle ``tests/_da_reference_oracle.py`` (``tests/test_matching.py``,
``tests/test_matching_properties.py``).
``generate_student_preferences`` builds district-size preference lists from
a vectorized popularity-plus-Gumbel utility model.  The end-to-end admissions workload
lives in :mod:`repro.experiments.matching_admissions`.
"""

from .deferred_acceptance import PROPOSING_SIDES, MatchResult, deferred_acceptance
from .preferences import generate_student_preferences

__all__ = [
    "PROPOSING_SIDES",
    "MatchResult",
    "deferred_acceptance",
    "generate_student_preferences",
]
