"""Deferred-acceptance matching substrate for the school-admissions scenario.

``deferred_acceptance`` runs the match on the round-based array plane by
default (``engine="vector"``: batched proposals, no per-proposal Python
loop); the original pure-Python implementation survives as
``engine="reference"``, the oracle the tests pin it to.
``proposing="students"`` (default) returns the student-optimal stable
matching, ``proposing="schools"`` the school-optimal one; both engines
support both sides and are proven to produce identical matchings
(``tests/test_matching.py``, ``tests/test_matching_properties.py``).
``generate_student_preferences`` builds district-size preference lists from
a vectorized popularity-plus-Gumbel utility model.  The end-to-end admissions workload
lives in :mod:`repro.experiments.matching_admissions`.
"""

from .deferred_acceptance import ENGINES, PROPOSING_SIDES, MatchResult, deferred_acceptance
from .preferences import generate_student_preferences

__all__ = [
    "ENGINES",
    "PROPOSING_SIDES",
    "MatchResult",
    "deferred_acceptance",
    "generate_student_preferences",
]
