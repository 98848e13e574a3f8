"""Known-bad scenario fixture: market-shape helpers drawing unseeded RNG.

Lives under a ``scenarios/`` directory, which is hot-path for R1 — so the
unseeded draws are flagged twice: directly by R1, and interprocedurally by
R5 through the ``fit`` entry point.
"""

import numpy as np


def _market_noise(num_students):
    return np.random.rand(num_students)  # LINT-EXPECT: R1, R5


def _trial_stream():
    return np.random.default_rng()  # LINT-EXPECT: R1, R5


def fit(market):
    noise = _market_noise(market.num_students)
    return market.base_scores + noise * _trial_stream().normal()
