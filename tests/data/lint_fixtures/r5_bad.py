"""Known-bad R5 fixture: hidden randomness behind fit-reachable helpers.

Every violation here is *invisible to R1*: the draws live in helpers, in a
directory R1 does not audit, and only the call graph connects them to the
``fit`` / ``_plane_worker_fit`` entry points.
"""

import random
import time

import numpy as np


def _hidden_jitter():
    return random.random()  # LINT-EXPECT: R5


def _entropy_stream():
    return np.random.default_rng()  # LINT-EXPECT: R5


def _global_draw(n):
    return np.random.rand(n)  # LINT-EXPECT: R5


def _stamp():
    return time.time()  # LINT-EXPECT: R5


def fit(values):
    stream = _entropy_stream()
    noise = _global_draw(len(values)) + _hidden_jitter()
    return values + noise, stream, _stamp()


def _worker_noise(n):
    return np.random.standard_normal(n)  # LINT-EXPECT: R5


def _plane_worker_fit(job):
    # The process-pool worker entry: its callees are audited like fit's.
    return _worker_noise(job.num_rows)
