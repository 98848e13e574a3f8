"""Statistics and bookkeeping shared by the benchmark's workloads.

Timing-free on purpose: everything here is exercised by
``perfbench/test_perfbench.py`` inside the tier-1 suite.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field

#: Tail percentiles considered for a timing, highest first, in per-mille.
TAIL_PER_MILLE = (999, 990, 900)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, per_mille: int) -> int:
    """How many of ``count`` samples lie strictly above the ``per_mille`` percentile.

    Integer arithmetic, so ``samples_beyond(100, 900)`` is exactly 10.
    """
    return count - (count * per_mille + 999) // 1000


def tail_per_mille(count: int) -> int | None:
    """The highest tail percentile (per mille) with enough samples beyond it.

    ``None`` when even the 90th percentile would rest on fewer than
    :data:`MIN_SAMPLES_BEYOND` samples, in which case only the median is
    reported.
    """
    for per_mille in TAIL_PER_MILLE:
        if samples_beyond(count, per_mille) >= MIN_SAMPLES_BEYOND:
            return per_mille
    return None


def percentile(samples, per_mille: int) -> float:
    """Linear-interpolated percentile (``per_mille`` / 10 percent) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * per_mille / 1000
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (the acceptance rule)."""
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median


@dataclass
class RequestLog:
    """Closed-loop request accounting: durations, attempts and failures.

    A request fails when it raises or when any output check on it fails; a
    request counts once however many of its checks fail.  ``durations``
    holds the wall-clock of every request that returned.
    """

    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed_requests: set[int] = field(default_factory=set)

    def begin(self) -> int:
        """Count a new attempt and return its request index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, index: int, problems) -> None:
        problems = [problems] if isinstance(problems, str) else list(problems)
        if not problems:
            return
        self.failed_requests.add(index)
        for problem in problems:
            print(f"check failed: request {index}: {problem}", file=sys.stderr)

    def fail_with_exception(self, index: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.fail(index, f"raised {sys.exc_info()[0].__name__}")

    @property
    def failed(self) -> int:
        return len(self.failed_requests)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
