"""Benchmark: cold start — what a fresh interpreter pays before any work.

Every CLI run, spawn-started pool worker and subprocess imports the package
from scratch.  This bench starts fresh interpreters and records into
``BENCH_cold_start.json``:

* the median (and range) over 5 interpreters of the time to
  ``import repro.experiments``, timed inside each child;
* the wall-clock of ``python -m repro.experiments.cli list``, interpreter
  start included, timed by the parent;
* whether ``scipy.stats`` (about a second of import on its own) and
  ``scipy.special`` were loaded by the import, each as 0 or 1;
* the core count and the Python, NumPy and SciPy versions, each as
  ``{major, minor, micro}``.

It records and never gates: the only assertions are that the children ran.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from _bench_record import record_bench, usable_cores

REPO_ROOT = Path(__file__).resolve().parent.parent
INTERPRETERS = 5

_IMPORT_PROBE = """
import sys
import time

start = time.perf_counter()
import repro.experiments
print(
    time.perf_counter() - start,
    int("scipy.stats" in sys.modules),
    int("scipy.special" in sys.modules),
)
"""


def _run(*argv: str) -> subprocess.CompletedProcess[str]:
    completed = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def _version(text: str) -> dict[str, int]:
    major, minor, micro = (int(part) for part in re.findall(r"\d+", text)[:3])
    return {"major": major, "minor": minor, "micro": micro}


def test_cold_start_recorded():
    import_seconds = []
    stats_loaded = []
    special_loaded = []
    for _ in range(INTERPRETERS):
        seconds, stats, special = _run("-c", _IMPORT_PROBE).stdout.split()
        import_seconds.append(float(seconds))
        stats_loaded.append(int(stats))
        special_loaded.append(int(special))

    start = time.perf_counter()
    listing = _run("-m", "repro.experiments.cli", "list").stdout
    cli_list_seconds = time.perf_counter() - start
    assert "table1" in listing

    record_bench(
        "cold_start",
        {
            "import_seconds_median": round(statistics.median(import_seconds), 4),
            "import_seconds_min": round(min(import_seconds), 4),
            "import_seconds_max": round(max(import_seconds), 4),
            "cli_list_seconds": round(cli_list_seconds, 4),
            "scipy_stats_loaded": max(stats_loaded),
            "scipy_special_loaded": max(special_loaded),
        },
        context={
            "interpreters": INTERPRETERS,
            "cores": usable_cores(),
            "python": _version(sys.version),
            "numpy": _version(np.__version__),
            "scipy": _version(scipy.__version__),
        },
    )
