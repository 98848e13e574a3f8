"""Recording the BENCH_*.json performance trajectory.

The ROADMAP expects headline performance numbers to be *tracked*, not
remembered: each perf-sensitive benchmark calls :func:`record_bench` with
its measured wall-clocks and speedups, and the payload lands as
``benchmarks/BENCH_<name>.json``:

* always into ``$REPRO_BENCH_OUT`` when that is set — the CI bench job
  points it at a scratch dir and uploads the files as run artifacts;
* additionally into ``benchmarks/`` itself when ``REPRO_REGEN_BENCH=1``
  (the same regen idiom as ``REPRO_REGEN_GOLDEN``), which is how the
  committed trajectory advances: regenerate, eyeball the diff, commit.

Wall-clock floors (one backend must beat another, the array loop must beat
the table oracle) are assertions about the machine as much as the code, so
they gate only where timing means something: :func:`floors_enforced` is true
under ``REPRO_BENCH_ENFORCE=1``, which the CI bench job sets.  Everywhere
else the timings are still measured and recorded, and the identity
assertions beside them still run.

Payloads are deliberately machine-independent-comparable: metrics plus the
context that shaped them (cohort size, workers, cores), **no timestamps**
— the git history dates each regen, and a content-identical rerun should
produce a byte-identical file modulo the measured floats.

A later benchmark run merges into an existing payload (same schema and
bench name) instead of clobbering it, so the two matching comparisons can
land in one ``BENCH_matching.json`` regardless of which tests ran.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from repro.core.parallel import usable_cores

__all__ = [
    "BENCH_DIR",
    "SCHEMA",
    "bench_path",
    "floors_enforced",
    "record_bench",
    "usable_cores",
]

BENCH_DIR = Path(__file__).resolve().parent
SCHEMA = 1


def bench_path(name: str, directory: Path | None = None) -> Path:
    return (directory or BENCH_DIR) / f"BENCH_{name}.json"


def floors_enforced() -> bool:
    """Whether wall-clock floors gate: only under ``REPRO_BENCH_ENFORCE=1``."""
    return os.environ.get("REPRO_BENCH_ENFORCE") == "1"


def _merged(path: Path, payload: dict[str, Any]) -> dict[str, Any]:
    if not path.exists():
        return payload
    try:
        existing = json.loads(path.read_text())
    except (OSError, ValueError):
        return payload
    if existing.get("schema") != SCHEMA or existing.get("bench") != payload["bench"]:
        return payload
    merged = dict(existing)
    merged["metrics"] = {**existing.get("metrics", {}), **payload["metrics"]}
    merged["context"] = {**existing.get("context", {}), **payload["context"]}
    return merged


def record_bench(
    name: str,
    metrics: Mapping[str, Any],
    context: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Record one benchmark's measurements; returns the payload written.

    ``metrics`` values are numbers (or flat dicts of numbers, for grouped
    comparisons); ``context`` captures the knobs that shaped them.  Where
    the payload lands is environment-driven — see the module docstring.
    A no-op (still returning the payload) when neither destination is
    armed, so benchmarks stay side-effect free by default.
    """
    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "bench": name,
        "metrics": dict(metrics),
        "context": dict(context or {}),
    }
    destinations: list[Path] = []
    artifact_dir = os.environ.get("REPRO_BENCH_OUT")
    if artifact_dir:
        destinations.append(Path(artifact_dir))
    if os.environ.get("REPRO_REGEN_BENCH") == "1":
        destinations.append(BENCH_DIR)
    for directory in destinations:
        directory.mkdir(parents=True, exist_ok=True)
        target = bench_path(name, directory)
        merged = _merged(target, payload)
        target.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return payload
