"""Run the benchmark on several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload reproduce --runs 10 [--first-seed 1]

Each run is ``perfbench/run.py`` in a fresh process with its own ``--seed``
and the ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric
it prints the median and the inter-quartile distance as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if word == "python3" else word for word in spec["command"]]

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{name}={entry['value']:.4f}"
                          for name, entry in result["metrics"].items()), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if len(series) >= 2 and median else float("nan")
        print(f"{name:<32} median {median:12.4f}  spread {spread:7.2%}  "
              f"bound {bounds[name]:.0%} (third {bounds[name] / 3:.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
