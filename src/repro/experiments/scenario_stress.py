"""Scenario stress sweep: fairness/runtime envelopes across market shapes.

Runs every built-in scenario of :mod:`repro.scenarios` through the
Monte-Carlo driver — by default all six shapes x both matching engines
x both proposing sides x two DCA objectives — and reports three tables:

* **fairness envelopes** — min/mean/max over trials of the disparity norm,
  DDP, and representation gaps before vs after compensation, plus the
  matched-cohort share gap;
* **runtime envelopes** — per-engine match seconds and per-backend fit
  seconds;
* **identity checks** — 1/0 verdicts: did every engine produce the same
  matching, and did every parallel fit reproduce the serial bits.

The envelope numbers are also recorded through
``benchmarks/_bench_record.py`` into ``BENCH_scenarios.json`` whenever a
recording destination is armed (``REPRO_BENCH_OUT`` / ``REPRO_REGEN_BENCH``),
extending the committed performance trajectory.

CLI::

    repro-experiments run scenarios --engine vector
    repro-experiments run scenarios --executor process --workers 4

The batch backend is not a parameter: the runner reads the ambient one
(:func:`repro.core.parallel.current_execution`, which the CLI sets from
``--executor``/``--workers``) and checks it bitwise against serial.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from ..core.parallel import current_execution
from ..matching import ENGINES, PROPOSING_SIDES
from ..scenarios import builtin_scenarios, run_scenario
from .harness import ExperimentResult

__all__ = ["run"]

def _load_bench_recorder():
    """``record_bench`` from ``benchmarks/_bench_record.py``, or ``None``.

    The recorder lives outside the installed package (it is repo tooling,
    not library code), so locate it relative to the source checkout and
    degrade silently when the experiment runs from an installed wheel.
    """
    for parent in Path(__file__).resolve().parents:
        candidate = parent / "benchmarks" / "_bench_record.py"
        if candidate.is_file():
            spec = importlib.util.spec_from_file_location("_bench_record", candidate)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.record_bench
    return None


def _flat(envelope: dict[str, dict[str, float]], stat: str = "mean") -> dict[str, float]:
    return {key: stats[stat] for key, stats in envelope.items()}


def run(
    num_students: int | None = None,
    engine: str | None = None,
    proposing: str | None = None,
    trials: int | None = None,
) -> ExperimentResult:
    """Sweep every built-in scenario and report its envelopes.

    ``engine``/``proposing`` restrict the matching grid to one engine or
    side (default: both engines on both sides — the full differential
    grid).  A non-serial ambient backend is added to the executor grid and
    checked bitwise against the serial batch.  ``num_students`` rescales every scenario to one size,
    and ``trials`` overrides each scenario's Monte-Carlo trial count.
    """
    engines = (engine,) if engine else ENGINES
    proposing_sides = (proposing,) if proposing else PROPOSING_SIDES
    executor, max_workers = current_execution()
    executors = ("serial",) if executor in (None, "serial") else ("serial", executor)

    result = ExperimentResult(
        name="scenarios",
        description=(
            "Monte-Carlo market-shape stress sweep: fairness/runtime envelopes and "
            "cross-engine / cross-executor identity checks per scenario"
        ),
    )

    fairness_rows = []
    runtime_rows = []
    identity_rows = []
    bench_metrics: dict[str, dict[str, float]] = {}
    for config in builtin_scenarios():
        if num_students is not None:
            config = config.scaled(num_students=num_students)
        envelope = run_scenario(
            config,
            engines=engines,
            proposing_sides=proposing_sides,
            executors=executors,
            max_workers=max_workers,
            trials=trials,
        )
        fairness = envelope.fairness
        fairness_rows.append(
            {
                "scenario": config.name,
                "trials": envelope.trials,
                "students": config.num_students,
                "disparity_before": fairness["disparity_norm_before"]["mean"],
                "disparity_after": fairness["disparity_norm_after"]["mean"],
                "ddp_before": fairness["ddp_before"]["mean"],
                "ddp_after": fairness["ddp_after"]["mean"],
                "rep_gap_before": fairness["representation_gap_before"]["mean"],
                "rep_gap_after": fairness["representation_gap_after"]["mean"],
                "match_share_gap": fairness["match_share_gap"]["mean"],
                "unmatched_max": fairness["unmatched_students"]["max"],
            }
        )
        runtime_row: dict[str, object] = {"scenario": config.name}
        for key, stats in sorted(envelope.runtime.items()):
            runtime_row[f"{key}_mean"] = stats["mean"]
            runtime_row[f"{key}_max"] = stats["max"]
        runtime_rows.append(runtime_row)
        identity_rows.append({"scenario": config.name, **envelope.identity})
        bench_metrics[config.name] = {
            "ddp_after": fairness["ddp_after"]["mean"],
            "disparity_after": fairness["disparity_norm_after"]["mean"],
            **{key: stats["mean"] for key, stats in envelope.runtime.items()},
            **envelope.identity,
        }
        if not envelope.all_identical():
            result.add_note(
                f"IDENTITY VIOLATION in scenario {config.name!r}: {envelope.identity}"
            )

    result.add_table("fairness envelopes (mean over trials)", fairness_rows)
    result.add_table("runtime envelopes (seconds)", runtime_rows)
    result.add_table("identity checks (1 = held in every trial)", identity_rows)
    result.add_note(
        f"grid: {len(fairness_rows)} scenarios x engines={','.join(engines)} x "
        f"proposing={','.join(proposing_sides)} x executors={','.join(executors)}"
    )
    result.add_note(
        "Identity checks assert the repo's core contracts on every generated "
        "market shape: all engines produce one matching, and every parallel "
        "fit reproduces the serial bits."
    )

    record_bench = _load_bench_recorder()
    if record_bench is not None:
        record_bench(
            "scenarios",
            bench_metrics,
            context={
                "scenarios": len(fairness_rows),
                "engines": len(engines),
                "proposing_sides": len(proposing_sides),
            },
        )
    return result
