"""Scenario stress sweep: fairness/runtime envelopes across market shapes.

Runs every built-in scenario of :mod:`repro.scenarios` through the
Monte-Carlo driver — by default all six shapes x both proposing sides x two
DCA objectives — and reports up to three tables:

* **fairness envelopes** — min/mean/max over trials of the disparity norm,
  DDP, and representation gaps before vs after compensation, plus the
  matched-cohort share gap;
* **runtime envelopes** — match seconds and per-backend fit seconds;
* **identity checks** — only when the ambient backend is not serial: 1/0
  verdicts on whether every parallel fit reproduced the serial bits.

The matching engine is not re-checked here: its identity with the
pure-Python oracle is pinned by the tests (``tests/_da_reference_oracle.py``)
and replayed at stress scale by ``benchmarks/test_bench_scenarios.py``,
which is also the one writer of ``BENCH_scenarios.json``: the experiment
only reports.

CLI::

    repro-experiments run scenarios --proposing schools
    repro-experiments run scenarios --executor process --workers 4

The batch backend is not a parameter: the runner reads the ambient one
(:func:`repro.core.parallel.current_execution`, which the CLI sets from
``--executor``/``--workers``) and checks it bitwise against serial.
"""

from __future__ import annotations

from ..core.parallel import current_execution
from ..matching import PROPOSING_SIDES
from ..scenarios import builtin_scenarios, run_scenario
from .harness import ExperimentResult

__all__ = ["run"]


def run(
    num_students: int | None = None,
    proposing: str | None = None,
    trials: int | None = None,
) -> ExperimentResult:
    """Sweep every built-in scenario and report its envelopes.

    ``proposing`` restricts the match to one side (default: both).  A
    non-serial ambient backend is added to the executor grid and checked
    bitwise against the serial batch.  ``num_students`` rescales every
    scenario to one size, and ``trials`` overrides each scenario's
    Monte-Carlo trial count.
    """
    proposing_sides = (proposing,) if proposing else PROPOSING_SIDES
    executor, max_workers = current_execution()
    executors = ("serial",) if executor in (None, "serial") else ("serial", executor)

    result = ExperimentResult(
        name="scenarios",
        description=(
            "Monte-Carlo market-shape stress sweep: fairness/runtime envelopes and "
            "cross-executor identity checks per scenario"
        ),
    )

    fairness_rows = []
    runtime_rows = []
    identity_rows = []
    for config in builtin_scenarios():
        if num_students is not None:
            config = config.scaled(num_students=num_students)
        envelope = run_scenario(
            config,
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
        if envelope.identity:
            identity_rows.append({"scenario": config.name, **envelope.identity})
        if not envelope.all_identical():
            result.add_note(
                f"IDENTITY VIOLATION in scenario {config.name!r}: {envelope.identity}"
            )

    result.add_table("fairness envelopes (mean over trials)", fairness_rows)
    result.add_table("runtime envelopes (seconds)", runtime_rows)
    if identity_rows:
        result.add_table("identity checks (1 = held in every trial)", identity_rows)
        result.add_note(
            "Identity checks assert on every generated market shape that every "
            "parallel fit reproduces the serial bits."
        )
    result.add_note(
        f"grid: {len(fairness_rows)} scenarios x "
        f"proposing={','.join(proposing_sides)} x executors={','.join(executors)}"
    )
    return result
