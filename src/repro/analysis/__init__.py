"""``repro.analysis`` — static contract auditing + runtime shm sanitizing.

Two complementary halves:

* **repro-lint** (this module's public API and ``python -m repro.analysis``):
  an ``ast``-based auditor enforcing the repo contracts — R1
  determinism, R2 shared-memory lifecycle, R4 worker-boundary pickling,
  and the interprocedural R5 rng-lineage, which follows the project call
  graph (:mod:`repro.analysis.callgraph`) across files.  Findings can
  render as text, GitHub annotations, or SARIF, and can be suppressed
  against a recorded baseline (:mod:`repro.analysis.baseline`).  See
  ``docs/contracts.md`` for the contracts and the
  ``# repro-lint: disable=RULE`` escape hatch.
* **runtime sanitizer**: :mod:`repro.analysis.shm_sanitizer` snapshots
  shared-memory segments around each test and fails the suite on anything
  left behind — including segments leaked by *subprocesses*.

The lint half is intentionally dependency-free (stdlib ``ast`` only) so CI
can audit the tree without installing numpy first.
"""

from __future__ import annotations

from .baseline import filter_baseline, load_baseline, write_baseline
from .callgraph import CallGraph, FunctionInfo, module_name_for_path
from .lint import (
    Finding,
    HOT_PATH_DIRS,
    LintModule,
    LintProject,
    ProjectRule,
    Rule,
    iter_python_files,
    lint_file,
    lint_project,
    lint_source,
    run_lint,
)
from .rules import (
    DEFAULT_RULES,
    DeterminismRule,
    RngLineageRule,
    ShmLifecycleRule,
    WorkerPicklingRule,
    rules_by_id,
)
from .sarif import to_sarif

__all__ = [
    "CallGraph",
    "DEFAULT_RULES",
    "DeterminismRule",
    "Finding",
    "FunctionInfo",
    "HOT_PATH_DIRS",
    "LintModule",
    "LintProject",
    "ProjectRule",
    "RngLineageRule",
    "Rule",
    "ShmLifecycleRule",
    "WorkerPicklingRule",
    "filter_baseline",
    "iter_python_files",
    "lint_file",
    "lint_project",
    "lint_source",
    "load_baseline",
    "module_name_for_path",
    "rules_by_id",
    "run_lint",
    "to_sarif",
    "write_baseline",
]
