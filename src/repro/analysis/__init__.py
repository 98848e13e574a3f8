"""``repro.analysis`` — static contract auditing (repro-lint).

The public API and ``python -m repro.analysis`` form an ``ast``-based
auditor enforcing the repo contracts — R1 determinism, R4 worker-boundary
pickling, and the interprocedural R5 rng-lineage, which follows the project
call graph (:mod:`repro.analysis.callgraph`) across files.  Findings render
as text or as GitHub annotations.  See ``docs/contracts.md`` for the
contracts and the ``# repro-lint: disable=RULE`` escape hatch.

The auditor is intentionally dependency-free (stdlib ``ast`` only) so CI
can audit the tree without installing numpy first.
"""

from __future__ import annotations

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
    WorkerPicklingRule,
    rules_by_id,
)

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
    "WorkerPicklingRule",
    "iter_python_files",
    "lint_file",
    "lint_project",
    "lint_source",
    "module_name_for_path",
    "rules_by_id",
    "run_lint",
]
