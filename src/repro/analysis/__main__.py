"""``python -m repro.analysis`` — the repro-lint command line.

Exit status is 0 when the audited tree is clean and 1 when any finding
survives the disable-comment filter, so CI can gate on it directly::

    PYTHONPATH=src python -m repro.analysis src/repro examples benchmarks
    PYTHONPATH=src python -m repro.analysis src/repro --format=github
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .lint import run_lint
from .rules import DEFAULT_RULES, rules_by_id


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based contract auditor for the repro codebase: determinism "
            "(R1), worker-boundary pickling (R4), interprocedural RNG "
            "lineage (R5)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to audit (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output style: plain text or GitHub Actions annotations",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="PATH",
        help="path prefix to skip (repeatable), e.g. tests/data/lint_fixtures",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all), e.g. R1,R4",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in DEFAULT_RULES:
            print(f"{rule.id}  {rule.title}")
        return 0

    if args.rules is None:
        rules = DEFAULT_RULES
    else:
        try:
            rules = rules_by_id(
                part.strip() for part in args.rules.split(",") if part.strip()
            )
        except KeyError as error:
            print(f"repro-lint: {error.args[0]}", file=sys.stderr)
            return 2

    findings = run_lint(args.paths, rules=rules, exclude=args.exclude)
    for finding in findings:
        print(finding.format(args.format))
    if findings:
        print(
            f"repro-lint: {len(findings)} finding(s) across "
            f"{len({finding.path for finding in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
