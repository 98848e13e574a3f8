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

from .baseline import filter_baseline, load_baseline, write_baseline
from .lint import run_lint
from .rules import DEFAULT_RULES, rules_by_id
from .sarif import sarif_text


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based contract auditor for the repro codebase: determinism "
            "(R1), shared-memory lifecycle (R2), worker-boundary pickling "
            "(R4), interprocedural RNG lineage (R5)."
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
        choices=("text", "github", "sarif"),
        default="text",
        help=(
            "finding output style: plain text, GitHub Actions annotations, "
            "or a SARIF 2.1.0 log"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress findings recorded in FILE (see --write-baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="record the surviving findings to FILE and exit 0",
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
    if args.baseline is not None:
        try:
            findings = filter_baseline(findings, load_baseline(args.baseline))
        except (OSError, ValueError, KeyError) as error:
            print(f"repro-lint: cannot read baseline: {error}", file=sys.stderr)
            return 2
    if args.write_baseline is not None:
        write_baseline(findings, args.write_baseline)
        print(
            f"repro-lint: baseline of {len(findings)} finding(s) written to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )
        return 0
    if args.format == "sarif":
        print(sarif_text(findings, rules))
        return 1 if findings else 0
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
