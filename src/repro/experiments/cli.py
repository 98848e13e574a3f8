"""Command-line entry point: ``repro-experiments``.

Examples
--------
List the available experiments::

    repro-experiments list

Run the Table I reproduction on a 20,000-student synthetic cohort::

    repro-experiments run table1 --num-students 20000

Run a sweep-heavy experiment on the process pool::

    repro-experiments run fig4 --executor process --workers 4

Run the admissions match on the vectorized round-based engine, with schools
proposing (the school-optimal matching)::

    repro-experiments run matching --engine vector --proposing schools

Run everything at reduced scale and write the formatted output to a file::

    repro-experiments run-all --num-students 10000 --output results.txt

``run`` rejects (exit status 2) any option the experiment does not take, so
a flag is never silently dropped; ``run-all`` forwards each option to the
experiments that take it and rejects only an option none of them takes.

``--executor``/``--workers`` are not runner arguments: ``main`` sets the
batch backend once for the whole run (:func:`repro.core.parallel.use_execution`)
and every ``DCA.fit_many`` call inside reads it.  They count as taken by the
experiments in ``BATCHED_EXPERIMENTS``, the runners that batch their fits.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Sequence

from ..core.parallel import use_execution, validate_execution
from ..matching import ENGINES, PROPOSING_SIDES
from . import BATCHED_EXPERIMENTS, EXPERIMENT_RUNNERS
from .harness import ExperimentResult

__all__ = ["main", "build_parser"]

#: Batch backends exposed on the command line (see repro.core.DCA.fit_many).
EXECUTOR_CHOICES = ("serial", "process")

#: Runner keyword of each forwarded option -> the flag that sets it.
RUNNER_OPTION_FLAGS = {
    "num_students": "--num-students",
    "engine": "--engine",
    "proposing": "--proposing",
}


def _positive_int(text: str) -> int:
    """argparse type for counts (workers, students): rejects 0/negative at parse time.

    Failing inside ``argparse`` keeps the error next to the flag that caused
    it, long before any cohort or pool exists.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--num-students",
        type=_positive_int,
        default=None,
        help="synthetic school cohort size override",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default=None,
        help=(
            "batch backend for experiments that sweep DCA fits: 'serial' or "
            "'process' (whole fits spread over a process pool)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help=(
            "pool size for the process executor (default: one per job, capped at "
            "the cores this process may use)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help=(
            "deferred-acceptance engine for experiments that run a match: "
            "'vector' (round-based, the default) or 'reference' (slow "
            "pure-Python oracle, identical matchings)"
        ),
    )
    parser.add_argument(
        "--proposing",
        choices=PROPOSING_SIDES,
        default=None,
        help=(
            "which side proposes in deferred acceptance: 'students' "
            "(student-optimal matching, the default) or 'schools' "
            "(school-optimal matching)"
        ),
    )
    parser.add_argument("--output", default=None, help="write the formatted result to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the fair-ranking DCA paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment name (see 'list')")
    _add_run_options(run_parser)

    all_parser = subparsers.add_parser("run-all", help="run every experiment")
    _add_run_options(all_parser)
    return parser


def _runner_options(args: argparse.Namespace) -> dict[str, object]:
    """The runner options set on the command line, keyed by runner keyword."""
    values = {
        "num_students": args.num_students,
        "engine": args.engine,
        "proposing": args.proposing,
    }
    return {key: value for key, value in values.items() if value is not None}


def _accepts(name: str, key: str) -> bool:
    return key in inspect.signature(EXPERIMENT_RUNNERS[name]).parameters


def _unaccepted_flags(names: Sequence[str], args: argparse.Namespace) -> list[str]:
    """Flags set on the command line that none of the experiments ``names`` takes.

    Runner options go by each runner's signature; the batch-backend flags by
    ``BATCHED_EXPERIMENTS``.
    """
    flags = [
        RUNNER_OPTION_FLAGS[key]
        for key in _runner_options(args)
        if not any(_accepts(name, key) for name in names)
    ]
    if BATCHED_EXPERIMENTS.isdisjoint(names):
        backend = (("--executor", args.executor), ("--workers", args.workers))
        flags += [flag for flag, value in backend if value is not None]
    return flags


def _run_one(name: str, options: dict[str, object]) -> ExperimentResult:
    """Invoke a runner with the options its signature takes.

    Experiments differ in what they can vary (the COMPAS figures have no
    ``num_students``; only the matching experiments run deferred
    acceptance), so the CLI inspects each runner instead of forcing one
    signature on all of them.
    """
    return EXPERIMENT_RUNNERS[name](
        **{key: value for key, value in options.items() if _accepts(name, key)}
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    print(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENT_RUNNERS):
            print(name)
        return 0
    if args.command == "run" and args.experiment not in EXPERIMENT_RUNNERS:
        print(
            f"unknown experiment {args.experiment!r}; available: {sorted(EXPERIMENT_RUNNERS)}",
            file=sys.stderr,
        )
        return 2
    try:
        validate_execution(args.executor, args.workers)
    except ValueError as error:
        print(f"--executor {args.executor} with --workers {args.workers}: {error}", file=sys.stderr)
        return 2
    names = [args.experiment] if args.command == "run" else sorted(EXPERIMENT_RUNNERS)
    unaccepted = _unaccepted_flags(names, args)
    if unaccepted:
        subject = (
            f"experiment {args.experiment!r} does not take"
            if args.command == "run"
            else "no experiment takes"
        )
        print(f"{subject} {', '.join(unaccepted)}", file=sys.stderr)
        return 2
    options = _runner_options(args)
    with use_execution(args.executor, args.workers):
        outputs = [_run_one(name, options).format() for name in names]
    _emit("\n\n".join(outputs), args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
