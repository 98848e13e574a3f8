"""The repository benchmark: three closed-loop workloads behind one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced requests of the same workload,
prints a per-layer self-time table, writes the spans as Chrome Trace Event
JSON to ``perfbench/out/<workload>.trace.json`` and reports the per-layer
metrics.
The last line of standard output is always the JSON result.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before every import
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("reproduce", "fit_sweep", "district_match")

#: Set-up runs this many times per untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A traced run sends at least this many requests, half of them traced, so
#: ``trace.overhead_pct`` compares two medians of two rather than single requests.
TRACED_MIN_REQUESTS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "disparity_norm": "norm",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=_positive, required=True,
                        help="measurement window of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def machine_context() -> dict:
    import numpy
    from repro.core.parallel import process_start_method

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": process_start_method(),
    }


def closed_loop(workload, log, seconds, min_requests, tracer=None):
    """Send requests one after another for ``seconds``; returns their durations.

    Every request is checked right after it returns, outside its timing;
    failures and exceptions land in ``log``.  With a ``tracer`` every second
    request runs traced (wrappers installed for that request alone), so the
    traced and untraced durations interleave.  Returns ``(untraced, traced)``.
    """
    untraced: list[float] = []
    traced: list[float] = []
    started = time.perf_counter()
    sent = 0
    while sent < min_requests or time.perf_counter() - started < seconds:
        index = log.begin()
        sent += 1
        workload.prepare()
        recorded = tracer is not None and sent % 2 == 0
        with tracer.recording(index) if recorded else contextlib.nullcontext():
            began = time.perf_counter()
            try:
                output = workload.request(index)
            except Exception:
                output = None
                log.fail_with_exception(index)
            elapsed = time.perf_counter() - began
        if output is None:
            continue
        (traced if recorded else untraced).append(elapsed)
        log.durations.append(elapsed)
        try:
            log.fail(index, workload.check(index, output))
        except Exception:
            log.fail_with_exception(index)
        del output
    return untraced, traced


def finish_checks(workload, log) -> None:
    try:
        for index, problems in workload.finish().items():
            log.fail(index, problems)
    except Exception:
        log.fail_with_exception(0)


def fresh_import_seconds() -> float:
    """What this process paid in imports, timed again in a fresh interpreter."""
    probe = ("import time; began = time.perf_counter(); import sys; sys.path[:0] = sys.argv[1:]; "
             "import run, bench_workloads; print(time.perf_counter() - began)")
    completed = subprocess.run(
        [sys.executable, "-c", probe, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(completed.stdout)


def untraced_run(workload, args, import_s) -> dict:
    from bench_stats import RequestLog

    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - began)
    log = RequestLog()
    closed_loop(workload, log, args.seconds, workload.min_requests)
    finish_checks(workload, log)
    if not log.durations:
        raise RuntimeError("no request completed")
    peak_rss = peak_rss_mb()  # read before the import probes start processes of their own
    imports = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    values = {
        "setup_s": statistics.median(imported + setup for imported, setup in zip(imports, setups)),
        "request_ms_p50": statistics.median(log.durations) * 1000,
        "peak_rss_mb": peak_rss,
        "disparity_norm": workload.quality(),
    }
    for line in workload.summary(log.durations, values["disparity_norm"]):
        print(line)
    print(f"setup_s = {values['setup_s']:.4f} s (median of imports + set-up "
          f"{[f'{i:.3f} + {s:.3f}' for i, s in zip(imports, setups)]})")
    if len(log.durations) <= 10:
        print(f"request durations: {[round(d, 3) for d in log.durations]} s")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    print(f"error_rate = {log.error_rate:.4f} ({log.failed}/{log.attempted})")
    return result_line(log, {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()})


def traced_run(workload, args) -> dict:
    from bench_stats import RequestLog
    from bench_trace import Recorder, Tracer, layer_metrics, layer_self_table, write_chrome_trace
    from bench_workloads import reproduce_runners

    recorder = Recorder()
    tracer = Tracer(recorder)
    with tracer.recording(-1):
        workload.setup()
    log = RequestLog()
    untraced, traced = closed_loop(workload, log, args.seconds, TRACED_MIN_REQUESTS, tracer)
    finish_checks(workload, log)
    if not untraced or not traced:
        raise RuntimeError("no request completed")
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    values = layer_metrics(recorder, len(traced), reproduce_runners(), overhead)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{workload.name}.trace.json"
    write_chrome_trace(recorder, trace_path)
    print(f"{len(recorder)} spans over {len(traced)} traced requests -> "
          f"{trace_path.relative_to(ROOT)}")
    print(f"trace.overhead_pct = {overhead:.2f} % (traced median "
          f"{statistics.median(traced):.4f} s vs untraced {statistics.median(untraced):.4f} s)")
    print(f"{'layer':<12} {'self s/request':>15} {'share':>7}")
    for layer, seconds, share in layer_self_table(recorder, len(traced)):
        print(f"{layer:<12} {seconds:>15.4f} {share:>7.1%}")
    print(f"error_rate = {log.error_rate:.4f} ({log.failed}/{log.attempted})")
    return result_line(log, {name: (value, per_layer_unit(name)) for name, value in values.items()})


def result_line(log, metrics: dict) -> dict:
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {source}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import bench_workloads

    import_s = time.perf_counter() - _STARTED
    workload = bench_workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; {json.dumps(machine_context())}")
    try:
        if args.trace:
            result = traced_run(workload, args)
        else:
            result = untraced_run(workload, args, import_s)
    finally:
        # Release the run's objects first: a segment unlinked after the
        # tracker stopped would start a new one that outlives the run.
        del workload
        bench_workloads.clear_caches()
        stop_child_processes()
    print(json.dumps(result))
    return 0


def stop_child_processes() -> None:
    """Wait for every process this run started, the pool workers and the tracker.

    Shared-memory segments start ``multiprocessing``'s resource tracker, a
    helper process that otherwise outlives the run by the time it takes to
    notice the exit; stopping it here closes its pipe and reaps it.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    raise SystemExit(main())
