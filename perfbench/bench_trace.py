"""In-memory span recorder and the layer wrappers of the traced benchmark run.

The program under test carries no instrumentation.  For a traced run the
benchmark patches the public callables of each layer -- functions in every
``repro`` module that bound them, methods on every class that defines them,
the experiment registry's runners -- so that each outermost call records a
span (name, start, end, parent span, request id).  Counts are recorded at
the same boundaries.  :meth:`Tracer.restore` puts the originals back.

Spans are recorded only in the benchmark's own thread and process: a forked
pool worker inherits the patched classes but not an active recorder.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

#: Span name of the root span the benchmark opens around each traced request.
REQUEST_SPAN = "bench.request"


class Recorder:
    """Spans and counts, kept in flat arrays until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.request_id = -1
        self.active = False
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._thread = threading.get_ident()
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    def wants(self, name: str) -> bool:
        """Record ``name`` now? Not when inactive, off-thread, or nested in itself."""
        return self.active and not self._open[name] and threading.get_ident() == self._thread

    def begin(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        span = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(span)
        self._open[name] += 1
        self.start.append(time.perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[self.name[span]]] -= 1

    def __len__(self) -> int:
        return len(self.name)

    def span_name(self, span: int) -> str:
        return self.names[self.name[span]]


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are recorded on one thread, so a span's children never overlap
    and their durations simply add up.
    """
    child_time = [0.0] * len(starts)
    for span, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[span] - starts[span]
    return [end - start - child for start, end, child in zip(starts, ends, child_time)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs the layer wrappers around one :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self, request_id: int):
        """Install the wrappers and record one request (``-1``: the set-up) in a root span."""
        recorder = self.recorder
        self.install()
        recorder.request_id = request_id
        recorder.active = True
        span = recorder.begin(REQUEST_SPAN)
        try:
            yield
        finally:
            recorder.finish(span)
            recorder.active = False
            self.restore()

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name, after=None):
        recorder = self.recorder
        choose = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = choose(args, kwargs) if choose else name
            if not recorder.wants(span_name):
                return fn(*args, **kwargs)
            span = recorder.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.finish(span)
            if after is not None:
                after(recorder, span, args, kwargs, result)
            return result

        return traced

    def function(self, fn, name, after=None) -> None:
        """Wrap module-level ``fn`` wherever a ``repro`` module bound it."""
        wrapper = self._wrap(fn, name, after)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attribute, wrapper)
                    bound += 1
        if not bound:
            raise LookupError(f"{fn.__qualname__} is not bound in any loaded repro module")

    def method(self, cls, attribute: str, name, after=None) -> None:
        """Wrap ``attribute`` on ``cls`` and every loaded subclass that overrides it."""
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            fn = klass.__dict__.get(attribute)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
                raise TypeError(f"{klass.__qualname__}.{attribute} is not a plain method")
            self._set(klass, attribute, self._wrap(fn, name, after))

    def mapping(self, table: dict, key: str, name) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = self._wrap(table[key], name)

    def _set(self, owner, attribute: str, wrapper) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- the repository's layers ----------------------------------------
    def install(self) -> None:
        """Wrap the public callables of every layer the workloads exercise."""
        from repro import baselines, core, datasets, matching, metrics, ranking
        from repro.core import bonus, disparity, objectives, sampling
        from repro.experiments import EXPERIMENT_RUNNERS
        from repro.experiments.matching_admissions import MatchingSetting

        self.function(datasets.load_school_cohorts, "datasets.load")
        self.function(datasets.load_compas, "datasets.load")
        self.method(ranking.ScoreFunction, "scores", "ranking.scores")
        self.function(ranking.selection_mask, "ranking.selection_mask")
        self.method(core.DCA, "fit", "core.fit", after=_count_steps)
        self.method(core.DCA, "fit_many", "core.fit_many", after=_record_pool_jobs)
        self.method(objectives.FairnessObjective, "compile", "core.compile")
        self.method(objectives.CompiledObjective, "evaluate", "core.evaluate")
        self.method(sampling.SampleStream, "draw_indices", "core.draw")
        self.function(bonus.compensate_scores, "core.compensate")
        self.method(baselines.DeltaTwoReranker, "rerank", "baselines.delta_two")
        self.method(baselines.MultinomialFairRanker, "rerank", "baselines.multinomial")
        self.function(baselines.quota_selection, "baselines.quota")
        self.function(matching.deferred_acceptance, _da_span_name, after=_count_proposals)
        self.function(matching.generate_student_preferences, "matching.preferences")
        self.method(MatchingSetting, "fit_school_bonuses", "experiments.fit_school_bonuses")
        self.method(MatchingSetting, "score_planes", "experiments.score_planes")
        for name in metrics.__all__:
            self.function(getattr(metrics, name), "metrics.eval")
        for attribute in ("disparity", "disparity_from_matrix", "disparity_from_mask",
                          "disparity_curve"):
            self.method(disparity.DisparityCalculator, attribute, "metrics.eval")
        for runner in sorted(EXPERIMENT_RUNNERS):
            self.mapping(EXPERIMENT_RUNNERS, runner, f"experiments.{runner}")


def _count_steps(recorder, span, args, kwargs, result) -> None:
    if recorder.request_id < 0:  # set-up work is not per-request work
        return
    recorder.counts["core.steps"] += sum(trace.iterations for trace in result.traces)


def _record_pool_jobs(recorder, span, args, kwargs, result) -> None:
    """Pool-job busy time from the ``elapsed_seconds`` each job returns."""
    if recorder.request_id < 0 or kwargs.get("executor") != "process" or not result:
        return
    busy = [entry.result.elapsed_seconds for entry in result]
    requested = kwargs.get("max_workers") or os.cpu_count() or 1
    workers = max(1, min(int(requested), len(result)))
    wall = recorder.end[span] - recorder.start[span]
    recorder.samples["core.job_s"].extend(busy)
    recorder.samples["parallel.busy_s"].append(sum(busy))
    recorder.samples["parallel.capacity_s"].append(workers * wall)
    recorder.samples["parallel.overhead_s"].append(wall - sum(busy) / workers)


def _da_span_name(args, kwargs) -> str:
    proposing = kwargs.get("proposing", args[4] if len(args) > 4 else "students")
    return "matching.da_schools" if proposing == "schools" else "matching.da_students"


def _count_proposals(recorder, span, args, kwargs, result) -> None:
    if recorder.request_id < 0:
        return
    recorder.counts["matching.proposals"] += int(result.proposals_made)


# ----------------------------------------------------------------------
# Reading a finished recording
# ----------------------------------------------------------------------
def span_totals(recorder: Recorder):
    """Per-name (inclusive seconds, self seconds, calls), split set-up vs requests.

    Returns ``(in_requests, in_setup)``, each a dict name -> [inclusive, self, calls].
    """
    selfs = self_times(recorder.parent, recorder.start, recorder.end)
    in_requests: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    in_setup: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for span in range(len(recorder)):
        bucket = in_requests if recorder.request[span] >= 0 else in_setup
        entry = bucket[recorder.span_name(span)]
        entry[0] += recorder.end[span] - recorder.start[span]
        entry[1] += selfs[span]
        entry[2] += 1
    return in_requests, in_setup


def layer_metrics(recorder: Recorder, requests: int, runners, overhead_pct: float) -> dict:
    """Every per-layer metric, per traced request (see ``perfbench/README.md``)."""
    spans, setup = span_totals(recorder)
    per = 1.0 / max(requests, 1)

    def seconds(name: str) -> float:
        return spans[name][0] * per if name in spans else 0.0

    def calls(name: str) -> float:
        return spans[name][2] * per if name in spans else 0.0

    jobs = recorder.samples["core.job_s"]
    capacity = sum(recorder.samples["parallel.capacity_s"])
    overheads = recorder.samples["parallel.overhead_s"]
    values = {
        "datasets.load_s": (setup["datasets.load"][0] if "datasets.load" in setup else 0.0)
        + seconds("datasets.load"),
        "ranking.scores_s": seconds("ranking.scores"),
        "ranking.selection_mask_calls": calls("ranking.selection_mask"),
        "ranking.selection_mask_s": seconds("ranking.selection_mask"),
        "core.fit_calls": calls("core.fit"),
        "core.fit_s": seconds("core.fit"),
        "core.fit_many_calls": calls("core.fit_many"),
        "core.fit_many_s": seconds("core.fit_many"),
        "core.compile_calls": calls("core.compile"),
        "core.compile_s": seconds("core.compile"),
        "core.steps": recorder.counts["core.steps"] * per,
        "core.draw_s": seconds("core.draw"),
        "core.compensate_s": seconds("core.compensate"),
        "core.evaluate_s": spans["core.evaluate"][1] * per if "core.evaluate" in spans else 0.0,
        "core.job_busy_s": sum(jobs) * per,
        "core.fit_ms_p50": statistics.median(jobs) * 1000 if jobs else 0.0,
        "parallel.busy_ratio": sum(recorder.samples["parallel.busy_s"]) / capacity
        if capacity else 0.0,
        "parallel.overhead_ms": statistics.median(overheads) * 1000 if overheads else 0.0,
        "baselines.delta_two_calls": calls("baselines.delta_two"),
        "baselines.delta_two_s": seconds("baselines.delta_two"),
        "baselines.multinomial_s": seconds("baselines.multinomial"),
        "baselines.quota_s": seconds("baselines.quota"),
        "matching.da_calls": calls("matching.da_students") + calls("matching.da_schools"),
        "matching.da_students_s": seconds("matching.da_students"),
        "matching.da_schools_s": seconds("matching.da_schools"),
        "matching.proposals": recorder.counts["matching.proposals"] * per,
        "matching.preferences_s": seconds("matching.preferences"),
    }
    for runner in runners:
        values[f"experiments.{runner}_s"] = seconds(f"experiments.{runner}")
    values["experiments.fit_school_bonuses_s"] = seconds("experiments.fit_school_bonuses")
    values["experiments.score_planes_s"] = seconds("experiments.score_planes")
    values["metrics.eval_s"] = seconds("metrics.eval")
    values["trace.overhead_pct"] = overhead_pct
    return values


def layer_self_table(recorder: Recorder, requests: int) -> list[tuple[str, float, float]]:
    """(layer, self seconds per request, share of traced request time), largest first.

    The ``bench`` layer is the time inside a request that no wrapped layer
    covers (experiment assembly, glue, and unwrapped helpers).
    """
    spans, _ = span_totals(recorder)
    per_layer: Counter = Counter()
    for name, (_, self_seconds, _) in spans.items():
        per_layer[layer_of(name)] += self_seconds
    total = spans[REQUEST_SPAN][0] if REQUEST_SPAN in spans else sum(per_layer.values())
    per = 1.0 / max(requests, 1)
    return [
        (layer, seconds * per, seconds / total if total else 0.0)
        for layer, seconds in per_layer.most_common()
    ]


def chrome_trace(recorder: Recorder) -> dict:
    """The recording as Chrome Trace Event JSON (opens in Perfetto / about:tracing)."""
    origin = min(recorder.start) if len(recorder) else 0.0
    pid = os.getpid()
    events = []
    for span in range(len(recorder)):
        name = recorder.span_name(span)
        events.append({
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": round((recorder.start[span] - origin) * 1e6, 3),
            "dur": round((recorder.end[span] - recorder.start[span]) * 1e6, 3),
            "pid": pid,
            "tid": 1,
            "args": {"span": span, "parent": recorder.parent[span],
                     "request": recorder.request[span]},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"counts": dict(recorder.counts)},
    }


def write_chrome_trace(recorder: Recorder, path) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(recorder), handle, separators=(",", ":"))
