"""Execution of batched fits: the backend choice, the process pool, caching.

This module is the scaling substrate behind :meth:`repro.core.DCA.fit_many`:

* :func:`use_execution` / :func:`current_execution` — the one ambient
  ``(executor, max_workers)`` pair, set once (by the CLI) and read by every
  ``fit_many`` call that names no backend.

* :class:`CompiledObjectiveCache` — a per-population cache of compiled
  objectives.  Fits and batches repeatedly compile the same objective
  against the same cohort (each compile walks the full population); the
  cache keys the compiled instance by *(population identity, objective
  signature)* and hands the same instance to every caller.
* :class:`StreamGroup` — the descriptor of a batch's jobs that draw one
  sample stream and so run in lockstep (:mod:`repro.core.dca`).
* :class:`PlanePayload` — the population plane: the base scores, the
  attribute matrices and the compiled objectives a batch of fits needs,
  handed to each pool worker once through the pool initializer.
* :func:`execute_process_jobs` — runs :class:`StreamGroup` chunks on a
  plain :class:`concurrent.futures.ProcessPoolExecutor` whose workers keep
  the plane (read-only) and then serve each chunk from its lightweight
  descriptor: many fits over one population.

One fit always runs in one process: a step scores a sample of a few hundred
rows, milliseconds of NumPy work, so splitting a step across processes
costs more than it saves.  The process backend trades a one-time worker
start-up cost for multi-core execution of whole lockstep chunks.  Results
are bitwise identical to the serial path because workers run the very
compiled objectives and arrays the serial path runs and every chunk
rebuilds its group's seeded generator.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from ..tabular import Table
from .config import DCAConfig
from .objectives import CompiledObjective, FairnessObjective, _CompiledTableFallback

__all__ = [
    "use_execution",
    "current_execution",
    "validate_execution",
    "validate_worker_count",
    "CompiledObjectiveCache",
    "default_objective_cache",
    "PlanePayload",
    "StreamGroup",
    "execute_process_jobs",
    "process_start_method",
    "usable_cores",
]


# ----------------------------------------------------------------------
# Execution: which backend runs a batch
# ----------------------------------------------------------------------
#: Executor names accepted by :meth:`repro.core.DCA.fit_many`.
_EXECUTORS = ("serial", "process")

#: The ambient, validated ``(executor, max_workers)`` pair; the default
#: ``(None, None)`` is ``fit_many``'s own rule (serial).
_EXECUTION: ContextVar[tuple[str | None, int | None]] = ContextVar(
    "repro_execution", default=(None, None)
)


def validate_worker_count(value: int | None) -> int | None:
    """The ">= 1 or ValueError" rule for ``max_workers``; ``None`` means the default.

    Applied by :func:`validate_execution` before any pool exists, instead
    of failing obscurely inside an executor.
    """
    if value is None:
        return None
    count = int(value)
    if count < 1:
        raise ValueError(f"max_workers must be a positive integer, got {value!r}")
    return count


def validate_execution(
    executor: str | None, max_workers: int | None
) -> tuple[str | None, int | None]:
    """Check an ``(executor, max_workers)`` pair and return it normalised.

    ``executor`` is ``None`` or in ``_EXECUTORS``, ``max_workers`` is
    ``None`` or positive, and ``"serial"`` takes no pool size above 1: it
    runs one job at a time and would drop the count without a word.
    """
    max_workers = validate_worker_count(max_workers)
    if executor is not None and executor not in _EXECUTORS:
        raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
    if executor == "serial" and max_workers is not None and max_workers > 1:
        raise ValueError(
            f"executor='serial' runs one job at a time; max_workers={max_workers} "
            "needs executor='process'"
        )
    return executor, max_workers


@contextmanager
def use_execution(
    executor: str | None = None, max_workers: int | None = None
) -> Iterator[None]:
    """Set the batch backend of every ``fit_many`` call inside the block.

    A :meth:`repro.core.DCA.fit_many` call given neither ``executor`` nor
    ``max_workers`` uses this pair (validated on entry, before any work);
    explicit arguments replace it as a whole.  The pair lives in a
    :class:`contextvars.ContextVar`, private to the entering thread::

        with use_execution("process", 2):
            dca.fit_many(train, ks=(0.05, 0.1, 0.2))  # on a 2-worker pool
    """
    token = _EXECUTION.set(validate_execution(executor, max_workers))
    try:
        yield
    finally:
        _EXECUTION.reset(token)


def current_execution() -> tuple[str | None, int | None]:
    """The ambient ``(executor, max_workers)``; ``(None, None)`` outside :func:`use_execution`."""
    return _EXECUTION.get()


# ----------------------------------------------------------------------
# Compiled-objective caching
# ----------------------------------------------------------------------
class CompiledObjectiveCache:
    """Cache of compiled objectives, keyed by population and signature.

    ``compile(objective, table)`` is a drop-in replacement for
    ``objective.compile(table)`` with one precondition: **the objective must
    have been ``fit`` on ``table``** (the invariant every
    :meth:`repro.core.DCA.fit` call establishes before compiling).  Under
    that precondition, two objectives with equal
    :meth:`~repro.core.objectives.FairnessObjective.signature` compile to
    bitwise-identical state, so the cache hands the second caller the first
    caller's compiled instance.  Sharing it keeps every bit: its only
    mutable state is scratch computed deterministically from its arrays.

    Populations are tracked by object identity through weak references:
    entries die with their table, so holding the module-level default cache
    never pins a cohort in memory.  Objectives whose ``signature()`` is
    ``None`` (the default for custom subclasses) bypass the cache, and so
    does the table-slicing wrapper of objectives that only implement the
    table path: it holds its table, so caching it would keep the entry alive
    forever.

    The cache is thread-safe; ``hits`` / ``misses`` count cache outcomes for
    diagnostics and tests.
    """

    def __init__(self) -> None:
        # Reentrant: the weakref eviction callback may fire on this thread
        # while the lock is already held.
        self._lock = threading.RLock()
        # id(table) -> (weakref to table, {signature: compiled objective})
        self._populations: dict[int, tuple[weakref.ref, dict]] = {}
        self.hits = 0
        self.misses = 0

    def _entry_for(self, table: Table) -> dict:
        """The signature->compiled dict for ``table``, creating it if needed."""
        key = id(table)
        entry = self._populations.get(key)
        if entry is not None and entry[0]() is not table:
            entry = None  # a dead table's id() was recycled
        if entry is None:
            def _evict(_ref: weakref.ref, key: int = key) -> None:
                with self._lock:
                    self._populations.pop(key, None)

            entry = (weakref.ref(table, _evict), {})
            self._populations[key] = entry
        return entry[1]

    def compile(self, objective: FairnessObjective, table: Table) -> CompiledObjective:
        """Compile ``objective`` against ``table``, or return the cached instance.

        Precondition: ``objective.fit(table)`` has been called (see class
        docstring).
        """
        signature = objective.signature()
        if signature is None:
            return objective.compile(table)
        with self._lock:
            entries = self._entry_for(table)
            compiled = entries.get(signature)
            if compiled is not None:
                self.hits += 1
                return compiled
        compiled = objective.compile(table)
        with self._lock:
            self.misses += 1
            if not isinstance(compiled, _CompiledTableFallback):
                entries[signature] = compiled
        return compiled

    def clear(self) -> None:
        """Drop every cached entry (mostly useful in tests)."""
        with self._lock:
            self._populations.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entry[1]) for entry in self._populations.values())


_DEFAULT_CACHE = CompiledObjectiveCache()


def default_objective_cache() -> CompiledObjectiveCache:
    """The process-wide cache :meth:`repro.core.DCA.fit_many` uses by default.

    Repeated sweeps over the same cohort — across separate ``fit_many``
    calls — share this cache, so only the first sweep pays for compiling
    each objective.  Entries are weakly tied to their tables and vanish when
    the cohort is garbage-collected.
    """
    return _DEFAULT_CACHE


# ----------------------------------------------------------------------
# Process pool: the population plane and its jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanePayload:
    """The population plane: everything a worker needs to serve jobs.

    Handed to each worker once, through the pool initializer, never per job.
    Under ``fork`` the worker inherits it copy-on-write, so it reads the very
    arrays the parent computed; under ``spawn`` it is pickled once per worker.

    Attributes
    ----------
    num_rows:
        Population size (drives the per-step index sampling).
    arrays:
        The ``"base"`` scores and one attribute matrix per attribute set
        (keyed by :func:`matrix_key`).
    compiled:
        The batch's compiled objectives, indexed by the objective key each
        :class:`StreamGroup` member carries.
    """

    num_rows: int
    arrays: dict[str, np.ndarray]
    compiled: tuple[CompiledObjective, ...]


@dataclass(frozen=True)
class StreamGroup:
    """Fits of one batch that draw the same sample stream — a few hundred bytes.

    A fit's draws depend only on its config (seed and step schedule), the
    population's row count, its sample size and how many attributes its
    initial bonus spans — never on ``k`` or the objective — so these jobs
    can run in lockstep on one stream (:mod:`repro.core.dca`).  ``config``
    carries the resolved seed.  Each member is ``(job index, k, objective
    key)``; the key indexes the batch's compiled objectives.
    """

    attribute_names: tuple[str, ...]
    config: DCAConfig
    sample_size: int
    members: tuple[tuple[int, float, int], ...]

    def chunks(self, size: int) -> list["StreamGroup"]:
        """This group split into lockstep groups of at most ``size`` members."""
        return [
            replace(self, members=self.members[start : start + size])
            for start in range(0, len(self.members), size)
        ]


#: Worker-global plane, set once per worker by the pool initializer.
_WORKER_PLANE: PlanePayload | None = None


def _plane_worker_init(payload: PlanePayload) -> None:
    """Pool initializer: keep the plane, read-only, for every job of this worker.

    Read-only matters: a job that wrote to an inherited array would change
    the worker's private copy, and with it the next job on the same worker.
    That covers the base scores, the attribute matrices and every ndarray
    attribute of each compiled objective.
    """
    global _WORKER_PLANE
    arrays = list(payload.arrays.values())
    for compiled in payload.compiled:
        arrays.extend(_array_attributes(compiled))
    for array in arrays:
        array.flags.writeable = False
    _WORKER_PLANE = payload


def _array_attributes(instance: object) -> list[np.ndarray]:
    """The ndarray attributes of ``instance``: its slots across the MRO and its ``__dict__``."""
    values = list(getattr(instance, "__dict__", {}).values())
    for cls in type(instance).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            values.append(getattr(instance, name, None))
    return [value for value in values if isinstance(value, np.ndarray)]


def _plane_worker_fit(group: StreamGroup):
    """Pool entry: run one lockstep group entirely from the initializer's plane.

    The worker rebuilds the group's sample stream from its seed, so the
    group's fits draw exactly the samples their serial runs draw.
    """
    from .dca import _run_group  # deferred: dca imports this module

    plane = _WORKER_PLANE
    if plane is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker has no population plane")
    return _run_group(plane.arrays, plane.num_rows, group, plane.compiled.__getitem__)


def matrix_key(attribute_names: Sequence[str]) -> str:
    """Plane key of the raw attribute matrix for an attribute set."""
    return "matrix:" + "|".join(attribute_names)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, not the machine's count.

    Under ``taskset -c 0`` on a multi-core machine this is 1.  Falls back to
    ``os.cpu_count()`` where the platform has no affinity call.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def process_start_method() -> str:
    """The start method the process backend uses on this platform.

    ``fork`` where available: workers start cheaply and inherit the plane
    copy-on-write, so its arrays are never copied or pickled.  ``spawn``
    otherwise (macOS/Windows): the plane is pickled once per worker.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def execute_process_jobs(
    payload: PlanePayload,
    groups: Sequence[StreamGroup],
    max_workers: int,
) -> list[tuple[int, object]]:
    """Run lockstep groups on a process pool; returns ``(job index, DCAResult)`` pairs.

    Workers receive the plane once (through the pool initializer) and each
    group ships only its :class:`StreamGroup` descriptor.  A job that raises
    re-raises its own exception here; a worker that dies mid-group raises
    :class:`concurrent.futures.process.BrokenProcessPool`.
    """
    workers = max(1, min(int(max_workers), len(groups)))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(process_start_method()),
        initializer=_plane_worker_init,
        initargs=(payload,),
    ) as pool:
        return [pair for pairs in pool.map(_plane_worker_fit, groups) for pair in pairs]
