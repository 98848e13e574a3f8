"""Shared-memory population planes and compiled-objective caching.

This module is the scaling substrate behind :meth:`repro.core.DCA.fit_many`:

* :class:`CompiledObjectiveCache` — a per-population cache of compiled
  objective state.  Batched fits repeatedly compile the same objective
  against the same cohort (a k sweep compiles one
  :class:`~repro.core.objectives.DisparityObjective` per job, each walking
  the full population); the cache keys compiled state by *(population
  identity, objective signature)* and rebuilds a fresh lightweight
  :class:`~repro.core.objectives.CompiledObjective` around the cached arrays
  per job, so every job keeps private mutable scratch state while the
  population-sized arrays are computed exactly once.
* :class:`SharedPopulationPlane` — one ``multiprocessing.shared_memory``
  segment holding named NumPy arrays, either packed from existing arrays or
  :meth:`~SharedPopulationPlane.allocate`-d empty and filled in place, so
  process-pool workers can map the population (base scores, attribute
  matrices, compiled objective state) instead of receiving a pickled copy
  per job.
* :class:`SharedColumnStore` — a cohort-shaped column store over one
  segment: dataset generators write synthetic columns straight into it, so
  a scale-bench cohort exists exactly once, already mapped for workers.
* :func:`execute_process_jobs` — runs :class:`PlaneJob` descriptors on a
  plain :class:`concurrent.futures.ProcessPoolExecutor` whose workers
  attach the plane once (in the pool initializer) and then serve jobs from
  lightweight job descriptors: many independent fits over one population.

One fit always runs in one process: a step scores a sample of a few hundred
rows, milliseconds of NumPy work, so splitting a step across processes
costs more than it saves.  The process backend trades a one-time plane
construction + worker start-up cost for multi-core execution of whole fits.
Results are bitwise identical to the serial path because workers consume
exactly the arrays the serial path would compute and every job owns its own
seeded generator.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping, Sequence

import numpy as np

from ..tabular import Table
from .config import DCAConfig
from .objectives import CompiledObjective, FairnessObjective

__all__ = [
    "CompiledObjectiveCache",
    "default_objective_cache",
    "SharedPopulationPlane",
    "SharedColumnStore",
    "PlanePayload",
    "PlaneJob",
    "execute_process_jobs",
    "process_start_method",
]


# ----------------------------------------------------------------------
# Compiled-objective caching
# ----------------------------------------------------------------------
class CompiledObjectiveCache:
    """Cache of compiled-objective state, keyed by population and signature.

    ``compile(objective, table)`` is a drop-in replacement for
    ``objective.compile(table)`` with one precondition: **the objective must
    have been ``fit`` on ``table``** (the invariant every
    :meth:`repro.core.DCA.fit` call establishes before compiling).  Under
    that precondition, two objectives with equal
    :meth:`~repro.core.objectives.FairnessObjective.signature` compile to
    bitwise-identical state, so the cache can hand the second caller a fresh
    compiled instance rebuilt around the first caller's arrays.

    Populations are tracked by object identity through weak references:
    entries die with their table, so holding the module-level default cache
    never pins a cohort in memory.  Objectives whose ``signature()`` is
    ``None`` (the default for custom subclasses) or whose compiled form does
    not support :meth:`~repro.core.objectives.CompiledObjective.export_state`
    bypass the cache entirely.

    The cache is thread-safe; ``hits`` / ``misses`` count cache outcomes for
    diagnostics and tests.
    """

    def __init__(self) -> None:
        # Reentrant: the weakref eviction callback may fire on this thread
        # while the lock is already held.
        self._lock = threading.RLock()
        # id(table) -> (weakref to table, {signature: (cls, arrays, metadata)})
        self._populations: dict[int, tuple[weakref.ref, dict]] = {}
        self.hits = 0
        self.misses = 0

    def _entry_for(self, table: Table) -> dict:
        """The signature->state dict for ``table``, creating it if needed."""
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
        """Compile ``objective`` against ``table``, reusing cached state.

        Precondition: ``objective.fit(table)`` has been called (see class
        docstring).  Returns either the freshly compiled objective (first
        sighting of this signature on this population) or a new instance
        rebuilt from the cached arrays.
        """
        signature = objective.signature()
        if signature is None:
            return objective.compile(table)
        with self._lock:
            states = self._entry_for(table)
            state = states.get(signature)
        if state is not None:
            cls, arrays, metadata = state
            with self._lock:
                self.hits += 1
            return cls.from_state(arrays, metadata)
        compiled = objective.compile(table)
        exported = compiled.export_state()
        with self._lock:
            self.misses += 1
            if exported is not None:
                arrays, metadata = exported
                states[signature] = (type(compiled), arrays, metadata)
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
# Shared-memory population plane (parent side)
# ----------------------------------------------------------------------
_ALIGNMENT = 64  # cache-line align every array inside the segment


@dataclass(frozen=True)
class _ArrayRef:
    """Locates one array inside the plane's shared-memory segment."""

    dtype: str
    shape: tuple[int, ...]
    offset: int


class SharedPopulationPlane:
    """One shared-memory segment holding a population's named arrays.

    The parent packs every array a batch of fits needs (base scores,
    per-attribute-set matrices, compiled objective state) into a single
    segment; workers attach it by name and serve every job through zero-copy
    read-only views.  A plane can also be :meth:`allocate`-d from dtype/shape
    specs and filled in place through :meth:`view`, so large arrays are
    computed straight into the segment instead of being materialized on the
    private heap first.  The plane owns the segment: call :meth:`close` (or
    use the plane as a context manager) once the pool has shut down to
    release and unlink it.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        packed = {key: np.ascontiguousarray(value) for key, value in arrays.items()}
        self._allocate_segment(
            {key: (value.dtype.str, tuple(value.shape)) for key, value in packed.items()}
        )
        for key, value in packed.items():
            self.view(key)[...] = value

    @classmethod
    def allocate(
        cls, specs: Mapping[str, tuple[str, tuple[int, ...]]]
    ) -> "SharedPopulationPlane":
        """Create a plane of empty (zero-filled) arrays from dtype/shape specs.

        ``specs`` maps each array key to ``(dtype string, shape)``.  Fill the
        arrays through :meth:`view` — this is how cohort generators write
        population-sized data into shared memory without a second
        private-heap copy.
        """
        plane = cls.__new__(cls)
        plane._allocate_segment({key: (dtype, tuple(shape)) for key, (dtype, shape) in specs.items()})
        return plane

    def _allocate_segment(self, specs: Mapping[str, tuple[str, tuple[int, ...]]]) -> None:
        total = 0
        self.refs: dict[str, _ArrayRef] = {}
        for key, (dtype, shape) in specs.items():
            total = -(-total // _ALIGNMENT) * _ALIGNMENT  # round up
            self.refs[key] = _ArrayRef(dtype, shape, total)
            total += int(np.dtype(dtype).itemsize) * int(np.prod(shape, dtype=np.int64))
        self._shm = shared_memory.SharedMemory(create=True, size=max(total, 1))

    def view(self, key: str) -> np.ndarray:
        """A writable ndarray view of one named array inside the segment."""
        ref = self.refs[key]
        return np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=self._shm.buf, offset=ref.offset
        )

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None

    def __enter__(self) -> "SharedPopulationPlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SharedColumnStore:
    """Equal-length named columns inside one shared-memory segment.

    Synthetic-cohort generators write their columns straight into the store
    (:meth:`columns` hands out writable views), so a multi-million-row
    population is materialized exactly once — in pages any worker process
    can map — instead of once on the parent heap and again for sharing.
    Wrap the finished columns with :meth:`table`; the resulting
    :class:`~repro.tabular.Table` keeps float64 columns as zero-copy views
    into the segment (binary 0/1 columns are stored by the table layer as
    compact ``bool`` copies).  The store owns the segment, and :meth:`close`
    unmaps it — the standard ``multiprocessing.shared_memory`` contract
    applies: close **last**, after every table, view, and fit over the
    store is finished.  Touching a view after close is use-after-free (it
    can crash the interpreter, not merely raise).
    """

    def __init__(self, num_rows: int, column_names: Sequence[str], dtype: str = "<f8") -> None:
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        names = tuple(column_names)
        if not names:
            raise ValueError("at least one column name is required")
        self.num_rows = int(num_rows)
        self.column_names = names
        self._plane = SharedPopulationPlane.allocate(
            {name: (dtype, (self.num_rows,)) for name in names}
        )

    def view(self, name: str) -> np.ndarray:
        """Writable view of one column."""
        return self._plane.view(name)

    def columns(self) -> dict[str, np.ndarray]:
        """Writable views of every column, keyed by name, in declared order."""
        return {name: self._plane.view(name) for name in self.column_names}

    def table(self) -> Table:
        """Wrap the current column contents as a :class:`~repro.tabular.Table`."""
        return Table(self.columns())

    def close(self) -> None:
        """Release and unlink the backing segment (idempotent).

        Must be the store's last use: every column view — including those
        inside tables built by :meth:`table` — becomes a dangling mapping
        afterwards (see the class docstring).
        """
        self._plane.close()

    def __enter__(self) -> "SharedColumnStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanePayload:
    """Everything a worker needs to attach and interpret a plane.

    Sent once per worker (through the pool initializer), never per job.

    Attributes
    ----------
    shm_name:
        Shared-memory segment to attach.
    num_rows:
        Population size (drives the per-step index sampling).
    refs:
        Array locations inside the segment, keyed by plane-local names
        (``"base"``, ``"matrix:<attrs>"``, ``"objective:<i>:<name>"``).
    objective_states:
        Per distinct objective signature: the compiled class, a mapping from
        its state-array names to plane keys, and its small metadata dict.
    """

    shm_name: str
    num_rows: int
    refs: dict[str, _ArrayRef]
    objective_states: dict[int, tuple[type, dict[str, str], dict]]


@dataclass(frozen=True)
class PlaneJob:
    """One job descriptor for a process-pool fit — a few hundred bytes.

    ``config`` carries the job's already-resolved seed; ``objective_key``
    points into the payload's ``objective_states``.
    """

    index: int
    attribute_names: tuple[str, ...]
    k: float
    config: DCAConfig
    sample_size: int
    objective_key: int


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with a resource tracker.

    Pool workers inherit the parent's resource tracker (under ``fork`` and
    ``spawn`` alike), and the parent unregisters the segment once at
    unlink, so a worker must not touch the registration: ``track=False``
    where available (Python >= 3.13); older versions register idempotently
    with the shared tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name)


def _map_refs(
    shm: shared_memory.SharedMemory, refs: Mapping[str, _ArrayRef]
) -> dict[str, np.ndarray]:
    """Map every referenced array out of an attached segment, read-only."""
    arrays: dict[str, np.ndarray] = {}
    for key, ref in refs.items():
        view = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset
        )
        view.flags.writeable = False
        arrays[key] = view
    return arrays


class _AttachedPlane:
    """A worker's read-only view of the parent's shared-memory plane."""

    def __init__(self, payload: PlanePayload) -> None:
        # The attached segment reference keeps the mapped buffer alive.
        self._shm = _attach_shared_memory(payload.shm_name)
        self.num_rows = payload.num_rows
        self.arrays = _map_refs(self._shm, payload.refs)
        self._objective_states = payload.objective_states

    def compiled_for(self, key: int) -> CompiledObjective:
        """Rebuild the compiled objective for ``key`` around the mapped arrays."""
        cls, array_keys, metadata = self._objective_states[key]
        arrays = {name: self.arrays[plane_key] for name, plane_key in array_keys.items()}
        return cls.from_state(arrays, metadata)


#: Worker-global plane, set once per worker by the pool initializer.
_WORKER_PLANE: _AttachedPlane | None = None


def _plane_worker_init(payload: PlanePayload) -> None:
    global _WORKER_PLANE
    _WORKER_PLANE = _AttachedPlane(payload)


def _plane_worker_fit(job: PlaneJob):
    """Pool entry: run one fit entirely from the initializer-attached plane."""
    from .dca import _BonusSearch, _finish_fit  # deferred: dca imports this module

    plane = _WORKER_PLANE
    if plane is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker has no attached population plane")
    start = time.perf_counter()
    search = _BonusSearch.from_arrays(
        base_scores=plane.arrays["base"],
        attribute_matrix=plane.arrays[matrix_key(job.attribute_names)],
        compiled=plane.compiled_for(job.objective_key),
        num_rows=plane.num_rows,
        sample_size=job.sample_size,
        attribute_names=job.attribute_names,
        k=job.k,
        config=job.config,
    )
    return job.index, _finish_fit(search, job.attribute_names, job.config, start)


def matrix_key(attribute_names: Sequence[str]) -> str:
    """Plane key of the raw attribute matrix for an attribute set."""
    return "matrix:" + "|".join(attribute_names)


def process_start_method() -> str:
    """The start method the process backend uses on this platform.

    ``fork`` where available (cheap start-up; the plane makes the inherited
    address space irrelevant anyway), ``spawn`` otherwise (macOS/Windows).
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def execute_process_jobs(
    payload: PlanePayload,
    jobs: Sequence[PlaneJob],
    max_workers: int,
) -> list[tuple[int, object]]:
    """Run plane jobs on a process pool; returns ``(job index, DCAResult)`` pairs in job order.

    Workers attach the shared plane once (in the pool initializer) and each
    job ships only its :class:`PlaneJob` descriptor.  A job that raises
    re-raises its own exception here; a worker that dies mid-job raises
    :class:`concurrent.futures.process.BrokenProcessPool`.  The caller must
    keep the plane alive until this returns and close it afterwards.
    """
    workers = max(1, min(int(max_workers), len(jobs)))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(process_start_method()),
        initializer=_plane_worker_init,
        initargs=(payload,),
    ) as pool:
        return list(pool.map(_plane_worker_fit, jobs))
