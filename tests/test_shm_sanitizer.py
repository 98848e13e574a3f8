"""The shm sanitizer catches real leaks — including from subprocesses.

The deliberate-leak tests create a segment that nothing unlinks and assert
the sanitizer reports it by name: without the sanitizer those leaks would
sail through silently (the assertions here are exactly what the autouse
fixture in ``conftest.py`` enforces for every test).  Each test unlinks
its leak afterwards so the autouse guard sees a clean window.
"""

from __future__ import annotations

import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analysis.shm_sanitizer import ShmSanitizer
from repro.core.parallel import SharedPopulationPlane
from repro.datasets import SchoolGeneratorConfig, generate_school_cohort

#: Leaks a segment from a child process.  ``resource_tracker.unregister``
#: stops the child's exit-time tracker from unlinking it for us — the same
#: shape as a worker crashing before cleanup.
_LEAK_SCRIPT = """
from multiprocessing import shared_memory, resource_tracker

segment = shared_memory.SharedMemory(create=True, size=128)
try:
    resource_tracker.unregister(segment._name, "shared_memory")
except Exception:
    pass
segment.close()
print(segment.name)
"""


def _unlink(name: str) -> None:
    segment = shared_memory.SharedMemory(name=name)
    try:
        segment.close()
    finally:
        segment.unlink()


def test_subprocess_leak_is_reported():
    sanitizer = ShmSanitizer()
    sanitizer.start()
    if not sanitizer.filesystem_tracking:
        sanitizer.stop()
        pytest.skip("no OS-level segment directory on this platform")
    result = subprocess.run(
        [sys.executable, "-c", _LEAK_SCRIPT], capture_output=True, text=True
    )
    leaked = sanitizer.stop()
    assert result.returncode == 0, result.stderr
    name = result.stdout.strip()
    try:
        assert name in leaked, f"sanitizer missed subprocess leak {name!r}: {leaked}"
    finally:
        _unlink(name)


def test_in_process_leak_is_reported():
    with ShmSanitizer() as sanitizer:
        segment = shared_memory.SharedMemory(create=True, size=64)
        # close() without unlink() still leaks the backing segment.
        segment.close()
    try:
        assert segment.name in sanitizer.leaked
    finally:
        segment.unlink()


def test_clean_shared_cohort_reports_nothing():
    """A cohort's columns packed into a ``SharedPopulationPlane`` + close() leave no residue."""
    sanitizer = ShmSanitizer()
    sanitizer.start()
    cohort = generate_school_cohort("sanitizer-clean", SchoolGeneratorConfig(num_students=512), seed=3)
    columns = {name: cohort.table.numeric(name) for name in cohort.table.column_names}
    plane = SharedPopulationPlane(columns)
    try:
        assert np.array_equal(plane.view("gpa"), cohort.table.numeric("gpa"))
    finally:
        plane.close()
    assert sanitizer.stop() == ()


def test_unlinked_segment_is_not_a_leak():
    with ShmSanitizer() as sanitizer:
        # Deliberately sequential (no finally): the subject under test.
        segment = shared_memory.SharedMemory(create=True, size=64)  # repro-lint: disable=R2
        segment.close()
        segment.unlink()
    assert sanitizer.leaked == ()


def test_sanitizer_lifecycle_guards():
    sanitizer = ShmSanitizer()
    with pytest.raises(RuntimeError):
        sanitizer.stop()
    sanitizer.start()
    assert sanitizer.active
    with pytest.raises(RuntimeError):
        sanitizer.start()
    assert sanitizer.stop() == ()
    assert not sanitizer.active


def test_autouse_guard_is_active(shm_sanitizer):
    """The conftest fixture really wraps every test in a running sanitizer."""
    assert isinstance(shm_sanitizer, ShmSanitizer)
    assert shm_sanitizer.active
