"""Known-bad R2 fixture: shared-memory allocations that can escape."""

from multiprocessing import shared_memory

from repro.core.parallel import SharedPopulationPlane


def leak_segment():
    segment = shared_memory.SharedMemory(create=True, size=64)  # LINT-EXPECT: R2
    return segment.name


def close_without_finally(values):
    plane = SharedPopulationPlane({"x": values})  # LINT-EXPECT: R2
    total = plane.view("x").sum()
    plane.close()  # leaks if view() raises above
    return total


def bare_allocation():
    shared_memory.SharedMemory(create=True, size=64)  # LINT-EXPECT: R2


class NoCleanupOwner:
    def __init__(self, values):
        self._plane = SharedPopulationPlane({"x": values})  # LINT-EXPECT: R2
