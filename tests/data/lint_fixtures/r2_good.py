"""Known-good R2 fixture: every accepted cleanup shape, one per function."""

import contextlib
from multiprocessing import shared_memory

import numpy as np

from repro.core.parallel import SharedPopulationPlane


def with_block(values):
    with SharedPopulationPlane({"x": values}) as plane:
        return plane.view("x").sum()


def with_closing(values):
    with contextlib.closing(SharedPopulationPlane({"x": values})) as plane:
        return plane.view("x").sum()


def try_finally(values):
    plane = SharedPopulationPlane({"x": values})
    try:
        return plane.view("x").sum()
    finally:
        plane.close()


def cleanup_on_error(num_rows):
    plane = SharedPopulationPlane({"x": np.zeros(num_rows)})
    try:
        plane.view("x")[...] = 1.0
    except BaseException:
        plane.close()
        raise
    return plane


def ownership_transfer(values):
    return SharedPopulationPlane({"x": values})


def attach_and_hand_back(name):
    segment = shared_memory.SharedMemory(name=name)
    return segment


def exit_stack(values):
    with contextlib.ExitStack() as stack:
        plane = SharedPopulationPlane({"x": values})
        stack.callback(plane.close)
        other = SharedPopulationPlane({"y": values})
        stack.enter_context(other)
        return plane.view("x").sum() + other.view("y").sum()


class OwnsSegment:
    def __init__(self, values):
        self._plane = SharedPopulationPlane({"x": values})

    def close(self):
        self._plane.close()
