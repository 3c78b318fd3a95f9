"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of a fixed computation drifts by up
to 50% over tens of seconds, in its CPU time as much as in its wall time,
so raw wall times of the same code spread more from run to run than any
useful regression bound. The benchmark therefore times a fixed kernel
right before and right after each timed operation and reports the
operation at reference speed:

    time at reference speed = wall time * REFERENCE_S / kernel time

where the kernel time is the mean of the two passes around the operation.
The kernel does not touch `pcqa`, so a change to the program cannot move
it; it mixes the three kinds of work the program does (interpreter loops,
memory-bound numpy, k-d tree build and query) so that contention slows it
about as much as it slows the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# One pass of the kernel on a 2-vCPU Intel Xeon virtual machine (the
# machine the bounds in BENCHMARK.json were set on), in seconds.
REFERENCE_S = 0.060


class Kernel:
    """A fixed computation of about REFERENCE_S; inputs never change."""

    def __init__(self):
        rng = np.random.default_rng(20060497)
        self.points = rng.uniform(0.0, 10.0, (50_000, 3))
        self.queries = self.points[rng.choice(50_000, 4_000, replace=False)]
        self.values = rng.standard_normal(1_000_000)

    def once(self) -> float:
        """Wall seconds of one pass."""
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(self.values)
        float((self.values * self.values).sum())
        cKDTree(self.points).query(self.queries, k=16)
        return time.perf_counter() - t0

    def median(self, passes: int = 3) -> float:
        """Median wall seconds of a few passes in a row."""
        return statistics.median(self.once() for _ in range(passes))


def at_reference(wall: float, kernel_s: float) -> float:
    """`wall` seconds measured while the kernel took `kernel_s`, at reference speed."""
    return wall * REFERENCE_S / kernel_s
