"""Host-speed calibration for timings on a shared virtual machine.

Each vCPU of the reference box (2 vCPUs, Python 3.11.7) switches between a
fast state and one 1.6-1.9x slower, within seconds and independently of
the other vCPU, so raw host times of one build swing by that much between
runs. A fixed pure-Python loop that never touches sentinel is timed on the
same CPU, close in time to the work, and timings are scaled by
``REFERENCE_KERNEL_S / kernel time``: a reported time reads as if the CPU
had run at the speed where the loop takes REFERENCE_KERNEL_S. A speed-up of
sentinel leaves the loop's time alone, so it shows in full.

The loop's time is process CPU time, which excludes the time the kernel
spends preempted, so it can be sampled while a child process shares the CPU.
"""

import contextlib
import math
import os
import statistics
import time
from typing import NamedTuple

# Kernel time on a vCPU of the reference box in its fast state.
REFERENCE_KERNEL_S = 1.7e-3


class _Point(NamedTuple):
    x: float
    y: float


def _kernel() -> float:
    # Tuple allocation, attribute reads and float math: the simulator's mix.
    total = 0.0
    kept = []
    for i in range(1500):
        a = _Point(i * 0.5, i * 0.25)
        b = _Point(a.x + 1.0, a.y - 2.0)
        total += math.hypot(b.x - a.x, b.y - a.y)
        kept.append(b)
    return total


class Speed:
    """Kernel samples of one run; ``samples`` keeps every one taken."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[float] = []

    def kernel_time(self) -> float:
        """Kernel CPU time where this process runs now."""
        start = time.process_time()
        _kernel()
        took = time.process_time() - start
        self.samples.append(took)
        return took

    def on(self, cpu: int) -> float:
        """Kernel CPU time on ``cpu``; the affinity is restored after."""
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            return self.kernel_time()
        finally:
            os.sched_setaffinity(0, saved)

    def on_each_cpu(self) -> list[float]:
        return [self.on(cpu) for cpu in self.cpus]

    @contextlib.contextmanager
    def pinned(self):
        """Run this process, and the children it starts, on one CPU, so that
        its kernel samples describe the CPU the work ran on."""
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[0]})
        try:
            yield
        finally:
            os.sched_setaffinity(0, saved)

    @staticmethod
    def factor(kernel_times) -> float:
        """Scale for a timing taken while the kernel took ``kernel_times``."""
        return REFERENCE_KERNEL_S / statistics.fmean(kernel_times)

    def run_factor(self) -> float:
        """Scale from every sample of the run, for timings taken without
        samples of their own."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples) if self.samples else 1.0
