"""Scaling of measured times to one reference machine speed.

The machines this benchmark runs on are shared.  Their CPU speed swings by
up to 1.7x for seconds to minutes at a time, which moves the median of a
whole run by more than any useful regression bound.  So the benchmark runs
a fixed probe, which never touches the program, next to its samples, and
scales every time by how long the probe took then:

    scaled = measured * reference / probe seconds at that moment

In-process work is probed with ``reference_kernel``.  CLI commands are
probed with a fresh interpreter that imports numpy and scipy.linalg,
because process start
and imports slow down differently from computation.  A change to the
program cannot move either probe, so scaled times move only with the
program.  The raw times are kept next to them in the results.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Each probe's time on an unloaded core of the machine the benchmark was
# written on (a 2-core Xeon VM at 2.1 GHz): scaled times read as times on
# that core.
KERNEL_SECONDS = 5.0e-4
PROCESS_SECONDS = 0.3

_MATRIX = np.cos(np.arange(625.0)).reshape(25, 25) / 5.0


def reference_kernel() -> float:
    """Small matrix-vector products and plain Python arithmetic, the two
    kinds of work the library's hot paths mix."""
    x = np.ones(25)
    for _ in range(100):
        x = _MATRIX @ x
        x /= np.abs(x).max()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return float(x[0]) + acc


def kernel_seconds(repeat=3) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def process_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   check=True)
    return time.perf_counter() - start


class Speed:
    """Probe timings at points in time, at most one per ``interval``."""

    def __init__(self, probe=kernel_seconds, reference=KERNEL_SECONDS,
                 interval=0.1):
        self.probe = probe
        self.reference = reference
        self.interval = interval
        self.points = []            # (perf_counter time, probe seconds)

    def sample(self):
        seconds = self.probe()
        self.points.append((time.perf_counter(), seconds))

    def maybe_sample(self):
        if not self.points or (
                time.perf_counter() - self.points[-1][0] >= self.interval):
            self.sample()

    def scale(self, at, seconds) -> float:
        """``seconds`` measured around time ``at``, at reference speed."""
        times, probe = zip(*self.points)
        return seconds * self.reference / float(np.interp(at, times, probe))
