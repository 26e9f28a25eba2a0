"""Host-speed normalisation of wall times.

On a shared host the same work runs up to twice as fast in some stretches
as in others, so every reported time is scaled to a fixed host speed by
a reference that does not involve bufchem:

- In-process work: while a workload is timed, a fixed kernel runs every
  PERIOD_S seconds from a timer signal, and an item's wall time t (less
  the kernel's own runs inside it) is reported as t * KERNEL_REF_S / k:
  the time the item would have taken had the host run the kernel in
  KERNEL_REF_S.  For an item long enough to hold several kernel runs,
  KERNEL_REF_S / k is averaged over them, so that a change of speed
  within the item is weighted by its duration; for a shorter one, k is
  the median of the runs within WINDOW_S of it.
- A fresh interpreter (a CLI item, a set-up probe): a bare interpreter
  start, `python -c pass`, is timed right after each, and the wall time
  t is reported as t * START_REF_S / b, with b the median of that start
  and those beside it.  Process start and imports follow the host's
  speed differently from Python work, so the kernel rates them badly.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

import reference

KERNEL_REF_S = 0.15e-3  # about the kernel's median time on the reference host
PERIOD_S = 0.01         # between kernel runs while a workload is timed
WINDOW_S = 0.05         # kernel runs this close to a short item rate its speed
MIN_INSIDE = 5          # kernel runs inside an item that make it a long one
START_REF_S = 0.05      # about `python -c pass` on the reference host

_rhs = reference.buffered_rhs(reference.haldane_law(12.0, 1.0, 0.08)[0],
                              1.4, 1.0, 0.35, 0.48)


def kernel_seconds() -> float:
    """Time of one run of the kernel: 60 Euler steps of the model on tuples.

    Calls, float arithmetic and short-lived tuples, as in bufchem's own
    integrator and scans.
    """
    t0 = time.perf_counter()
    y = (1.0, 0.2, 1.0, 0.2)
    for _ in range(60):
        k = _rhs(0.0, y)
        y = tuple(a + 1e-4 * b for a, b in zip(y, k))
    return time.perf_counter() - t0


def normalised(wall_s: float, kernel_s: float) -> float:
    return wall_s * KERNEL_REF_S / kernel_s


def bare_start_seconds(env=None) -> float:
    """Wall time of a bare interpreter start, `python -c pass`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def start_normalised(walls: list, starts: list) -> list:
    """walls[i] scaled by the bare starts timed beside it (starts[i] right
    after it, so starts[i - 1] right before)."""
    return [w * START_REF_S / statistics.median(starts[max(0, i - 1):i + 2])
            for i, w in enumerate(walls)]


class HostSpeed:
    """Kernel runs every PERIOD_S while in use as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernels: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.kernels.append(kernel_seconds())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def item_seconds(self, t0: float, t1: float) -> float:
        """Host-normalised time of an item timed from t0 to t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.kernels[lo:hi]
        busy = t1 - t0 - sum(inside)
        if len(inside) >= MIN_INSIDE:
            return busy * statistics.fmean(KERNEL_REF_S / k for k in inside)
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.kernels[lo:hi] or self.kernels[-1:]
        return normalised(busy, statistics.median(near))
