"""Host speed probe that the end-to-end times are scaled by.

The benchmark runs on cores shared with other tenants of the host.  On
the 2-vCPU Xeon host where it was defined, the same verify op averaged 57 ms
over one 4 s stretch and 115 ms over another, a pure-Python loop switched
between two speeds 1.4x apart every second or two, and the share of time
spent at the slow speed moved from minute to minute.  Medians within a
run cannot remove a slowdown that lasts the whole run.

So a fixed calibration kernel (Python and numpy only, nothing from
struveint) is timed all through the timed window: between in-process
ops, and from a helper thread while a child process runs.  Each op's
wall time is multiplied by ``NOMINAL_S / k``, with ``k`` the median
kernel time measured around that op.  A scaled time is the time the op
would take on a host where the kernel takes exactly ``NOMINAL_S``.  Over
24 stretches of ~4 s the verify op's mean time spread by 35 %
(interquartile range over median) and its ratio to the kernel by 4 %.

A change to struveint moves a scaled time exactly as it moves the raw
one, because the kernel does not run struveint code.  The raw times are
reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import threading
import time

import numpy

NOMINAL_S = 1e-3
# Longest gap between two kernel samples during a timed window.
INTERVAL_S = 0.1

perf = time.perf_counter
_GRID = numpy.linspace(0.1, 5.0, 33)


def kernel() -> float:
    """Small numpy calls in a Python loop, ~1 ms on the host above."""
    total = 0.0
    for i in range(150):
        total += float(numpy.sum(numpy.sin(_GRID * i) * numpy.exp(-_GRID)))
    return total


class SpeedLog:
    """Kernel samples, each (time it ended, seconds it took)."""

    def __init__(self):
        self.ends: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = perf()
        kernel()
        t1 = perf()
        self.ends.append(t1)
        self.took.append(t1 - t0)

    def sample_if_due(self) -> None:
        if not self.ends or perf() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample before, after and every INTERVAL_S during the block,
        from a helper thread while the block waits on a child process."""
        self.sample()
        stop = threading.Event()

        def loop():
            while not stop.wait(INTERVAL_S):
                self.sample()

        helper = threading.Thread(target=loop, daemon=True)
        helper.start()
        try:
            yield
        finally:
            stop.set()
            helper.join()
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time t1 - t0 scaled to the nominal host by the median of
        the samples that ended within INTERVAL_S of [t0, t1], or by the
        nearest sample."""
        lo = bisect.bisect_left(self.ends, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.ends, t1 + INTERVAL_S)
        if lo == hi:
            lo = max(0, min(lo, len(self.ends) - 1))
            hi = lo + 1
        return (t1 - t0) * NOMINAL_S / statistics.median(self.took[lo:hi])

    def summary(self) -> dict:
        ms = sorted(1e3 * t for t in self.took)
        return {"samples": len(ms), "kernel_ms_min": ms[0], "kernel_ms_median": ms[len(ms) // 2],
                "kernel_ms_max": ms[-1]}
