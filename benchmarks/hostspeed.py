"""Host-speed reference: time figures scaled to a fixed speed of the host.

The benchmark's host is a share of a shared machine whose speed changes by up
to a factor of two within seconds, for pure-Python loops and numpy calls
alike. A fixed reference kernel, timed in the same process and on the same CPU
as the code being measured, slows down with it. A time ``t`` measured while
the kernel takes ``k`` ns is reported as ``t * REF_NS / k``: the time the same
work would have taken at the speed at which the kernel takes ``REF_NS``.

``Sampler`` times the kernel from a SIGALRM handler every ``PERIOD_S`` seconds,
so samples are taken inside long operations as well as between short ones.
The handler's own time is taken out of every operation it interrupts, and an
operation is scaled by the mean of ``REF_NS / k`` over the samples around it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy

# The reference speed: the kernel takes REF_NS at it. This is about the
# kernel's median time on a 2-vCPU x86-64 cloud guest with Python 3.11.
REF_NS = 500_000
PERIOD_S = 0.05
# samples this far before and after an operation also give its speed
WINDOW_NS = 500_000_000

_INV_X = 1.0 / numpy.linspace(1.0, 2.0, 512)


def kernel() -> float:
    """Two Bessel-style upward recurrences: one scalar in pure Python, one
    on 512 lanes in numpy, each taking about half of the kernel's time."""
    x, y, z = 0.7, 0.0, 1.0
    for n in range(1600):
        y, z = z, (2.0 * n / x) * z - y
        if z > 1e100:
            y *= 1e-100
            z *= 1e-100
    jk = numpy.full(512, 1e-30)
    jk1 = numpy.zeros(512)
    for k in range(60, 0, -1):
        jk, jk1 = (2.0 * k) * _INV_X * jk - jk1, jk
        if k % 8 == 0:
            big = numpy.abs(jk) > 1e200
            if big.any():
                jk[big] *= 1e-200
                jk1[big] *= 1e-200
    return z + float(jk[0])


def timed_kernel() -> int:
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


class Sampler:
    """Times ``kernel`` every ``PERIOD_S`` s of wall time while running."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def net_ns(self, t0: int, t1: int) -> int:
        """Wall time of [t0, t1] less the time the handler ran inside it."""
        held = 0
        for i in range(bisect.bisect_left(self.ends, t0), len(self.starts)):
            if self.starts[i] >= t1:
                break
            held += min(self.ends[i], t1) - max(self.starts[i], t0)
        return t1 - t0 - held

    def scaled_ns(self, t0: int, t1: int) -> float:
        """``net_ns`` at the reference speed, from the samples around [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_NS)
        if lo == hi:  # no sample near: take the closest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        # the mean speed over the samples, not the median kernel time: the
        # speed integrated over an operation that spans fast and slow spells
        speed = statistics.fmean(REF_NS / (self.ends[i] - self.starts[i])
                                 for i in range(lo, hi))
        return self.net_ns(t0, t1) * speed
