"""The host's speed, sampled while the timed calls run.

The shared host runs in phases of different speed, lasting seconds to
minutes and up to about 1.5 times apart, and its speed also wavers within a
second (BASELINE.md, "Noise").  A sample taken between calls does not follow
that, so the sampler measures during the calls: a timer signal every
SAMPLE_EVERY_S interrupts the program and runs ``reference_work``, a fixed
computation of a few milliseconds that uses no hexcircle code, and records
how long it took.  The harness subtracts the sampled time from a call's time
and divides the rest by ``speed()``, the mean sample over a window of at
least WINDOW_S around the call, relative to REF_NOMINAL_S.  The result is
the call's time on a host that runs ``reference_work`` in REF_NOMINAL_S.
The set-up time, an import in a fresh interpreter, is scaled by
``speed_now()``, a burst of samples taken in that interpreter right after
the import.

The scaling assumes that a slow phase slows the program and
``reference_work`` alike.  Measured on a 2-core shared host, the log time of
identical ext ``generate`` calls followed the log of the samples taken
during them with correlation 0.94, and scaling cut the spread of those calls
from 0.40 to 0.05 (IQR over median).  A change to hexcircle leaves the
reference untouched; a change of Python or mpmath moves it.
"""
from __future__ import annotations

import bisect
import cmath
import signal
import statistics
import time
from typing import List

import mpmath

SAMPLE_EVERY_S = 0.05
WINDOW_S = 1.0
REF_NOMINAL_S = 0.0025
BURST = 5


def reference_work(ctx: mpmath.MPContext) -> float:
    """A fixed mix of the work the program does: complex floats in a dict
    keyed by lattice indices, cross ratios over its faces, and mpmath
    complex arithmetic and string conversion at 40 and 80 digits."""
    z = {}
    for i in range(10):
        for j in range(10):
            z[i, j] = cmath.exp(complex(0.1 * i, 0.07 * j))
    acc = 0.0
    for i in range(9):
        for j in range(9):
            a, b, c, d = z[i, j], z[i + 1, j], z[i + 1, j + 1], z[i, j + 1]
            acc += abs((a - b) * (c - d) / ((b - c) * (d - a)))
    for dps in (40, 80):
        ctx.dps = dps
        w, q = ctx.mpc(0.3, 0.4), ctx.mpf(0.25)
        for _ in range(30):
            w = (w * w + q) / (w + 2)
        acc += float(ctx.mpf(ctx.nstr(w.real, dps)))
    return acc


def speed_now(samples: int = 20) -> float:
    """Host speed from a burst of samples taken now, after one untimed run
    of reference_work, over REF_NOMINAL_S."""
    ctx = mpmath.MPContext()
    reference_work(ctx)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_work(ctx)
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times) / REF_NOMINAL_S


class Sampler:
    """Samples of reference_work, taken on a timer between start() and
    stop() and in bursts by burst(); a context manager for start/stop."""

    def __init__(self):
        self._ctx = mpmath.MPContext()
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self._previous = None
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        # a signal that arrives during a sample is dropped, so the starts
        # stay in order
        if self._sampling:
            return
        self._sampling = True
        t0 = time.perf_counter()
        reference_work(self._ctx)
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        self._sampling = False

    def burst(self) -> None:
        for _ in range(BURST):
            self._sample()

    def start(self) -> None:
        self.starts.clear()
        self.seconds.clear()
        self.burst()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.burst()

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_left(self.starts, t1))

    def sampled_within(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between t0 and t1."""
        return sum(self.seconds[self._between(t0, t1)])

    def speed(self, t0: float, t1: float) -> float:
        """Mean sample near [t0, t1] over REF_NOMINAL_S: above 1 while the
        host runs slower than nominal."""
        pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
        near = self.seconds[self._between(t0 - pad, t1 + pad)]
        return statistics.fmean(near) / REF_NOMINAL_S
