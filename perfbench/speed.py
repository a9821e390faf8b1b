"""Host-speed reference: timings reported at a fixed reference speed.

The benchmark shares a larger machine, and the speed it gets for the same work
drifts by up to a factor of two within a minute (on a 2-vCPU Xeon guest one
fixed K=3 table took 0.16 s to 0.30 s, with process CPU time tracking wall
time, so the drift is slower execution and not time spent descheduled).  A
run cannot average out drift that is slower than the run, so raw medians of
ten runs spread by 15-30% of their value.

The benchmark therefore times, next to the program, a fixed reference kernel
of its own: quasi-Monte Carlo steps with ``ndtr``/``ndtri``, once over small
cache-resident arrays with a short interpreted loop and once over a
12-dimensional chunk of 8192 points with a matrix-vector product, the mix of
NumPy, SciPy special functions, BLAS and Python overhead that the package's
kernels have.  While the timed phase runs, a ``SIGALRM`` handler runs the
kernel every ``INTERVAL_S``.  Taking kernel time k(t) as the host's slowness,
an operation's work at reference speed is its own time (less the handler time
inside it) times the mean of ``REFERENCE_S / k`` over the kernel samples near
it.  The mean of the inverse, rather than a median of k, is what integrates
a speed that changes during a long operation, and it is robust to a kernel
sample slowed by an interrupt or by caches the operation just flushed.  The
kernel is the benchmark's code, not the package's, so a change to the package
moves the adjusted time as it moves the raw time, while a slower or faster
host moves both the operation and the kernel.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.special import ndtr, ndtri

# The kernel's typical time on the 2-vCPU Xeon guest the benchmark was defined
# on.  Adjusted times are in seconds at this kernel speed; the constant only
# fixes the unit and must not change between the commits compared.
REFERENCE_S = 0.012
# one kernel call (about 12 ms) per interval: about 3% of the timed phase
INTERVAL_S = 0.4
# kernel samples this far either side of an operation set its speed; an
# operation with fewer than MIN_SAMPLES inside the window takes the nearest
MIN_SAMPLES = 5
WINDOW_S = 1.0
# the small-array part: blocks of points in a few dimensions
_POINTS = 2000
_DIMS = 5
_BLOCKS = 2
# the large-array part: one chunk in the dimension of the K=4 Q=2 integrals
_BIG_POINTS = 8192
_BIG_DIMS = 12
_PRIMES = (2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0)


class Reference:
    """The fixed reference kernel, with its inputs built once."""

    def __init__(self):
        gen = np.mod(np.sqrt(np.array(_PRIMES)), 1.0)
        j = np.arange(1, _BLOCKS * _POINTS + 1, dtype=float)[:, None]
        self._x = [np.abs(2.0 * np.mod(j[i * _POINTS:(i + 1) * _POINTS] * gen[:_DIMS]
                                       + 0.1 * i, 1.0) - 1.0) for i in range(_BLOCKS)]
        j = np.arange(1, _BIG_POINTS + 1, dtype=float)[:, None]
        self._big_x = np.abs(2.0 * np.mod(j * gen[:_BIG_DIMS - 1] + 0.3, 1.0) - 1.0)
        rng = np.random.default_rng(0)
        self._coefs = [rng.normal(0.0, 0.3, t) for t in range(_BIG_DIMS)]

    def run(self) -> float:
        """One kernel call; returns its wall time."""
        start = time.perf_counter()
        for x in self._x:
            pv = np.ones(_POINTS)
            y = np.zeros(_POINTS)
            for t in range(_DIMS):
                lo = np.maximum(-2.0 + 0.3 * y, -1e9)
                ca = ndtr(lo)
                dc = np.clip(ndtr(np.minimum(2.0 - 0.2 * y, 1e9)) - ca, 0.0, 1.0)
                pv *= dc
                y = ndtri(np.clip(ca + x[:, t] * dc, 1e-16, 1.0 - 1e-16))
            acc = 0
            for i in range(300):
                acc += i * i % 7
        y = np.zeros((_BIG_POINTS, _BIG_DIMS - 1))
        pv = np.ones(_BIG_POINTS)
        for t in range(_BIG_DIMS):
            s = y[:, :t] @ self._coefs[t] if t else 0.0
            ca = ndtr(np.maximum(np.full(_BIG_POINTS, -np.inf), (-2.0 - s) / 1.1))
            dc = np.clip(ndtr(np.minimum(np.full(_BIG_POINTS, np.inf), (2.0 - s) / 1.1)) - ca,
                         0.0, 1.0)
            pv *= dc
            if t < _BIG_DIMS - 1:
                y[:, t] = ndtri(np.clip(ca + self._big_x[:, t] * dc, 1e-16, 1.0 - 1e-16))
        return time.perf_counter() - start


class SpeedProbe:
    """Samples the reference kernel from a timer signal while it is started."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.starts: list[float] = []
        self.times: list[float] = []
        self._saved = None

    def _tick(self, signum, frame):
        self.starts.append(time.perf_counter())
        self.times.append(self.reference.run())

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def spent(self, t0: float, t1: float) -> float:
        """Time the handler took inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(self.times[lo:hi])

    def run_speed(self) -> float:
        """Mean of ``REFERENCE_S / k`` over every kernel sample taken."""
        return statistics.fmean(REFERENCE_S / k for k in self.times)

    def speed(self, t0: float, t1: float) -> float:
        """Mean of ``REFERENCE_S / k`` over the kernel samples around [t0, t1]."""
        if not self.times:
            raise RuntimeError("no reference samples were taken")
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.fmean(REFERENCE_S / k for k in self.times[lo:hi])

    def adjusted(self, t0: float, t1: float) -> float:
        """The operation's own time in [t0, t1], at reference speed."""
        return (t1 - t0 - self.spent(t0, t1)) * self.speed(t0, t1)
