"""Machine-speed probe that keeps the benchmark's timings steady on a
shared box.

Other tenants of the 2-core box slow it down by up to a factor of two for
stretches of seconds, and the slowdown hits any Python-and-numpy code
alike: over 10 s windows the median time of an rzk kernel spread by 15 %
between its quartiles, while its ratio to a kernel like this module's,
timed alongside, spread by 4 % (README.md).  So every timing the benchmark
reports is in seconds at a fixed reference speed: each stretch of wall
time counts REF_S / k, where k is the kernel time measured at its end.

The kernel is small numpy operations inside a Python loop, the mix of an
rzk integration stage, and uses nothing from rzk.  Inside the timed
process a SIGALRM handler runs it every INTERVAL seconds; the handler's
own time is taken out of the timed interval through clock().
"""

import signal
import statistics
import time

import numpy as np

# the kernel's median time on the 2-core reference box, in seconds
REF_S = 0.0075
INTERVAL = 0.2

_A = np.linspace(-3.0, 3.0, 528).reshape(264, 2)


def kernel():
    s = 0.0
    for _ in range(400):
        b = (_A * _A).sum(axis=1)
        s += float(np.exp(-b).max())
        for j in range(40):
            s += (j * j) % 7
    return s


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def kernel_median(n):
    return statistics.median(time_kernel() for _ in range(n))


class SpeedProbe:
    """Times the kernel every INTERVAL seconds while started."""

    def __init__(self):
        self.paused = 0.0
        self.ticks = []

    def clock(self):
        """perf_counter() less the time spent in the probe."""
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.ticks.append((t0 - self.paused, time_kernel()))
        self.paused += time.perf_counter() - t0

    def start(self):
        self.ticks = [(self.clock(), None)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        """Stop; return the time since start() at reference speed and the
        median kernel time."""
        end = self.clock()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.ticks.append((end, time_kernel()))
        return (reference_seconds(self.ticks),
                statistics.median(k for _, k in self.ticks[1:]))


def reference_seconds(ticks):
    """ticks: (clock, kernel time) pairs, the first at the start (its
    kernel time unused); each stretch between two ticks counts its length
    times REF_S over the kernel time measured at its end."""
    return sum((t1 - t0) * REF_S / k
               for (t0, _), (t1, k) in zip(ticks, ticks[1:]))
