"""Host-speed reference for timings taken on a shared machine.

Other tenants of a shared machine change its speed by up to a factor of
two, and not only over seconds: on the 2-CPU Xeon host this benchmark was
written on, back-to-back timings of a 1.4 ms kernel correlate 0.88
with each other, but only 0.6 when 170 ms apart and 0.33 with the same
kernel timed at the same moment on the other CPU.  Between two runs of
the same 20-90 ms oracle items, the middle 80% of the per-item time ratios
spanned 0.7 to 1.35 after scaling with a kernel timed every 0.5 s, and
about 0.85 to 1.1 within a pass with the kernel timed between items.  A
run therefore times the kernel in line, between items, at most INTERVAL_S
apart, and scales each timing by REFERENCE_S over the mean kernel time of
the marks around it, so a timing reads as it would on that host at its
uncontended speed.  The raw timings are kept beside the scaled ones in the
result file.  The kernel is part of the benchmark, not of the library, so
a change to the library cannot move it except by competing with it for
the CPU.
"""

import bisect
import math
import statistics
import time

import numpy as np

# The kernel's 10th-percentile time on the host named above.
REFERENCE_S = 0.0024
INTERVAL_S = 0.03
# After a gap this long the next mark takes the median of this many kernels.
LONG_GAP_S = 0.25
LONG_GAP_SAMPLES = 5
_X = np.linspace(0.0, 1.0, 20000)
_Z = np.linspace(0.0, 1.0, 65536)


def kernel_s():
    """Interpreter work, small-array numpy, and a large-array numpy expression.

    The large arrays are there for the slowest oracle items, whose jacobi
    arrays are of that order: with them, a 10 ms resonance item's time after
    scaling varied by 0.126 (standard deviation of its log over 531 timings
    in 60 s) rather than 0.166 without them.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(4):
        acc += float(np.sum(np.sin(_X * i)))
    for i in range(6000):
        acc += math.sqrt(i)
    root = np.sqrt(_Z + 1.0)
    acc += float(np.sum(np.exp(-_Z) / root * np.cos(_Z)))
    return time.perf_counter() - start


class SpeedLog:
    """Kernel times taken at most INTERVAL_S apart, and the time they cost."""

    def __init__(self):
        self.times = []
        self.kernel = []
        self.spent = 0.0

    def mark(self, samples=LONG_GAP_SAMPLES):
        """Time the kernel ``samples`` times and log the median."""
        start = time.perf_counter()
        self.kernel.append(statistics.median(kernel_s() for _ in range(samples)))
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def mark_if_due(self):
        """Mark once per INTERVAL_S; after a long item, with more samples.

        One kernel time is close enough when the marks are INTERVAL_S
        apart; an item of a second or more (stroboscopic, cli_cold) is
        scaled by the two marks around it alone, and one kernel time each
        would make its scaled time noisier than its raw time.
        """
        if not self.times:
            self.mark()
            return
        gap = time.perf_counter() - self.times[-1]
        if gap >= INTERVAL_S:
            self.mark(1 if gap < LONG_GAP_S else LONG_GAP_SAMPLES)

    def scale(self, t0, t1):
        """REFERENCE_S over the mean kernel time of the marks bracketing [t0, t1]."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        window = self.kernel[lo:hi + 1]
        return REFERENCE_S * len(window) / sum(window)
