"""Machine-speed probe: turns measured seconds into reference seconds.

The host this benchmark was measured on switches, many times a second,
between a fast state and one about 1.7 times slower (another tenant on the
same physical core), so raw wall times of identical passes spread by a
quarter.  A fixed pure-Python kernel, timed every 10 ms from a timer
signal while the work runs, samples the speed of the moment.  A span of
work lasting t seconds, of which p went to the kernel, is reported as

    (t - p) * mean((K_REF / k_i) ** SENSITIVITY)

over the kernel times k_i sampled in it: the seconds the work would have
taken had the kernel run at K_REF throughout.  K_REF is about the kernel's
time in the fast state of that host (Intel Xeon, 2 vCPUs).
"""

import math
import signal
import statistics
import time

K_REF = 200e-6  # seconds per kernel call at reference speed
INTERVAL = 0.01  # seconds between samples
# The package's code slows a little more than the small kernel when the
# host is contended: over 540 passes of the four workloads on that host,
# pass time went as (kernel speed) ** -1.02 to -1.11.
SENSITIVITY = 1.1


def kernel():
    """Fixed interpreter work: tuple shuffling, float math, a libm call."""
    acc = 0.0
    v = (0.1, -0.2, 0.3, -0.4)
    for _ in range(800):
        a, b, c, d = v
        t = math.tanh(a) + math.tanh(b) * c
        v = (b, c, d, a + 1e-9 * t)
        acc += abs(t)
    return acc


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter()


class SpeedProbe:
    """Context manager sampling the kernel while the body runs.

    on_sample(start, end) is called for each sample taken inside the body,
    so a tracer can record the probe's time as a span of its own.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples = []  # (start, end) of each kernel call

    def _handler(self, _signum, _frame):
        start, end = timed_kernel()
        self.samples.append((start, end))
        if self.on_sample is not None:
            self.on_sample(start, end)

    def __enter__(self):
        self.samples.append(timed_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(timed_kernel())
        return False

    def factor(self, a=None, b=None):
        """Mean of (K_REF / k) ** SENSITIVITY over the samples in [a, b],
        or over all of them when none falls inside."""
        inside = [(s, e) for s, e in self.samples
                  if (a is None or s >= a) and (b is None or e <= b)]
        return statistics.fmean(
            (K_REF / (e - s)) ** SENSITIVITY for s, e in (inside or self.samples))

    def seconds(self, a=None, b=None, factor=None):
        """Reference seconds of the work done in [a, b] (default: the
        whole body), with the probe's own time taken out.  The speed is
        that sampled in [a, b] unless a factor is given."""
        a = self.start if a is None else a
        b = self.end if b is None else b
        probe = sum(e - s for s, e in self.samples if s >= a and e <= b)
        return (b - a - probe) * (self.factor(a, b) if factor is None else factor)


def normalized_call(fn, args):
    """Reference seconds of one call, scaled by a kernel sample taken just
    before it."""
    start, end = timed_kernel()
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * (K_REF / (end - start)) ** SENSITIVITY
