"""Calibration of timings against the speed of the host at the moment.

The benchmark runs on shared hosts whose speed changes by tens of percent
from one minute to the next (a busy neighbour on the same physical core,
for example).  A fixed pure-Python kernel, made of the same kind of work as
sgk's hot paths (small `Fraction` products and sums, tuple keys, dict
updates), is timed right before and right after each timed call.  The call's
time is multiplied by REFERENCE_S / (mean of the two kernel times), so it
reads as seconds on the host in its reference state and slowdowns common to
the kernel and the program cancel.  Set-up launches are calibrated with the
kernel timed inside the launched interpreter right after `import sgk`.
The kernel never calls sgk, so no change to sgk can move it.  On a 2-vCPU host this cut the spread of
12-item block means of one repeated item from 12% to 4% (coefficient of
variation).  Raw times are reported alongside.
"""

import time
from fractions import Fraction

# Typical kernel time between items on a 2-vCPU Intel Xeon at 2.0 GHz,
# Python 3.11.7, so that calibrated and raw times are of the same size.
REFERENCE_S = 0.0055


def kernel():
    """Fixed work: a few milliseconds of Fraction and dict operations."""
    keys = [(i,) for i in range(1, 9)]
    acc = {}
    for r in range(36):
        w = Fraction(r % 5 + 1, 3)
        for i, ka in enumerate(keys):
            for j in range(i + 1, len(keys)):
                key = ka + keys[j]
                acc[key] = acc.get(key, 0) + Fraction(i + 1, j + 2) * w
    return len(acc)


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def calibrated(raw, before, after):
    """A raw time mapped onto the reference host, given the kernel times
    measured right before and right after it."""
    return raw * REFERENCE_S * 2 / (before + after)
