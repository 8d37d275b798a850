"""Machine-speed calibration.

The benchmark shares its cores with other tenants, whose load slows this
machine by up to half for seconds to minutes at a time. A fixed kernel of the
same kinds of work as quadident (numpy transcendental functions over an
array, ``math.fsum``, a Python float loop) is timed before and after every
pass. The reference time over the kernel's mean time around a pass scales
that pass's times to the reference speed, so that a slow phase of the machine
does not read as a slow program. The kernel is part of the benchmark, not of
the program, so a change to quadident cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.008  # kernel time at the reference speed; the factor is 1 here
_X = np.linspace(0.001, 0.999, 4000)


def kernel() -> float:
    total = 0.0
    for _ in range(20):
        total += math.fsum(np.log1p(-_X) / _X)
    for i in range(1, 30000):
        total += (1.0 if i % 2 else -1.0) / i
    return total


def sample() -> float:
    """Median of three back-to-back kernel times, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(samples) -> float:
    """Scale from times measured while the kernel took ``samples`` seconds
    to times at the reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
