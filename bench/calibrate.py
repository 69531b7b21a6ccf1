"""A fixed reference computation that gauges the machine's speed.

The benchmark runs on shared virtual machines whose speed drifts: the same
work costs more CPU time while other tenants load the shared caches and
memory.  ``kernel`` is a fixed piece of work of the kinds the program does
(QUADPACK with a Python integrand, brentq, numpy vector work, a tridiagonal
eigensolve and a small dense solve) that does not touch ``prodiso``.  The
worker times it in CPU time between calls, about once a second, and
``bench/run.py`` divides every CPU time of the run by the machine's speed:
the median sample over ``NOMINAL_S``, the kernel's median CPU time on the
machine the benchmark was built on.

Run this file to time the kernel on the present machine:

    OPENBLAS_NUM_THREADS=1 python3 bench/calibrate.py
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate, linalg, optimize

# The kernel's median CPU time (one BLAS thread) on the 2-core shared VM
# the benchmark was built on; it only sets the scale of the reported
# times, so it never changes once the benchmark is in use.
NOMINAL_S = 0.0095
REPEATS = 3     # kernel calls per sample; a sample is their median


def kernel() -> float:
    # arrays stay small (under 64 KiB), so no call maps fresh pages and the
    # kernel's cost does not depend on the heap the program leaves behind
    s = 0.0
    for k in range(1, 6):
        s += integrate.quad(lambda x: math.exp(-x * x / k) / (1.0 + x * x),
                            -8.0, 8.0)[0]
        s += optimize.brentq(lambda x: math.tanh(x) - 0.1 * k, -5.0, 5.0)
    x = np.linspace(-6.0, 6.0, 4001)
    for k in range(60):
        s += float(np.cumsum(np.exp(-0.5 * x * x) * np.cos(k * x))[-1])
    d = 2.0 + np.arange(400) / 400.0
    s += float(linalg.eigh_tridiagonal(d, -np.ones(399), eigvals_only=True,
                                       select="i", select_range=(0, 3))[0])
    a = np.random.default_rng(0).standard_normal((60, 60))
    s += float(np.linalg.solve(a + 60.0 * np.eye(60), np.ones(60))[0])
    return s


def sample() -> float:
    """The kernel's CPU time in seconds, median of ``REPEATS`` calls."""
    times = []
    for _ in range(REPEATS):
        c0 = time.process_time()
        kernel()
        times.append(time.process_time() - c0)
    return statistics.median(times)


if __name__ == "__main__":
    kernel()
    samples = [sample() for _ in range(20)]
    print(f"kernel CPU ms: median {1000 * statistics.median(samples):.2f}, "
          f"min {1000 * min(samples):.2f}, max {1000 * max(samples):.2f} "
          f"(nominal {1000 * NOMINAL_S:.2f})")
